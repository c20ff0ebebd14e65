// Shared infrastructure for the reproduction benches: model training with
// on-disk caching, datasets, and table formatting.
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "quant/qnetwork.hpp"

namespace rsnn::bench {

/// A trained float model plus its train/test data.
struct TrainedModel {
  nn::Network network;
  data::Dataset train;
  data::Dataset test;
  float ann_accuracy = 0.0f;
};

/// Where bench artifacts (trained weights) are cached between runs.
std::string artifact_dir();

/// LeNet-5 trained on SynthDigits (32x32). Cached after the first run.
/// Substitution note: the paper uses MNIST; if an MNIST directory is present
/// at ./data/mnist it is used instead (see README "Synthetic stand-in
/// datasets").
TrainedModel load_or_train_lenet5(bool quiet = true);

/// The Fang et al. CNN (28x28) trained on SynthDigits at 28x28.
TrainedModel load_or_train_fang_cnn(bool quiet = true);

/// A width-reduced VGG-11 trained on SynthObjects-100, standing in for the
/// accuracy column of the Table III VGG row (the full-size VGG-11 is used
/// for all hardware metrics). Width divisor 8 by default.
TrainedModel load_or_train_vgg_slim(bool quiet = true);

/// Accuracy of a quantized network over a dataset, in percent.
double quantized_accuracy_pct(const quant::QuantizedNetwork& qnet,
                              const data::Dataset& dataset,
                              std::size_t max_samples = 0);

// ---------------------------------------------------------------- tables

/// Minimal fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void add_row(const std::vector<std::string>& cells);
  void print(const std::string& title) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double value, int decimals = 2);
std::string fmt_int(std::int64_t value);

}  // namespace rsnn::bench
