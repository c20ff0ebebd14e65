// SynthObjects: a procedural CIFAR-100-class dataset.
//
// Substitution note (see README "Synthetic stand-in datasets"): the paper evaluates VGG-11 on
// CIFAR-100. This generator produces a 100-class, 3x32x32 task. Each class
// is defined by a deterministic parameter vector (shape family, two-color
// palette, texture frequency/orientation, background gradient); samples
// jitter those parameters and add noise. The classes are separable but not
// trivially so, which is what the accuracy-vs-time-steps trend needs.
#pragma once

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace rsnn::data {

struct SynthObjectsConfig {
  int canvas = 32;
  int num_classes = 100;
  std::size_t num_samples = 5000;
  std::uint64_t seed = 1234;
  double noise_stddev = 0.04;
};

Dataset make_synth_objects(const SynthObjectsConfig& config = {});

}  // namespace rsnn::data
