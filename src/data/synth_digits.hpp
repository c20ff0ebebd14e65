// SynthDigits: a procedural MNIST-class dataset.
//
// Substitution note (see README "Synthetic stand-in datasets"): the paper evaluates on MNIST. This
// generator renders the ten digits from a 5x7 seed font into a configurable
// canvas (default 32x32, LeNet-5's input size) with randomized translation,
// scale, stroke thickness, shear, per-pixel noise and intensity jitter —
// yielding a 10-class single-channel task of the same shape and difficulty
// class, fully deterministic given a seed.
#pragma once

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace rsnn::data {

struct SynthDigitsConfig {
  int canvas = 32;            ///< output is [1, canvas, canvas]
  std::size_t num_samples = 2000;
  std::uint64_t seed = 42;
  double max_shift = 2.5;     ///< random translation in pixels
  double min_scale = 0.80;    ///< glyph scale range
  double max_scale = 1.15;
  double max_shear = 0.15;    ///< horizontal shear factor
  double max_thickness = 0.8; ///< extra stroke radius in pixels
  double noise_stddev = 0.05; ///< additive Gaussian pixel noise
  double intensity_min = 0.7; ///< foreground intensity jitter
};

/// Generate a balanced dataset (labels cycle 0..9).
Dataset make_synth_digits(const SynthDigitsConfig& config = {});

/// Render a single digit with explicit transform parameters (exposed for
/// tests and the dataset explorer example).
TensorF render_digit(int digit, int canvas, double shift_x, double shift_y,
                     double scale, double shear, double thickness,
                     double intensity, double noise_stddev, Rng& rng);

}  // namespace rsnn::data
