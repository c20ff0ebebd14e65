// Encoding error analysis: quantifies why radix encoding shortens spike
// trains (README invariant 5; feeds the encoding ablation bench).
#pragma once

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::encoding {

struct EncodingErrorStats {
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
  double rms_error = 0.0;
  std::int64_t total_spikes = 0;  ///< event count (energy proxy)
};

/// Round-trip error of radix encoding at T steps over the given values.
EncodingErrorStats radix_error(const TensorF& values, int time_steps);

/// Round-trip error of deterministic rate encoding at T steps.
EncodingErrorStats rate_error(const TensorF& values, int time_steps);

/// Round-trip error of stochastic rate encoding (averaged over trials).
EncodingErrorStats rate_error_stochastic(const TensorF& values, int time_steps,
                                         int trials, Rng& rng);

/// Uniform test values in [0, 1) for error sweeps.
TensorF uniform_test_values(std::int64_t count, Rng& rng);

}  // namespace rsnn::encoding
