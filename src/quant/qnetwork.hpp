// QuantizedNetwork: the integer reference model of a converted SNN.
//
// This is the arithmetic contract shared by the radix-SNN functional
// simulator and the cycle-level accelerator: all three must produce
// bit-identical results (README "Invariants", 1 and 2).
//
// Number system
// -------------
//   * Activations are unsigned T-bit integers A in [0, 2^T): the radix
//     encoding of a real activation a in [0, 1), A = floor(a * 2^T).
//     T is the spike train length ("time steps" in the paper).
//   * Weights are signed `weight_bits`-bit integers W with a per-layer
//     power-of-two scale 2^-f ("frac_bits" f): w ~= W * 2^-f.
//   * A conv/linear layer computes M = sum(W * A) in full precision
//     (paper: "partial sums are stored at full integer precision"), adds the
//     pre-scaled bias B = round(bias * 2^(T+f)), then requantizes:
//         A_out = clamp((M + B) >> f, 0, 2^T - 1)        [ReLU + requantize]
//     The shift-only requantizer is exactly what a multiplier-free FPGA
//     fabric implements (paper Sec. IV-A: carry logic + LUTs, no DSP).
//   * Average pooling over a k x k window (k a power of two) is
//         A_out = sum(A) >> (2 * log2(k))
//   * The final layer omits requantization and exposes raw accumulators
//     (membrane potentials); classification is their argmax.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bits.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::quant {

/// Requantize an accumulator: add bias, shift by frac_bits, clamp to T bits.
/// Arithmetic right shift floors toward -inf, matching the hardware
/// truncating requantizer; negative frac_bits means scale-up (left shift).
/// The one copy of the requantizer rule, shared by the reference model and
/// the simulator fast path.
inline std::int64_t requantize_value(std::int64_t acc, std::int64_t bias,
                                     int frac_bits, int time_bits) {
  std::int64_t v = acc + bias;
  if (frac_bits >= 0)
    v >>= frac_bits;
  else
    v <<= -frac_bits;
  return saturate_unsigned(v, time_bits);
}

/// Quantized convolution parameters.
struct QConv2d {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  TensorI weight;     ///< [Cout, Cin, K, K], signed, |w| < 2^(weight_bits-1)
  TensorI64 bias;     ///< [Cout], pre-scaled by 2^(T+frac_bits(oc))
  int frac_bits = 0;  ///< requantization shift f (may be negative)
  /// Optional per-output-channel shifts ([Cout]); empty means the uniform
  /// `frac_bits` applies. Per-channel scales stay powers of two, so the
  /// hardware requantizer remains a (per-channel-constant) shift.
  TensorI channel_frac;
  bool requantize = true;  ///< false for the network's final layer

  int frac_for(std::int64_t oc) const {
    return channel_frac.numel() > 0 ? channel_frac.at_flat(oc) : frac_bits;
  }
};

/// Quantized average pooling. Requires power-of-two kernel.
struct QPool2d {
  std::int64_t kernel = 2;
  int shift = 2;  ///< 2 * log2(kernel)
};

/// Quantized fully-connected parameters.
struct QLinear {
  std::int64_t in_features = 0;
  std::int64_t out_features = 0;
  TensorI weight;  ///< [out, in]
  TensorI64 bias;  ///< [out], pre-scaled by 2^(T+frac_bits(o))
  int frac_bits = 0;
  TensorI channel_frac;  ///< optional per-output shifts; see QConv2d
  bool requantize = true;

  int frac_for(std::int64_t o) const {
    return channel_frac.numel() > 0 ? channel_frac.at_flat(o) : frac_bits;
  }
};

/// Marker for the 2-D -> 1-D buffer transfer.
struct QFlatten {};

using QLayer = std::variant<QConv2d, QPool2d, QLinear, QFlatten>;

/// Integer-only network; see file comment for semantics.
class QuantizedNetwork {
 public:
  int time_bits = 0;    ///< T: activation bits == spike train length
  int weight_bits = 0;  ///< parameter resolution (3 in the paper)
  Shape input_shape;    ///< CHW of the T-bit input activation tensor
  std::vector<QLayer> layers;

  /// Reference integer inference for one sample.
  /// `input`: CHW tensor of T-bit activation codes.
  /// Returns the final layer's raw accumulators (logits), one per class.
  std::vector<std::int64_t> forward(const TensorI& input) const;

  /// As forward(), but also records every layer's output activation codes
  /// (for equivalence checks against the SNN / hardware simulators).
  std::vector<std::int64_t> forward_traced(
      const TensorI& input, std::vector<TensorI64>* layer_outputs) const;

  /// Partial forward over the layer range [begin, end): `input` must be
  /// shaped as layer `begin`'s input (requantized activation codes when
  /// begin > 0). Returns the tensor leaving layer end-1 — requantized codes
  /// for an interior range, raw accumulators when the range includes the
  /// final layer. Records each layer's output into `layer_outputs` if given.
  /// This is the entry point for segment-scoped execution (pipeline stages
  /// execute contiguous sub-programs).
  TensorI64 forward_layers(const TensorI64& input, std::size_t begin,
                           std::size_t end,
                           std::vector<TensorI64>* layer_outputs) const;

  /// argmax of forward().
  int classify(const TensorI& input) const;

  /// Shapes after each layer (flatten collapses CHW to C).
  std::vector<Shape> layer_output_shapes() const;

  /// Total parameter (weight + bias) count.
  std::int64_t num_params() const;

  /// Parameter storage in bits: weights at weight_bits each, biases at
  /// (time_bits + frac_bits + weight_bits + 8) each — used by the memory
  /// planner to decide BRAM vs DRAM placement.
  std::int64_t param_bits() const;

  std::string summary() const;
};

/// Encode a float image (values in [0,1)) into T-bit activation codes.
TensorI encode_activations(const TensorF& image, int time_bits);

}  // namespace rsnn::quant
