// RadixSnn: functional (untimed) simulator of a radix-encoded SNN.
//
// Processes spike trains layer by layer, time step by time step, exactly as
// the accelerator does:
//
//   for each layer:
//     membrane = 0
//     for t = 0 .. T-1:                       // spike train, MSB first
//       membrane = (membrane << 1) + sum_i W_i * s_i(t)
//     out = requantize(membrane + bias)       // ReLU + T-bit truncation
//     next layer input = radix_encode(out)
//
// This is mathematically identical to QuantizedNetwork::forward (invariant 1
// in README "Invariants") but exposes the temporal structure: per-layer spike trains
// and spike counts, which the power model consumes as activity factors.
#pragma once

#include <cstdint>
#include <vector>

#include "encoding/spike_train.hpp"
#include "ir/layer_program.hpp"
#include "quant/qnetwork.hpp"

namespace rsnn::snn {

struct RadixSnnResult {
  std::vector<std::int64_t> logits;  ///< final-layer membrane potentials
  int predicted_class = -1;
  std::int64_t total_input_spikes = 0;   ///< events entering layer inputs
  std::int64_t total_synaptic_ops = 0;   ///< adder operations actually fired
  std::vector<encoding::SpikeTrain> layer_spikes;  ///< filled if requested
};

/// A decomposed input event: the (channel, row, column) of one spike.
struct ConvEvent {
  std::int32_t ic, iy, ix;
};

/// One valid tap of an event: the output-plane offset it scatters to and the
/// kernel-window offset of the weight it multiplies.
struct ConvTap {
  std::int32_t plane_offset;
  std::int32_t weight_offset;
};

class RadixSnn {
 public:
  explicit RadixSnn(const quant::QuantizedNetwork& qnet)
      : qnet_(qnet), program_(ir::lower(qnet)) {}

  /// Run one sample given its input spike train (must be radix-encoded with
  /// the network's T).
  RadixSnnResult run(const encoding::SpikeTrain& input,
                     bool record_layer_spikes = false) const;

  /// Run only the op range [begin, end) — segment-scoped execution for
  /// pipeline stages. `input` must be shaped as op `begin`'s input. Logits
  /// are produced only when the range includes the program's final op; for
  /// an interior range the last recorded spike train (request
  /// record_layer_spikes) is the activation crossing the cut.
  RadixSnnResult run_range(const encoding::SpikeTrain& input,
                           std::size_t begin, std::size_t end,
                           bool record_layer_spikes = false) const;

  /// Convenience: encode a float image (values in [0,1)) and run.
  RadixSnnResult run_image(const TensorF& image,
                           bool record_layer_spikes = false) const;

  const quant::QuantizedNetwork& network() const { return qnet_; }
  const ir::LayerProgram& program() const { return program_; }

 private:
  const quant::QuantizedNetwork& qnet_;
  ir::LayerProgram program_;  ///< functional lowering of qnet_

  // Reused conv_step scratch: run() is logically const and engines are
  // single-threaded per instance, so reusing the event/tap buffers across
  // steps removes the per-step allocations from the behavioral hot loop.
  mutable std::vector<ConvEvent> conv_events_;
  mutable std::vector<ConvTap> conv_taps_;
};

}  // namespace rsnn::snn
