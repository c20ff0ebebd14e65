// ConvUnit: cycle-accurate, bit-true simulator of one convolution unit
// (paper Fig. 2).
//
// The unit is a Y x X adder array fed by an input shift register:
//   * The input logic fetches one binary feature-map row into the shift
//     register (one fetch per row, double-buffered against compute).
//   * Adder column x taps the register at position x*stride + s after s
//     shifts; Kc shifts expose the whole kernel window to every column.
//   * Adder row y holds kernel row y of the current output channel; a
//     multiplexer feeds 0 when no spike occurred (no multipliers anywhere).
//   * Partial sums advance one adder row per input row, so output row `oy`
//     flows through stage y while input row oy*stride + y streams; after Kr
//     stages it exits to the output logic.
//   * The output logic accumulates exited rows over input channels and time
//     steps, left-shifting by one bit between time steps (radix weighting),
//     and finally applies bias + ReLU + requantization.
//
// X may be split into `share = X / ow` column segments so several output
// channels of the same layer are computed in one pass (they consume the
// same input row). If ow > X the feature map is processed in column tiles.
//
// The simulator advances an explicit cycle counter with the same pass
// structure as hw/latency_model.hpp; the totals must agree exactly
// (README invariant 4) and the computed feature maps must match the
// QuantizedNetwork reference bit for bit (invariant 2).
#pragma once

#include <cstdint>
#include <vector>

#include "encoding/spike_train.hpp"
#include "hw/arch.hpp"
#include "hw/latency_model.hpp"
#include "quant/qnetwork.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::hw {

/// Result of one unit processing its channel slice of a conv layer.
struct ConvSliceResult {
  std::int64_t cycles = 0;           ///< unit-busy cycles (setup + row periods)
  std::int64_t writeback_cycles = 0; ///< output-store cycles; reported
                                     ///< separately because units compute in
                                     ///< parallel but share the buffer write
                                     ///< port, so writebacks serialize
  std::int64_t adder_ops = 0;        ///< additions actually performed (spikes)
  std::int64_t row_fetches = 0;      ///< shift-register fills
  MemTraffic traffic;
};

class ConvUnit {
 public:
  ConvUnit(ConvUnitGeometry geometry, TimingParams timing);

  /// Process output channels `oc_begin .. oc_end-1` (at most `share` many)
  /// of `conv` for all time steps and input channels, writing requantized
  /// activation codes (or raw accumulators if conv.requantize is false)
  /// into `out(oc, oy, ox)`.
  ///
  /// `active_units` is the number of conv units running concurrently in
  /// this group phase — it determines activation-port contention.
  ConvSliceResult run_layer_slice(const quant::QConv2d& conv,
                                  const encoding::SpikeTrain& input,
                                  std::int64_t oc_begin, std::int64_t oc_end,
                                  int time_steps, int active_units,
                                  TensorI64& out);

  const ConvUnitGeometry& geometry() const { return geometry_; }

 private:
  ConvUnitGeometry geometry_;
  TimingParams timing_;

  // Datapath state, re-initialized per pass. The shift register is modeled
  // event-wise: row_events_ holds the padded register positions of this
  // row's spikes (extracted word-wise from the packed input train).
  std::vector<std::int32_t> row_events_;
  std::vector<std::int32_t> weight_cache_;  ///< [Cin][local][Kr][Kc] kernels
  std::vector<std::int64_t> membrane_;      ///< [local][oh][ow] output logic
  std::vector<std::vector<std::int64_t>> pipeline_;  ///< [Y][X] partial sums
};

}  // namespace rsnn::hw
