// Compiler: map a quantized network onto an accelerator design instance.
//
// This plays the role of the E3NE framework [14] in the paper's flow: given
// the converted SNN it derives the hardware configuration —
//   * convolution-unit geometry: Y = largest kernel, X >= widest output row
//     ("choosing the number of columns X to be greater or equal than the
//     maximum output channel size can avoid tiling of the feature maps"),
//   * pooling-unit geometry likewise,
//   * weight placement (BRAM if everything fits, DRAM streaming otherwise),
//   * ping-pong buffer sizing (smallest capacity that fits every layer),
// and lowers the network into an ir::LayerProgram: the per-layer schedule
// (typed ops with group phasing, placement and predicted latency) that every
// downstream consumer — simulation, latency, power, RTL — reads.
#pragma once

#include <string>
#include <vector>

#include "hw/arch.hpp"
#include "ir/layer_program.hpp"
#include "quant/qnetwork.hpp"

namespace rsnn::compiler {

struct CompileOptions {
  int num_conv_units = 2;
  double clock_mhz = 100.0;
  int linear_lanes = 16;
  /// Round the conv array width up to this multiple (0 = exact fit).
  int column_round_to = 2;
  /// When true, synthesize the adder arrays at the exact worst-case
  /// accumulator width computed by hw::plan_accumulators instead of the
  /// default conservative widths (saves LUTs/FFs; see
  /// hw/accumulator_sizing.hpp).
  bool size_accumulators = false;
  hw::MemoryConfig memory;
};

/// A derived design instance plus the program lowered onto it. The program
/// borrows the QuantizedNetwork it was compiled from (see ir/layer_program),
/// so the network must outlive the design.
struct CompiledDesign {
  /// Convenience copy of the derived design instance for reports and
  /// resource/power models. The authoritative copy is embedded in the
  /// program (`program.config()`): engines and accelerators read that one,
  /// so treat this field as read-only.
  hw::AcceleratorConfig config;
  ir::LayerProgram program;   ///< the per-layer schedule (typed ops)
  std::int64_t predicted_total_cycles = 0;
  double predicted_latency_us = 0.0;
};

/// Derive a design for `qnet`. Throws if the network is not mappable
/// (kernel larger than any supported unit, non-power-of-two pooling, ...).
CompiledDesign compile(const quant::QuantizedNetwork& qnet,
                       const CompileOptions& options);

/// Multi-line report of the mapping decisions.
std::string describe(const CompiledDesign& design,
                     const quant::QuantizedNetwork& qnet);

/// Design-space exploration: compile with the smallest convolution-unit
/// count among `candidates` whose predicted latency meets
/// `target_latency_us`; falls back to the fastest candidate when the target
/// is unreachable (the pooling/linear units bound the floor — paper
/// Sec. IV-C). This automates the paper's manual Table II trade-off.
CompiledDesign compile_for_latency(const quant::QuantizedNetwork& qnet,
                                   CompileOptions base_options,
                                   double target_latency_us,
                                   const std::vector<int>& candidates = {
                                       1, 2, 4, 8, 16});

}  // namespace rsnn::compiler
