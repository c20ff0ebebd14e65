#include "compiler/compile.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "hw/accumulator_sizing.hpp"

namespace rsnn::compiler {
namespace {

std::int64_t round_up(std::int64_t value, int multiple) {
  if (multiple <= 1) return value;
  return ceil_div(value, multiple) * multiple;
}

}  // namespace

CompiledDesign compile(const quant::QuantizedNetwork& qnet,
                       const CompileOptions& options) {
  RSNN_REQUIRE(!qnet.layers.empty(), "cannot compile an empty network");
  RSNN_REQUIRE(options.num_conv_units >= 1);

  CompiledDesign design;
  hw::AcceleratorConfig& cfg = design.config;
  cfg.name = "compiled";
  cfg.clock_mhz = options.clock_mhz;
  cfg.num_conv_units = options.num_conv_units;
  cfg.linear.lanes = options.linear_lanes;
  cfg.memory = options.memory;

  // Scan the network for unit geometry requirements.
  const ir::GeometryRequirements req = ir::scan_geometry(qnet);
  if (req.has_conv) {
    cfg.conv.kernel_rows = static_cast<int>(req.max_conv_kernel);
    cfg.conv.array_columns = static_cast<int>(
        round_up(req.max_conv_out_width, options.column_round_to));
  }
  if (req.has_pool) {
    cfg.pool.kernel_rows = static_cast<int>(req.max_pool_kernel);
    cfg.pool.array_columns = static_cast<int>(
        round_up(req.max_pool_out_width, options.column_round_to));
  }

  if (options.size_accumulators) {
    const hw::AccumulatorPlan plan = hw::plan_accumulators(qnet);
    cfg.conv.accumulator_bits = plan.conv_bits;
    cfg.pool.accumulator_bits = plan.pool_bits;
    cfg.linear.accumulator_bits = plan.linear_bits;
  }

  // Lower the network onto the derived config: validates the mapping and
  // precomputes placement, buffer sizing and the per-op schedule.
  design.program = ir::lower(qnet, cfg);
  design.predicted_total_cycles = design.program.predicted_total_cycles();
  design.predicted_latency_us = design.program.predicted_latency_us();

  // Drift guard (invariant 4): an independent summation of the per-op
  // predicted cycles must reproduce the program total the accelerator will
  // report as predict_total_cycles(). The strong form of the invariant —
  // these totals equal the cycle-accurate stepped count — is pinned by
  // tests/test_compiler.cpp (PredictedCyclesPinnedToCycleAccurateLeNet).
  std::int64_t per_op_sum = 0;
  for (const ir::LayerOp& op : design.program.ops())
    per_op_sum += op.latency.total_cycles;
  RSNN_ENSURE(per_op_sum == design.predicted_total_cycles,
              "compiler schedule disagrees with the program's analytic "
              "latency total");
  return design;
}

CompiledDesign compile_for_latency(const quant::QuantizedNetwork& qnet,
                                   CompileOptions base_options,
                                   double target_latency_us,
                                   const std::vector<int>& candidates) {
  RSNN_REQUIRE(target_latency_us > 0.0 && !candidates.empty());
  CompiledDesign best;
  bool have_best = false;
  for (const int units : candidates) {
    CompileOptions options = base_options;
    options.num_conv_units = units;
    CompiledDesign design = compile(qnet, options);
    if (design.predicted_latency_us <= target_latency_us)
      return design;  // candidates are tried in ascending cost order
    if (!have_best ||
        design.predicted_latency_us < best.predicted_latency_us) {
      best = std::move(design);
      have_best = true;
    }
  }
  return best;
}

std::string describe(const CompiledDesign& design,
                     const quant::QuantizedNetwork& qnet) {
  std::ostringstream os;
  const auto& cfg = design.config;
  os << "Compiled design @ " << cfg.clock_mhz << " MHz\n"
     << "  conv units : " << cfg.num_conv_units << " x (X=" << cfg.conv.array_columns
     << ", Y=" << cfg.conv.kernel_rows << ")\n"
     << "  pool unit  : (X=" << cfg.pool.array_columns
     << ", Y=" << cfg.pool.kernel_rows << ")\n"
     << "  linear unit: " << cfg.linear.lanes << " lanes\n"
     << "  T=" << qnet.time_bits << ", weights " << qnet.weight_bits << " bit\n"
     << "  schedule:\n";
  for (const ir::LayerOp& op : design.program.ops()) {
    os << "    [" << op.layer_index << "] " << op.name() << " on " << op.unit;
    if (op.latency.groups > 0)
      os << " groups=" << op.latency.groups
         << " share=" << op.latency.channels_per_unit;
    os << (op.placement == hw::WeightPlacement::kDram ? " [DRAM]" : "")
       << " ~" << op.latency.total_cycles << " cycles\n";
  }
  os << "  predicted latency: " << design.predicted_latency_us << " us ("
     << design.predicted_total_cycles << " cycles)\n";
  return os.str();
}

}  // namespace rsnn::compiler
