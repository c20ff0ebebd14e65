#include "compiler/partition.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/assert.hpp"
#include "hw/pingpong.hpp"
#include "hw/resource_model.hpp"

namespace rsnn::compiler {
namespace {

/// Exact bottleneck partition (classic linear-partition DP) over an
/// arbitrary contiguous-range cost function: among all ways to cut [0, n)
/// into k non-empty segments, minimize the maximum segment cost. Returns the
/// interior cut points.
template <typename SegmentCost>
std::vector<std::size_t> bottleneck_cuts(std::size_t n, std::size_t k,
                                         SegmentCost&& segment_cost) {
  // best[s][i] = minimal achievable max-segment cost covering ops [0, i)
  // with s segments. cut[s][i] records the last segment's start.
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::vector<std::int64_t>> best(
      k + 1, std::vector<std::int64_t>(n + 1, kInf));
  std::vector<std::vector<std::size_t>> cut(
      k + 1, std::vector<std::size_t>(n + 1, 0));
  best[0][0] = 0;
  for (std::size_t s = 1; s <= k; ++s) {
    for (std::size_t i = s; i + (k - s) <= n; ++i) {
      for (std::size_t j = s - 1; j < i; ++j) {
        if (best[s - 1][j] == kInf) continue;
        const std::int64_t cost =
            std::max(best[s - 1][j], segment_cost(j, i));
        if (cost < best[s][i]) {
          best[s][i] = cost;
          cut[s][i] = j;
        }
      }
    }
  }
  RSNN_ENSURE(best[k][n] != kInf, "partition DP failed to cover the program");

  std::vector<std::size_t> cuts;  // interior boundaries, reconstructed back
  std::size_t i = n;
  for (std::size_t s = k; s > 1; --s) {
    i = cut[s][i];
    cuts.push_back(i);
  }
  std::reverse(cuts.begin(), cuts.end());
  return cuts;
}

/// Cycles to stream the cut tensor at interior boundary `b` across an
/// inter-device link; the program's entry and exit are host interfaces, not
/// device-to-device links, so they cost nothing here.
std::int64_t cut_transfer_cycles(const ir::LayerProgram& program,
                                 std::size_t boundary,
                                 const PartitionOptions& options) {
  if (boundary == 0 || boundary == program.size()) return 0;
  const std::int64_t bits = hw::activation_bits(
      program.op(boundary).in_shape, program.time_bits());
  return hw::inter_device_transfer_cycles(bits, options.link_bits_per_cycle,
                                          options.link_setup_cycles);
}

}  // namespace

const char* partition_name(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kBalanceLatency:
      return "balance_latency";
    case PartitionStrategy::kFitResources:
      return "fit_resources";
  }
  return "unknown";
}

std::string partition_parse_error(const std::string& name) {
  if (name == "balance_latency" || name == "balance" ||
      name == "fit_resources" || name == "fit")
    return {};
  return "unknown partition strategy '" + name +
         "' (expected balance_latency or fit_resources)";
}

PartitionStrategy parse_partition(const std::string& name) {
  if (name == "balance_latency" || name == "balance")
    return PartitionStrategy::kBalanceLatency;
  if (name == "fit_resources" || name == "fit")
    return PartitionStrategy::kFitResources;
  RSNN_REQUIRE(false, partition_parse_error(name));
  return PartitionStrategy::kBalanceLatency;  // unreachable
}

std::string pipeline_request_error(const ir::LayerProgram& program,
                                   int stages) {
  if (stages >= 1 && static_cast<std::size_t>(stages) <= program.size())
    return {};
  std::ostringstream os;
  os << "cannot pipeline into " << stages << " stage(s): the program has "
     << program.size() << " ops (choose a stage count between 1 and "
     << program.size() << ")";
  return os.str();
}

std::string validate_pipeline_request(const ir::LayerProgram& program,
                                      const std::string& stages_text,
                                      const std::string& partition_name,
                                      int* stages) {
  RSNN_REQUIRE(stages != nullptr);
  // Parse by hand instead of std::stoi so a typo ("--pipeline two") yields
  // the same friendly one-liner as an out-of-range count, not an uncaught
  // std::invalid_argument.
  std::size_t consumed = 0;
  int value = 0;
  try {
    value = std::stoi(stages_text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || consumed != stages_text.size())
    return "invalid pipeline stage count '" + stages_text +
           "' (expected an integer)";
  const std::string partition_error = partition_parse_error(partition_name);
  if (!partition_error.empty()) return partition_error;
  // balance_latency cuts into exactly `value` segments, so the count must
  // not exceed the op count; for fit_resources it is the available device
  // pool, where any positive size is a valid request (the packer reports
  // the smallest feasible count if the pool turns out too small).
  if (parse_partition(partition_name) == PartitionStrategy::kBalanceLatency) {
    const std::string stage_error = pipeline_request_error(program, value);
    if (!stage_error.empty()) return stage_error;
  } else if (value < 1) {
    std::ostringstream os;
    os << "fit_resources needs a positive device count (got " << value
       << ")";
    return os.str();
  }
  *stages = value;
  return {};
}

std::vector<ir::ProgramSegment> partition_balance_latency(
    const ir::LayerProgram& program, int num_segments) {
  const std::size_t n = program.size();
  RSNN_REQUIRE(program.has_hw_annotations(),
               "balance_latency needs the program's latency annotations");
  RSNN_REQUIRE(num_segments >= 1 &&
                   static_cast<std::size_t>(num_segments) <= n,
               "cannot cut " << n << " ops into " << num_segments
                             << " non-empty segments");
  const std::size_t k = static_cast<std::size_t>(num_segments);

  // Prefix cycles: cost of ops [a, b) is prefix[b] - prefix[a].
  std::vector<std::int64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    prefix[i + 1] = prefix[i] + program.op(i).latency.total_cycles;

  const std::vector<std::size_t> cuts = bottleneck_cuts(
      n, k,
      [&](std::size_t j, std::size_t i) { return prefix[i] - prefix[j]; });
  return ir::make_segments(program, cuts);
}

std::vector<ir::ProgramSegment> partition_balance_latency(
    const ir::LayerProgram& program, int num_segments,
    const PartitionOptions& options) {
  const std::size_t n = program.size();
  RSNN_REQUIRE(program.has_hw_annotations() && program.whole_network(),
               "the per-device cost model partitions a whole-network "
               "hardware-lowered program");
  RSNN_REQUIRE(num_segments >= 1 &&
                   static_cast<std::size_t>(num_segments) <= n,
               "cannot cut " << n << " ops into " << num_segments
                             << " non-empty segments");
  const std::size_t k = static_cast<std::size_t>(num_segments);
  const hw::AcceleratorConfig& config = program.config();
  const int T = program.time_bits();
  const int wbits = program.weight_bits();

  // Per-op latency under either placement: what the op costs on a device
  // that holds its stage's weights on chip vs one that streams them. The
  // range cost below picks per segment, exactly as re-lowering will.
  std::vector<std::int64_t> onchip(n + 1, 0), dram(n + 1, 0), params(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ir::LayerOp op = program.op(i);
    ir::annotate_op(op, config, T, wbits, hw::WeightPlacement::kOnChip);
    onchip[i + 1] = onchip[i] + op.latency.total_cycles;
    if (op.param_bits > 0)
      ir::annotate_op(op, config, T, wbits, hw::WeightPlacement::kDram);
    dram[i + 1] = dram[i] + op.latency.total_cycles;
    params[i + 1] = params[i] + op.param_bits;
  }

  const auto segment_cost = [&](std::size_t j, std::size_t i) {
    const std::int64_t p = params[i] - params[j];
    const std::int64_t compute = p <= config.memory.weight_bram_bits
                                     ? onchip[i] - onchip[j]
                                     : dram[i] - dram[j];
    // The stage serializes its ingress and egress cut transfers.
    return compute + cut_transfer_cycles(program, j, options) +
           cut_transfer_cycles(program, i, options);
  };

  const std::vector<std::size_t> cuts = bottleneck_cuts(n, k, segment_cost);
  return ir::make_segments(program, cuts,
                           options.relower ? ir::SegmentLowering::kRelower
                                           : ir::SegmentLowering::kInherit);
}

std::vector<ir::ProgramSegment> partition_fit_resources(
    const ir::LayerProgram& program, std::int64_t device_weight_bram_bits) {
  RSNN_REQUIRE(device_weight_bram_bits > 0,
               "per-device weight-memory budget must be positive");
  RSNN_REQUIRE(program.size() > 0, "cannot partition an empty program");

  std::vector<std::size_t> cuts;
  std::int64_t used = 0;
  for (std::size_t li = 0; li < program.size(); ++li) {
    const std::int64_t bits = program.op(li).param_bits;
    // Close the current (non-empty) segment before an op that would
    // overflow the device budget. An op exceeding the budget on its own
    // keeps a singleton segment; that device streams its layer's weights
    // from DRAM exactly as the monolithic placement policy would.
    if (li > 0 && used + bits > device_weight_bram_bits) {
      cuts.push_back(li);
      used = 0;
    }
    used += bits;
  }
  return ir::make_segments(program, cuts);
}

std::vector<ir::ProgramSegment> partition_fit_resources(
    const ir::LayerProgram& program, const PartitionOptions& options) {
  const std::size_t n = program.size();
  RSNN_REQUIRE(program.has_hw_annotations() && program.whole_network(),
               "the per-device cost model partitions a whole-network "
               "hardware-lowered program");

  std::int64_t budget_bram = options.device_bram_bits;
  if (budget_bram <= 0) {
    // Default device: the configured on-chip weight pool plus room for the
    // monolithic activation buffers (re-lowered stages never need more).
    const hw::BufferPlan& plan = program.buffer_plan();
    budget_bram = program.config().memory.weight_bram_bits +
                  2 * plan.buffer2d_bits_each + 2 * plan.buffer1d_bits_each;
  }

  // Full per-device feasibility: re-lower the candidate range and evaluate
  // the design it would actually synthesize — on-chip parameters, both
  // activation ping-pong pairs, and the DRAM subsystem when it streams.
  // Multi-op segments must hold their weights on chip (the point of the
  // packing); a single op too large for the on-chip pool is allowed to
  // stream, matching the monolithic VGG-11 policy.
  const auto feasible = [&](std::size_t j, std::size_t i,
                            std::string* why = nullptr) {
    const ir::LayerProgram local = ir::relower_range(program, j, i);
    const hw::ResourceEstimate est = hw::estimate_resources(local);
    if (est.bram_bits > budget_bram) {
      if (why != nullptr) {
        std::ostringstream os;
        os << "needs " << est.bram_bits << " BRAM bits vs budget "
           << budget_bram;
        *why = os.str();
      }
      return false;
    }
    if (options.device_luts > 0 && est.luts > options.device_luts) {
      if (why != nullptr) {
        std::ostringstream os;
        os << "needs " << est.luts << " LUTs vs cap " << options.device_luts
           << (local.uses_dram() ? " (including the DRAM subsystem)" : "");
        *why = os.str();
      }
      return false;
    }
    if (i - j > 1 && local.uses_dram()) return false;
    return true;
  };

  std::vector<std::size_t> cuts;
  std::size_t j = 0;
  while (j < n) {
    std::string why;
    if (!feasible(j, j + 1, &why))
      RSNN_REQUIRE(false, "fit_resources is infeasible at any device count: "
                              << "op " << j << " (" << program.op(j).name()
                              << ") exceeds the per-device budget even on "
                                 "its own device ("
                              << why << "); raise the device budget");
    std::size_t i = j + 1;
    while (i < n && feasible(j, i + 1)) ++i;
    if (i < n) cuts.push_back(i);
    j = i;
  }

  const int count = static_cast<int>(cuts.size()) + 1;
  RSNN_REQUIRE(options.max_devices <= 0 || count <= options.max_devices,
               "fit_resources cannot pack " << n << " ops into "
                   << options.max_devices
                   << " device(s) under the per-device budget; the smallest "
                      "feasible device count is "
                   << count);
  return ir::make_segments(program, cuts,
                           options.relower ? ir::SegmentLowering::kRelower
                                           : ir::SegmentLowering::kInherit);
}

std::vector<ir::ProgramSegment> partition_program(
    const ir::LayerProgram& program, PartitionStrategy strategy,
    int num_segments) {
  switch (strategy) {
    case PartitionStrategy::kBalanceLatency:
      return partition_balance_latency(program, num_segments);
    case PartitionStrategy::kFitResources:
      return partition_fit_resources(
          program, program.config().memory.weight_bram_bits);
  }
  RSNN_REQUIRE(false, "unknown partition strategy");
  return {};  // unreachable
}

std::vector<ir::ProgramSegment> partition_program(
    const ir::LayerProgram& program, PartitionStrategy strategy,
    int num_segments, const PartitionOptions& options) {
  switch (strategy) {
    case PartitionStrategy::kBalanceLatency:
      return partition_balance_latency(program, num_segments, options);
    case PartitionStrategy::kFitResources: {
      PartitionOptions fit = options;
      if (num_segments > 0) fit.max_devices = num_segments;
      return partition_fit_resources(program, fit);
    }
  }
  RSNN_REQUIRE(false, "unknown partition strategy");
  return {};  // unreachable
}

double expected_attempts_per_image(std::int64_t completed,
                                   std::int64_t retries,
                                   std::int64_t stalls) {
  RSNN_REQUIRE(completed >= 0 && retries >= 0 && stalls >= 0,
               "serving-overhead counters must be non-negative, got "
                   << completed << " completed, " << retries << " retries, "
                   << stalls << " stalls");
  if (completed == 0) return 1.0;
  return static_cast<double>(completed + retries + stalls) /
         static_cast<double>(completed);
}

}  // namespace rsnn::compiler
