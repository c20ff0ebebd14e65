// Execution records shared by both simulator paths (stepped, fast path)
// and by the engines layered above them. Split out of accelerator.hpp so the
// fast-path kernels (hw/fast_path) can produce results without pulling in the
// unit simulators.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/latency_model.hpp"

namespace rsnn::hw {

/// Per-layer execution record.
struct LayerStats {
  std::string name;
  std::int64_t cycles = 0;
  std::int64_t dram_cycles = 0;
  std::int64_t adder_ops = 0;        ///< fired additions (activity factor)
  std::int64_t input_spikes = 0;
  MemTraffic traffic;                ///< weight traffic in bits
};

/// Result of one inference on the accelerator. For segment-scoped runs
/// (`run_codes_range` stopping short of the final op) `logits` stays empty
/// and `predicted_class` -1; totals and per-layer stats cover only the
/// executed range.
struct AccelRunResult {
  std::vector<std::int64_t> logits;
  int predicted_class = -1;
  std::int64_t total_cycles = 0;
  double latency_us = 0.0;
  std::vector<LayerStats> layers;
  std::int64_t total_adder_ops = 0;
  std::int64_t dram_bits = 0;
  MemTraffic traffic_total;
};

/// Clear a result for reuse without releasing its storage: the logits and
/// per-layer vectors keep their capacity, so refilling a warm result
/// performs no allocation (layer names are short enough for SSO).
void reset_run_result(AccelRunResult& result);

/// Fold the stats of one program segment into an aggregate: totals sum,
/// per-layer records append in op order, and the final segment's logits
/// move over. Predicted class and latency are untouched — call
/// finalize_run() once every segment is merged.
void merge_segment_result(AccelRunResult& aggregate, AccelRunResult&& part);

/// Recompute latency_us (total cycles at `cycle_ns`) and predicted_class
/// (logit argmax; -1 while logits are empty).
void finalize_run(AccelRunResult& result, double cycle_ns);

/// Fold one layer record into the result's totals and per-layer list.
void accumulate_layer(AccelRunResult& result, LayerStats&& stats);

}  // namespace rsnn::hw
