// The benchmark's two kinds of run and its compare mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace rsnn::e2e {

struct RunOutcome {
  /// The metrics BENCHMARK.json names for this kind of run.
  std::vector<Metric> metrics;
  /// Printed and stored in the results file, never gated.
  std::vector<Metric> diagnostics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string error;  ///< a run that could not finish; nothing is reported
};

/// Open-loop traffic over the wire to rsnn_serve children: the end-to-end
/// metrics.
RunOutcome run_untraced(WorkloadRun& run, double seconds);

/// Times the public calls into each layer from outside, writes every span to
/// `trace_path` as Chrome trace JSON, and reports the per-layer metrics.
RunOutcome run_traced(WorkloadRun& run, double seconds,
                      const std::string& trace_path);

/// Compare two results files run by run under BENCHMARK.json's bounds; exit
/// status 1 when any (workload, metric) got worse.
int compare_results(const std::string& benchmark_json,
                    const std::string& base_path, const std::string& new_path);

}  // namespace rsnn::e2e
