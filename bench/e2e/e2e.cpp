// rsnn_e2e — the repository's end-to-end benchmark of rsnn_serve.
//
//   rsnn_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--results FILE]
//   rsnn_e2e --compare BASE.jsonl NEW.jsonl
//
// A run generates seeded models and inputs, spawns rsnn_serve children and
// drives them over the wire (--trace 0: the end-to-end metrics), or times the
// public calls into each layer from outside (--trace 1: the per-layer
// metrics). It prints every metric as "workload metric value unit", appends
// one JSON record to the results file, and prints as its last line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding exactly the metrics BENCHMARK.json names for that kind of run.
// bench/e2e/run.sh builds and runs it; bench/e2e/README.md documents it.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/flags.hpp"
#include "common/simd.hpp"
#include "json.hpp"
#include "runs.hpp"

namespace {

using namespace rsnn;
using namespace rsnn::e2e;

/// Approximate sustained clock in MHz from a dependent-add chain (one add
/// per cycle), as microbench records it: host metadata, good to ~10%.
double approx_clock_mhz() {
  constexpr std::uint64_t kIters = 32 * 1000 * 1000;
  double best_mhz = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t acc = 1;
    const auto begin = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      acc += i;
      asm volatile("" : "+r"(acc));
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - begin)
                          .count();
    if (ns > 0.0) best_mhz = std::max(best_mhz, kIters * 1e3 / ns);
  }
  return best_mhz;
}

std::string host_json() {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"cores\": %u, \"simd\": \"%s\", \"clock_mhz_approx\": %.0f}",
                std::thread::hardware_concurrency(),
                common::simd::active_isa(), approx_clock_mhz());
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_quote(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The measured metrics in BENCHMARK.json's order and units. Diagnostic when
/// the run and BENCHMARK.json disagree on a name or unit.
std::string declared_metrics(const Json& declared,
                             const std::vector<Metric>& measured,
                             std::vector<Metric>* out) {
  for (const Json& entry : declared.items) {
    const Json* name = entry.find("name");
    const Json* unit = entry.find("unit");
    if (name == nullptr || unit == nullptr) return "malformed metric entry";
    const Metric* found = nullptr;
    for (const Metric& metric : measured)
      if (metric.name == name->text) found = &metric;
    if (found == nullptr) return "metric '" + name->text + "' was not measured";
    if (found->unit != unit->text)
      return "metric '" + name->text + "' is in " + found->unit + ", not " +
             unit->text;
    out->push_back(*found);
  }
  if (out->size() != measured.size())
    return "the run measures metrics BENCHMARK.json does not list";
  return {};
}

std::vector<flags::FlagSpec> e2e_flags() {
  return {
      flags::text_flag("workload", "", "lenet-open|vgg-open|mixed-bulk|"
                                       "lenet-control", "NAME"),
      flags::count_flag("seed", "1", "seed for models, inputs and arrivals"),
      flags::count_flag("seconds", "15", "seconds of measured traffic", 1,
                        600),
      flags::toggle_flag("trace", "0",
                         "1 = the traced run and its per-layer metrics"),
      flags::text_flag("results", "",
                       "results file to append to (default: in the work "
                       "directory)",
                       "PATH"),
  };
}

int run_main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--compare") {
    if (argc != 4) {
      std::fprintf(stderr, "usage: rsnn_e2e --compare BASE.jsonl NEW.jsonl\n");
      return 2;
    }
    return compare_results(RSNN_E2E_BENCHMARK_JSON, argv[2], argv[3]);
  }
  flags::FlagSet args(e2e_flags());
  const std::string parse_error = args.parse(argc, argv, 1);
  const Workload* workload = find_workload(args.text("workload"));
  if (!parse_error.empty() || workload == nullptr) {
    std::fprintf(stderr, "error: %s\nusage: rsnn_e2e [--option value ...]\n%s",
                 parse_error.empty() ? "--workload is unknown or missing"
                                     : parse_error.c_str(),
                 args.usage(4).c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.count("seed"));
  const auto seconds = static_cast<double>(args.count("seconds"));
  const bool trace = args.toggle("trace");

  std::string bench_text;
  Json bench;
  if (!read_file(RSNN_E2E_BENCHMARK_JSON, &bench_text) ||
      !parse_json(bench_text, &bench).empty()) {
    std::fprintf(stderr, "error: cannot read %s\n", RSNN_E2E_BENCHMARK_JSON);
    return 1;
  }
  const Json* declared = bench.find(trace ? "per_layer" : "end_to_end");
  if (declared == nullptr) {
    std::fprintf(stderr, "error: BENCHMARK.json lists no metrics\n");
    return 1;
  }

  const std::string work_dir = RSNN_E2E_WORK_DIR;
  const std::string tag = std::string(workload->name) + "-s" +
                          std::to_string(seed);
  WorkloadRun run(*workload, seed,
                  work_dir + "/" + tag + "-" + std::to_string(::getpid()),
                  RSNN_E2E_DAEMON);
  const Clock::time_point prep_start = Clock::now();
  run.prepare();
  const double prep_s = ms_between(prep_start, Clock::now()) / 1000.0;

  const std::string trace_path = work_dir + "/trace-" + tag + ".json";
  RunOutcome outcome = trace ? run_traced(run, seconds, trace_path)
                             : run_untraced(run, seconds);
  if (!outcome.error.empty()) {
    run.keep_files();
    std::fprintf(stderr, "error: %s (files kept in %s)\n",
                 outcome.error.c_str(), run.dir().c_str());
    return 1;
  }
  outcome.diagnostics.push_back({"prep_s", prep_s, "s"});

  std::vector<Metric> reported;
  const std::string mismatch =
      declared_metrics(*declared, outcome.metrics, &reported);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "error: %s\n", mismatch.c_str());
    return 1;
  }
  for (const auto* list : {&reported, &outcome.diagnostics})
    for (const Metric& m : *list)
      std::printf("%s %s %.6g %s\n", workload->name, m.name.c_str(), m.value,
                  m.unit.c_str());
  if (trace) std::printf("%s trace %s\n", workload->name, trace_path.c_str());

  const bool correct = outcome.failed == 0;
  if (!correct) run.keep_files();
  const std::string summary =
      std::string("\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed) +
      ", \"metrics\": " + metrics_json(reported);
  const std::string results_path = args.text("results").empty()
                                       ? work_dir + "/results.jsonl"
                                       : args.text("results");
  std::ofstream results(results_path, std::ios::app);
  results << "{\"workload\": " << json_quote(workload->name)
          << ", \"seed\": " << seed << ", \"seconds\": " << seconds
          << ", \"trace\": " << (trace ? 1 : 0) << ", \"host\": " << host_json()
          << ", " << summary
          << ", \"diagnostics\": " << metrics_json(outcome.diagnostics)
          << "}\n";
  if (!results) {
    std::fprintf(stderr, "error: cannot append to %s\n", results_path.c_str());
    return 1;
  }
  std::printf("{%s}\n", summary.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
