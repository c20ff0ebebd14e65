// --compare: judge a set of runs against a base set under BENCHMARK.json's
// bounds. One row per (workload, end-to-end metric):
//   better / worse  the medians differ by more than the bound
//   same            they differ by no more than the bound
//   unresolved      either side's run-to-run spread (quartile distance over
//                   median) exceeds the bound, unless every new run beats
//                   every base run
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "json.hpp"
#include "loadgen.hpp"
#include "runs.hpp"

namespace rsnn::e2e {
namespace {

struct RunSet {
  /// workload -> metric -> one value per run
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::string host;          ///< cores and SIMD ISA of the first run
  std::vector<double> clock_mhz;  ///< approximate clock of every run
};

std::string read_runs(const std::string& path, RunSet* out) {
  std::string text;
  if (!read_file(path, &text)) return "cannot read " + path;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    Json record;
    const std::string error = parse_json(line, &record);
    if (!error.empty()) return path + ": " + error;
    const Json* trace = record.find("trace");
    const Json* workload = record.find("workload");
    const Json* metrics = record.find("metrics");
    if (trace == nullptr || workload == nullptr || metrics == nullptr)
      return path + ": not a results record";
    if (trace->number != 0.0) continue;  // per-layer runs carry no bounds
    for (const auto& [name, metric] : metrics->members)
      if (const Json* value = metric.find("value"))
        out->values[workload->text][name].push_back(value->number);
    if (const Json* host = record.find("host")) {
      const Json* cores = host->find("cores");
      const Json* simd = host->find("simd");
      const Json* clock = host->find("clock_mhz_approx");
      if (cores && simd && out->host.empty())
        out->host = std::to_string(static_cast<int>(cores->number)) +
                    " cores, " + simd->text;
      if (clock) out->clock_mhz.push_back(clock->number);
    }
  }
  if (out->values.empty()) return path + ": no untraced runs";
  return {};
}

/// Quartile distance over median, with the quartiles Python's
/// statistics.quantiles(values, n=4) gives (its default exclusive method).
double relative_spread(std::vector<double> values) {
  const std::size_t count = values.size();
  if (count < 2) return 0.0;
  std::sort(values.begin(), values.end());
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = count + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, count - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  const double mid = median(values);
  return mid != 0.0 ? (quartile(3) - quartile(1)) / std::abs(mid) : 0.0;
}

}  // namespace

int compare_results(const std::string& benchmark_json,
                    const std::string& base_path, const std::string& new_path) {
  std::string text;
  Json bench;
  if (!read_file(benchmark_json, &text) || !parse_json(text, &bench).empty() ||
      bench.find("end_to_end") == nullptr) {
    std::fprintf(stderr, "compare: cannot read %s\n", benchmark_json.c_str());
    return 2;
  }
  RunSet base, fresh;
  for (const auto& [path, set] :
       {std::pair{&base_path, &base}, std::pair{&new_path, &fresh}}) {
    const std::string error = read_runs(*path, set);
    if (!error.empty()) {
      std::fprintf(stderr, "compare: %s\n", error.c_str());
      return 2;
    }
  }
  // The clock estimate moves with host load, so only cores and ISA decide
  // whether the sets came from different machines.
  std::printf("base: %s (%s, ~%.0f MHz)\nnew:  %s (%s, ~%.0f MHz)\n",
              base_path.c_str(), base.host.c_str(), median(base.clock_mhz),
              new_path.c_str(), fresh.host.c_str(), median(fresh.clock_mhz));
  if (base.host != fresh.host)
    std::printf("WARNING: the two sets ran on different hosts\n");
  std::printf("%-14s %-15s %5s %12s %12s %8s %7s %6s  %s\n", "workload",
              "metric", "runs", "base", "new", "change", "spread", "bound",
              "verdict");

  int worse = 0;
  for (const Workload& workload : workloads()) {
    const auto b = base.values.find(workload.name);
    const auto n = fresh.values.find(workload.name);
    if (b == base.values.end() || n == fresh.values.end()) continue;
    for (const Json& entry : bench.find("end_to_end")->items) {
      const std::string& name = entry.find("name")->text;
      const bool lower = entry.find("better")->text == "lower";
      const double bound = entry.find("bound")->number;
      const auto bv = b->second.find(name);
      const auto nv = n->second.find(name);
      if (bv == b->second.end() || nv == n->second.end()) {
        std::printf("%-14s %-15s missing\n", workload.name, name.c_str());
        continue;
      }
      const double base_mid = median(bv->second);
      const double new_mid = median(nv->second);
      const double change =
          base_mid != 0.0 ? (new_mid - base_mid) / std::abs(base_mid) : 0.0;
      const double worse_by = lower ? change : -change;
      const double spread = std::max(relative_spread(bv->second),
                                     relative_spread(nv->second));
      const char* verdict = "same";
      if (spread > bound) {
        const auto [bmin, bmax] =
            std::minmax_element(bv->second.begin(), bv->second.end());
        const auto [nmin, nmax] =
            std::minmax_element(nv->second.begin(), nv->second.end());
        const bool all_better = lower ? *nmax < *bmin : *nmin > *bmax;
        verdict = all_better ? "better" : "unresolved";
      } else if (worse_by > bound) {
        verdict = "worse";
        ++worse;
      } else if (worse_by < -bound) {
        verdict = "better";
      }
      std::printf("%-14s %-15s %2zu/%-2zu %12.6g %12.6g %+7.1f%% %6.1f%% "
                  "%5.0f%%  %s\n",
                  workload.name, name.c_str(), bv->second.size(),
                  nv->second.size(), base_mid, new_mid, change * 100.0,
                  spread * 100.0, bound * 100.0, verdict);
    }
  }
  if (worse > 0) {
    std::printf("%d (workload, metric) pair%s got worse\n", worse,
                worse == 1 ? "" : "s");
    return 1;
  }
  std::printf("no (workload, metric) pair got worse beyond its bound\n");
  return 0;
}

}  // namespace rsnn::e2e
