// Microbenchmarks for the simulator's hot paths: radix encoding and the
// inference engines (the accelerator's fast path, single and batched, the
// stepped dataflow and the other engines). These track simulator
// performance, not paper results.
//
//   microbench --json <path> [--samples N] [--tiny] [--compare OLD.json]
//
// Self-contained chrono timing, written as machine-readable JSON
// (BENCH_*.json style) so successive changes can compare ns/inference. Each
// timed entry also records its cold (first) call apart and the p10/p50/p90
// of its warm per-call times, so a comparison can use medians instead of
// one mean. Needs only the standard library.
// --tiny restricts the run to the small-network entries — including a
// 2-segment stage-engine chain — plus radix encoding (seconds, not minutes
// — the CI bench-smoke tier). --compare reads a previous run's JSON, prints
// the per-entry speedup, and exits non-zero if any shared entry regressed by
// more than 10%. Without --json, microbench prints its usage and exits 1.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compiler/partition.hpp"
#include "encoding/radix.hpp"
#include "engine/engine.hpp"
#include "hw/accelerator.hpp"
#include "hw/conv_unit.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"

namespace {

using namespace rsnn;

TensorF random_image(const Shape& shape, Rng& rng) {
  TensorF image(shape);
  for (std::int64_t i = 0; i < image.numel(); ++i)
    image.at_flat(i) = static_cast<float>(rng.next_double() * 0.999);
  return image;
}

quant::QuantizedNetwork make_qnet(int T) {
  Rng rng(5);
  nn::Network net(Shape{1, 16, 16});
  net.add<nn::Conv2d>(nn::Conv2dConfig{1, 8, 3, 1, 0});
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
  net.add<nn::Pool2d>(nn::Pool2dConfig{2});
  net.add<nn::Flatten>();
  net.add<nn::Linear>(nn::LinearConfig{8 * 7 * 7, 10});
  net.init_params(rng);
  for (nn::Param* p : net.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  return quant::quantize(net, quant::QuantizeConfig{3, T});
}

quant::QuantizedNetwork make_lenet_qnet(int T) {
  Rng rng(6);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  for (nn::Param* p : lenet.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  return quant::quantize(lenet, quant::QuantizeConfig{3, T});
}

// ------------------------------------------------------------- JSON mode

/// Per-call wall-clock times of one entry, per inference: the first (cold)
/// call, the mean of the warm calls, and their p10/p50/p90.
struct CallTimes {
  double cold_ns = 0.0;
  double mean_ns = 0.0;
  double p10_ns = 0.0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
};

struct BenchResult {
  std::string name;
  double ns_per_inference = 0.0;  ///< mean of the warm calls
  int samples = 0;
  CallTimes calls;  ///< emitted when cold_ns > 0
};

/// A timed entry: `samples` warm calls after one cold call, each call
/// covering `per_call` inferences.
BenchResult timed_entry(std::string name, int samples, const CallTimes& calls) {
  BenchResult r;
  r.name = std::move(name);
  r.ns_per_inference = calls.mean_ns;
  r.samples = samples;
  r.calls = calls;
  return r;
}

// ------------------------------------------------------- host metadata
//
// Absolute ns/inference only means something relative to the machine that
// produced it. Every BENCH_*.json therefore records the host it ran on, and
// --compare refuses to stay silent when the baseline's host differs.

/// Approximate sustained clock in MHz, measured by timing a dependent-add
/// chain (1 add/cycle on every x86/ARM core this tool targets). Good to
/// ~10% — enough to tell a 2.1 GHz CI box from a 4.5 GHz laptop, which is
/// all the cross-host comparison warning needs.
double approx_clock_mhz() {
#if defined(__GNUC__) || defined(__clang__)
  constexpr std::uint64_t kIters = 64 * 1000 * 1000;
  double best_mhz = 0.0;
  for (int rep = 0; rep < 3; ++rep) {  // best-of-3 rides out scheduler noise
    std::uint64_t acc = 1;
    const auto begin = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      acc += i;
      // Empty barrier: without it the whole chain folds to a closed-form
      // sum and the "loop" finishes in microseconds.
      asm volatile("" : "+r"(acc));
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
    if (ns > 0.0) best_mhz = std::max(best_mhz, kIters * 1e3 / ns);
  }
  return best_mhz;
#else
  return 0.0;  // unknown — the cross-host comparison skips the clock check
#endif
}

struct HostInfo {
  unsigned cores = 0;  ///< std::thread::hardware_concurrency()
  std::string simd_active;
  double clock_mhz_approx = 0.0;
};

HostInfo current_host() {
  HostInfo host;
  host.cores = std::thread::hardware_concurrency();
  host.simd_active = common::simd::active_isa();
  host.clock_mhz_approx = approx_clock_mhz();
  return host;
}

/// Times one cold call of `fn` (it pages in weights and sizes scratch),
/// then `samples` warm calls one by one; every time is divided by
/// `per_call`, the inferences one call performs.
template <typename Fn>
CallTimes time_calls(int samples, Fn&& fn, double per_call = 1.0) {
  const auto elapsed_ns = [&fn] {
    const auto begin = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
  };
  CallTimes t;
  t.cold_ns = elapsed_ns() / per_call;
  std::vector<double> warm(static_cast<std::size_t>(samples));
  double total = 0.0;
  for (double& ns : warm) {
    ns = elapsed_ns() / per_call;
    total += ns;
  }
  t.mean_ns = total / samples;
  std::sort(warm.begin(), warm.end());
  const auto pick = [&warm](double q) {
    const double rank = q * static_cast<double>(warm.size() - 1);
    return warm[static_cast<std::size_t>(rank + 0.5)];
  };
  t.p10_ns = pick(0.1);
  t.p50_ns = pick(0.5);
  t.p90_ns = pick(0.9);
  return t;
}

/// Parse the (name, ns_per_inference) pairs out of a microbench JSON file.
/// Only understands the format run_json_mode() writes — that is the point:
/// the baseline being compared against is a previous run of this tool.
std::vector<std::pair<std::string, double>> parse_bench_json(
    const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return {};
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, in)) > 0;)
    text.append(buf, n);
  std::fclose(in);

  std::vector<std::pair<std::string, double>> entries;
  const std::string name_key = "\"name\": \"";
  const std::string ns_key = "\"ns_per_inference\": ";
  std::size_t pos = 0;
  while ((pos = text.find(name_key, pos)) != std::string::npos) {
    pos += name_key.size();
    const std::size_t name_end = text.find('"', pos);
    if (name_end == std::string::npos) break;
    const std::string name = text.substr(pos, name_end - pos);
    const std::size_t ns_pos = text.find(ns_key, name_end);
    if (ns_pos == std::string::npos) break;
    entries.emplace_back(name,
                         std::strtod(text.c_str() + ns_pos + ns_key.size(),
                                     nullptr));
    pos = ns_pos;
  }
  return entries;
}

/// Parse the "host" object out of a microbench JSON file written by
/// run_json_mode(). Fields stay zero/empty when absent (pre-PR-9 baselines
/// carry no host block — treated as "unknown host", which warns).
HostInfo parse_baseline_host(const std::string& path) {
  HostInfo host;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return host;
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, in)) > 0;)
    text.append(buf, n);
  std::fclose(in);

  const auto find_num = [&](const char* key) -> double {
    const std::size_t pos = text.find(key);
    if (pos == std::string::npos) return 0.0;
    return std::strtod(text.c_str() + pos + std::strlen(key), nullptr);
  };
  host.cores = static_cast<unsigned>(find_num("\"hardware_concurrency\": "));
  host.clock_mhz_approx = find_num("\"clock_mhz_approx\": ");
  const std::string simd_key = "\"simd_active\": \"";
  const std::size_t simd_pos = text.find(simd_key);
  if (simd_pos != std::string::npos) {
    const std::size_t begin = simd_pos + simd_key.size();
    const std::size_t end = text.find('"', begin);
    if (end != std::string::npos)
      host.simd_active = text.substr(begin, end - begin);
  }
  return host;
}

/// Loudly flag a baseline produced on a different machine: the per-entry
/// speedups below are then hardware deltas, not code deltas. Warns only —
/// the pass/fail gate is unchanged (CI regenerates its comparison point on
/// the same runner, so a mismatch there means the committed baseline needs
/// re-baselining, which the regression check will surface on its own).
void warn_if_host_differs(const HostInfo& baseline, const HostInfo& now) {
  std::vector<std::string> diffs;
  if (baseline.cores == 0 && baseline.simd_active.empty())
    diffs.push_back("baseline records no host metadata (pre-PR-9 file?)");
  if (baseline.cores != 0 && baseline.cores != now.cores)
    diffs.push_back("cores: baseline " + std::to_string(baseline.cores) +
                    " vs " + std::to_string(now.cores) + " here");
  if (!baseline.simd_active.empty() &&
      baseline.simd_active != now.simd_active)
    diffs.push_back("SIMD: baseline " + baseline.simd_active + " vs " +
                    now.simd_active + " here");
  // The clock estimate is ~10% noise on its own, so only a >25% gap counts
  // as "a different machine" rather than turbo/thermal wander.
  if (baseline.clock_mhz_approx > 0.0 && now.clock_mhz_approx > 0.0) {
    const double ratio = baseline.clock_mhz_approx / now.clock_mhz_approx;
    if (ratio > 1.25 || ratio < 0.8)
      diffs.push_back(
          "clock: baseline ~" +
          std::to_string(static_cast<int>(baseline.clock_mhz_approx)) +
          " MHz vs ~" +
          std::to_string(static_cast<int>(now.clock_mhz_approx)) +
          " MHz here");
  }
  if (diffs.empty()) return;
  std::fprintf(stderr,
               "\n"
               "  ********************************************************\n"
               "  *  WARNING: baseline comes from a DIFFERENT HOST.      *\n"
               "  *  Absolute ns and speedups below compare hardware,    *\n"
               "  *  not code. Re-baseline on this machine before        *\n"
               "  *  trusting them.                                      *\n"
               "  ********************************************************\n");
  for (const std::string& d : diffs)
    std::fprintf(stderr, "  *  %s\n", d.c_str());
  std::fprintf(stderr, "\n");
}

/// Print per-entry speedup vs a previous run and flag >10% regressions.
/// Returns non-zero if any entry shared with the baseline got slower than
/// the threshold allows.
int compare_against(const std::string& baseline_path,
                    const std::vector<BenchResult>& results,
                    const HostInfo& host) {
  const auto baseline = parse_bench_json(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "microbench: no entries parsed from %s\n",
                 baseline_path.c_str());
    return 1;
  }
  warn_if_host_differs(parse_baseline_host(baseline_path), host);
  constexpr double kRegressionThreshold = 1.10;
  int regressions = 0, shared = 0;
  std::printf("\ncomparison vs %s (speedup = old/new)\n",
              baseline_path.c_str());
  for (const BenchResult& r : results) {
    const auto it =
        std::find_if(baseline.begin(), baseline.end(),
                     [&](const auto& e) { return e.first == r.name; });
    if (it == baseline.end()) {
      std::printf("  %-40s %14.1f ns  (new entry, no baseline)\n",
                  r.name.c_str(), r.ns_per_inference);
      continue;
    }
    ++shared;
    const double speedup = it->second / r.ns_per_inference;
    const bool regressed =
        r.ns_per_inference > it->second * kRegressionThreshold;
    std::printf("  %-40s %14.1f -> %12.1f ns   %5.2fx%s\n", r.name.c_str(),
                it->second, r.ns_per_inference, speedup,
                regressed ? "  REGRESSION" : "");
    if (regressed) ++regressions;
  }
  if (shared == 0) {
    std::fprintf(stderr,
                 "microbench: no entries shared with the baseline\n");
    return 1;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "microbench: %d entr%s regressed by more than %.0f%%\n",
                 regressions, regressions == 1 ? "y" : "ies",
                 (kRegressionThreshold - 1.0) * 100.0);
    return 1;
  }
  std::printf("  no entry regressed by more than %.0f%%\n",
              (kRegressionThreshold - 1.0) * 100.0);
  return 0;
}

int run_json_mode(const std::string& path, int samples, bool tiny,
                  const std::string& compare_path) {
  std::vector<BenchResult> results;
  Rng rng(4);

  // The acceptance workload: LeNet-5 at T=8 on the paper's reference
  // configuration, fast path and stepped. Skipped by --tiny.
  if (!tiny) {
    const auto qnet = make_lenet_qnet(8);
    hw::Accelerator accel(hw::lenet_reference_config(), qnet);
    const TensorF image = random_image(Shape{1, 32, 32}, rng);
    const TensorI codes = quant::encode_activations(image, 8);
    // 32 distinct images: the batch entry runs them all in one call, and the
    // fast-path single-image entries run them one per call in turn, so
    // single and batch compare the same inputs (re-running one image lets
    // the branch predictors learn it).
    Rng brng(11);
    std::vector<TensorI> batch32;
    for (int i = 0; i < 32; ++i)
      batch32.push_back(quant::encode_activations(
          random_image(Shape{1, 32, 32}, brng), 8));
    std::size_t next = 0;
    const auto next_image = [&]() -> const TensorI& {
      return batch32[next++ % batch32.size()];
    };
    results.push_back(timed_entry("cycle_accurate_lenet_t8", samples,
                                  time_calls(samples, [&] {
                                    auto r = accel.run_codes(
                                        next_image(),
                                        hw::SimMode::kCycleAccurate);
                                    (void)r;
                                  })));
    // The golden stepped dataflow the fast path is checked against — kept
    // as its own entry so the fast-path speedup stays visible over time.
    const int stepped_samples = std::max(1, samples / 4);
    results.push_back(timed_entry(
        "stepped_lenet_t8", stepped_samples,
        time_calls(stepped_samples, [&] {
          auto r = accel.run_codes(codes, hw::SimMode::kStepped);
          (void)r;
        })));

    // The cycle_accurate engine's warm serving path: pre-allocated worker
    // state, result storage reused across calls — what a ServingPool
    // replica pays per inference once the pool is warm.
    {
      auto eng = engine::make_engine(engine::EngineKind::kCycleAccurate,
                                     accel.program());
      hw::AccelRunResult reused;
      eng->run_codes_into(codes, reused);  // size every scratch buffer
      results.push_back(timed_entry(
          "warm_engine_cycle_accurate_lenet_t8", samples,
          time_calls(samples,
                     [&] { eng->run_codes_into(next_image(), reused); })));
    }

    // The single-state batched kernel: the 32 images through one
    // prepared-weight traversal per op (run_codes_batched_into), reported
    // per inference.
    {
      hw::Accelerator::WorkerState state = accel.make_worker_state();
      std::vector<hw::AccelRunResult> out(batch32.size());
      const int batch_samples = std::max(1, samples / 4);
      results.push_back(timed_entry(
          "batch32_cycle_accurate_lenet_t8", batch_samples,
          time_calls(
              batch_samples,
              [&] {
                accel.run_codes_batched_into(state, batch32.data(),
                                             batch32.size(), out.data());
              },
              static_cast<double>(batch32.size()))));
    }

    // The other two engines over the same lowered program.
    const ir::LayerProgram& program = accel.program();
    for (const auto kind : {engine::EngineKind::kBehavioral,
                            engine::EngineKind::kReference}) {
      auto eng = engine::make_engine(kind, program);
      results.push_back(timed_entry(std::string(eng->name()) + "_lenet_t8",
                                    samples, time_calls(samples, [&] {
                                      auto r = eng->run_codes(codes);
                                      (void)r;
                                    })));
    }
  }

  // VGG-11 at T=3 on its Table III configuration (DRAM-streamed weights):
  // 8 distinct images, one per call in turn, and all 8 through one
  // prepared-weight traversal per op, reported per inference. The weights
  // are scaled by 2 after init, as bench/e2e's VGG model is, so activations
  // stay live through the deep layers instead of dying out.
  if (!tiny) {
    Rng vrng(8);
    nn::Network vgg = nn::make_vgg11();
    vgg.init_params(vrng);
    for (nn::Param* p : vgg.params())
      for (std::int64_t i = 0; i < p->value.numel(); ++i)
        p->value.at_flat(i) *= 2.0f;
    const auto qnet = quant::quantize(vgg, quant::QuantizeConfig{3, 3});
    hw::Accelerator accel(hw::vgg11_table3_config(), qnet);
    std::vector<TensorI> batch8;
    for (int i = 0; i < 8; ++i)
      batch8.push_back(quant::encode_activations(
          random_image(Shape{3, 32, 32}, vrng), qnet.time_bits));
    hw::Accelerator::WorkerState state = accel.make_worker_state();
    std::vector<hw::AccelRunResult> out(batch8.size());
    const int vgg_samples = std::max(3, samples / 2);
    std::size_t next = 0;
    results.push_back(timed_entry(
        "cycle_accurate_vgg11_t3", vgg_samples,
        time_calls(vgg_samples, [&] {
          accel.run_codes_batched_into(state, &batch8[next++ % batch8.size()],
                                       1, out.data());
        })));
    const int batch_samples = std::max(3, samples / 8);
    results.push_back(timed_entry(
        "batch8_cycle_accurate_vgg11_t3", batch_samples,
        time_calls(
            batch_samples,
            [&] {
              accel.run_codes_batched_into(state, batch8.data(),
                                           batch8.size(), out.data());
            },
            static_cast<double>(batch8.size()))));
  }

  // The small network at T=4 (historic tracking point), plus the same image
  // through 2 latency-balanced stage engines chained on one thread, so
  // --tiny exercises both execution paths: the whole program and
  // mid-program entry.
  {
    const auto qnet = make_qnet(4);
    hw::AcceleratorConfig cfg;
    cfg.num_conv_units = 2;
    cfg.conv = hw::ConvUnitGeometry{16, 3, 24};
    cfg.pool = hw::PoolUnitGeometry{8, 2, 16};
    cfg.linear = hw::LinearUnitGeometry{8, 24};
    hw::Accelerator accel(cfg, qnet);
    const TensorF image = random_image(Shape{1, 16, 16}, rng);
    const TensorI codes = quant::encode_activations(image, 4);
    results.push_back(timed_entry("cycle_accurate_small_t4", samples * 4,
                                  time_calls(samples * 4, [&] {
                                    auto r = accel.run_codes(
                                        codes, hw::SimMode::kCycleAccurate);
                                    (void)r;
                                  })));

    const auto stages = engine::make_stage_engines(
        engine::EngineKind::kCycleAccurate, accel.program(),
        compiler::partition_balance_latency(accel.program(), 2));
    results.push_back(timed_entry("chain2segment_cycle_accurate_small_t4",
                                  samples * 4,
                                  time_calls(samples * 4, [&] {
                                    auto r = engine::run_stages(stages, codes);
                                    (void)r;
                                  })));
  }

  // Radix encoding throughput.
  {
    const TensorF image = random_image(Shape{1, 32, 32}, rng);
    results.push_back(timed_entry("radix_encode_32x32_t6", samples * 16,
                                  time_calls(samples * 16, [&] {
                                    auto t = encoding::radix_encode(image, 6);
                                    (void)t;
                                  })));
  }

  const HostInfo host = current_host();

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "microbench: cannot open %s for writing\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark_set\": \"rsnn_microbench\",\n");
  std::fprintf(out, "  \"unit\": \"ns_per_inference\",\n");
  std::fprintf(out, "  \"threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"simd\": {\"detected\": \"%s\", \"active\": \"%s\"},\n",
               common::simd::detected_isa(), common::simd::active_isa());
  std::fprintf(out,
               "  \"host\": {\"cores\": %u, \"hardware_concurrency\": %u, "
               "\"simd_active\": \"%s\", \"clock_mhz_approx\": %.0f},\n",
               host.cores, host.cores, host.simd_active.c_str(),
               host.clock_mhz_approx);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ns_per_inference\": %.1f, "
                 "\"samples\": %d",
                 results[i].name.c_str(), results[i].ns_per_inference,
                 results[i].samples);
    const CallTimes& t = results[i].calls;
    if (t.cold_ns > 0.0)
      std::fprintf(out,
                   ", \"cold_ns\": %.1f, \"p10_ns\": %.1f, \"p50_ns\": %.1f, "
                   "\"p90_ns\": %.1f",
                   t.cold_ns, t.p10_ns, t.p50_ns, t.p90_ns);
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  for (const BenchResult& r : results) {
    std::printf("%-40s %14.1f ns/inference", r.name.c_str(),
                r.ns_per_inference);
    if (r.calls.cold_ns > 0.0)
      std::printf("  (p50 %.1f, cold %.1f)", r.calls.p50_ns, r.calls.cold_ns);
    std::printf("\n");
  }
  std::printf("wrote %s\n", path.c_str());
  if (!compare_path.empty())
    return compare_against(compare_path, results, host);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string compare_path;
  int samples = 20;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc)
      samples = std::max(1, std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--tiny") == 0)
      tiny = true;
    else if (std::strcmp(argv[i], "--compare") == 0 && i + 1 < argc)
      compare_path = argv[++i];
  }
  if (!json_path.empty())
    return run_json_mode(json_path, samples, tiny, compare_path);
  std::fprintf(stderr,
               "usage: microbench --json <path> [--samples N] [--tiny] "
               "[--compare OLD.json]\n");
  return 1;
}
