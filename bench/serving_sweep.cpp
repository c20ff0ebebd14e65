// serving_sweep: throughput/latency sweep of the replicated serving pool.
//
// Sweeps pipeline stages x replicas x admission-queue depth on LeNet-5
// (T=8, cycle-accurate — the acceptance workload) and VGG-11 (T=3,
// fast path, re-lowered stages), and writes BENCH_pr5_serving.json.
//
// Two throughput numbers per configuration:
//   * images_per_sec        — modeled hardware fleet throughput:
//     replicas * clock / measured bottleneck-stage cycles. This is the
//     serving metric of the *deployment being simulated* (the paper's
//     accelerator at its configured clock), and what compiler::plan_serving
//     predicts; the sweep validates the prediction against measured cycles.
//   * wall_images_per_sec   — simulator wall-clock throughput on this host
//     (bounded by host cores, the microbench metric family).
// p50/p99 latencies are wall-clock admission-to-completion times through the
// admission queue (queueing + simulated service).
//
// Usage: serving_sweep [--json path] [--images N] [--skip-vgg]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "compiler/partition.hpp"
#include "engine/engine.hpp"
#include "engine/serving_pool.hpp"
#include "hw/arch.hpp"
#include "ir/layer_program.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace rsnn;

TensorF random_image(const Shape& shape, Rng& rng) {
  TensorF image(shape);
  for (std::int64_t i = 0; i < image.numel(); ++i)
    image.at_flat(i) = static_cast<float>(rng.next_double() * 0.999);
  return image;
}

struct SweepRecord {
  std::string name;
  std::string network;
  std::string engine;
  std::string policy;
  int stages = 0;
  int replicas = 0;
  std::size_t queue_depth = 0;
  std::int64_t images = 0;
  std::int64_t rejected = 0;
  std::int64_t bottleneck_cycles = 0;
  double images_per_sec = 0.0;       ///< modeled fleet throughput
  double predicted_images_per_sec = 0.0;  ///< plan_serving's forecast
  double wall_images_per_sec = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

/// Run one pool configuration over `codes` (after a warm-up pass) and
/// collect its record.
SweepRecord run_config(const ir::LayerProgram& program,
                       engine::EngineKind kind, const std::string& network,
                       int stages, int replicas, std::size_t queue_depth,
                       engine::AdmissionPolicy policy,
                       const std::vector<TensorI>& codes,
                       const compiler::PartitionOptions& partition_options) {
  engine::ServingPoolOptions options;
  options.replicas = replicas;
  options.queue_capacity = queue_depth;
  options.policy = policy;
  if (stages > 1)
    options.segments = compiler::partition_balance_latency(
        program, stages, partition_options);

  engine::ServingPool pool(program, kind, options);
  const std::vector<TensorI> warmup(
      codes.begin(),
      codes.begin() + std::min<std::size_t>(codes.size(),
                                            static_cast<std::size_t>(replicas)));
  pool.run_batch(warmup);
  pool.reset_stats();
  pool.run_batch(codes);
  const engine::ServingStats stats = pool.stats();

  // The planner's forecast for this exact shape, to validate prediction
  // against measurement.
  const auto candidates = compiler::enumerate_serving(
      program, stages * replicas, partition_options);
  double predicted = 0.0;
  for (const auto& candidate : candidates)
    if (candidate.stages == stages && candidate.replicas == replicas)
      predicted = candidate.predicted_images_per_sec;

  SweepRecord record;
  record.name = network + "_" + engine::engine_name(kind) + "_s" +
                std::to_string(stages) + "_r" + std::to_string(replicas) +
                "_q" + std::to_string(queue_depth) + "_" +
                engine::policy_name(policy);
  record.network = network;
  record.engine = engine::engine_name(kind);
  record.policy = engine::policy_name(policy);
  record.stages = stages;
  record.replicas = replicas;
  record.queue_depth = queue_depth;
  record.images = stats.completed;
  record.rejected = stats.rejected;
  record.bottleneck_cycles = stats.bottleneck_cycles;
  record.images_per_sec = stats.modeled_images_per_sec;
  record.predicted_images_per_sec = predicted;
  record.wall_images_per_sec = stats.wall_images_per_sec;
  record.p50_latency_ms = stats.p50_latency_ms;
  record.p99_latency_ms = stats.p99_latency_ms;
  std::printf(
      "%-44s %8.1f img/s modeled (%7.1f predicted) %7.1f img/s wall  "
      "p50 %7.2f ms  p99 %7.2f ms%s\n",
      record.name.c_str(), record.images_per_sec,
      record.predicted_images_per_sec, record.wall_images_per_sec,
      record.p50_latency_ms, record.p99_latency_ms,
      record.rejected > 0
          ? (" (" + std::to_string(record.rejected) + " shed)").c_str()
          : "");
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pr5_serving.json";
  int images = 32;
  bool skip_vgg = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
    else if (std::strcmp(argv[i], "--images") == 0 && i + 1 < argc)
      images = std::max(1, std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--skip-vgg") == 0)
      skip_vgg = true;
  }

  std::vector<SweepRecord> records;
  const compiler::PartitionOptions partition_options;  // re-lowered stages

  // LeNet-5 at T=8, cycle-accurate — the acceptance workload. The grid
  // crosses pipeline depth (1 = monolithic replicas), replication and
  // admission-queue depth under FIFO, then adds one batch-accumulate and
  // one reject-on-full configuration for the policy record.
  Rng rng(2025);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const auto lenet_qnet = quant::quantize(lenet, quant::QuantizeConfig{3, 8});
  const ir::LayerProgram lenet_program =
      ir::lower(lenet_qnet, hw::lenet_reference_config());
  std::vector<TensorI> lenet_codes;
  for (int i = 0; i < images; ++i)
    lenet_codes.push_back(quant::encode_activations(
        random_image(Shape{1, 32, 32}, rng), lenet_qnet.time_bits));

  for (const int stages : {1, 2})
    for (const int replicas : {1, 2, 4})
      for (const std::size_t queue_depth : {std::size_t{8}, std::size_t{32}})
        records.push_back(run_config(
            lenet_program, engine::EngineKind::kCycleAccurate, "lenet5_t8",
            stages, replicas, queue_depth, engine::AdmissionPolicy::kFifo,
            lenet_codes, partition_options));
  records.push_back(run_config(
      lenet_program, engine::EngineKind::kCycleAccurate, "lenet5_t8", 1, 2,
      32, engine::AdmissionPolicy::kBatch, lenet_codes, partition_options));
  records.push_back(run_config(
      lenet_program, engine::EngineKind::kCycleAccurate, "lenet5_t8", 1, 1, 4,
      engine::AdmissionPolicy::kReject, lenet_codes, partition_options));

  // VGG-11 at T=3, fast path, re-lowered stages — the at-scale data point.
  if (!skip_vgg) {
    Rng vrng(9);
    nn::Network vgg = nn::make_vgg11();
    vgg.init_params(vrng);
    const auto vgg_qnet = quant::quantize(vgg, quant::QuantizeConfig{3, 3});
    const ir::LayerProgram vgg_program =
        ir::lower(vgg_qnet, hw::vgg11_table3_config());
    std::vector<TensorI> vgg_codes;
    for (int i = 0; i < std::max(2, images / 10); ++i)
      vgg_codes.push_back(quant::encode_activations(
          random_image(Shape{3, 32, 32}, vrng), vgg_qnet.time_bits));
    for (const auto& [stages, replicas] :
         std::vector<std::pair<int, int>>{{1, 1}, {2, 1}, {2, 2}})
      records.push_back(run_config(
          vgg_program, engine::EngineKind::kCycleAccurate, "vgg11_t3", stages,
          replicas, 8, engine::AdmissionPolicy::kFifo, vgg_codes,
          partition_options));
  }

  // Acceptance summary: best replicated LeNet configuration vs the best
  // single-pipeline (replicas == 1) baseline, on modeled fleet throughput.
  double baseline = 0.0, best_replicated = 0.0;
  std::string baseline_name, best_name;
  for (const SweepRecord& record : records) {
    if (record.network != "lenet5_t8" || record.policy != "fifo") continue;
    if (record.replicas == 1 && record.images_per_sec > baseline) {
      baseline = record.images_per_sec;
      baseline_name = record.name;
    }
    if (record.replicas > 1 && record.images_per_sec > best_replicated) {
      best_replicated = record.images_per_sec;
      best_name = record.name;
    }
  }
  const double speedup = baseline > 0.0 ? best_replicated / baseline : 0.0;
  std::printf(
      "\nacceptance: best replicated %s (%.1f img/s) vs single-pipeline %s "
      "(%.1f img/s) -> %.2fx\n",
      best_name.c_str(), best_replicated, baseline_name.c_str(), baseline,
      speedup);

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "serving_sweep: cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark_set\": \"rsnn_serving_sweep\",\n");
  std::fprintf(out, "  \"unit\": \"images_per_sec (modeled fleet)\",\n");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SweepRecord& r = records[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"network\": \"%s\", \"engine\": \"%s\", "
        "\"policy\": \"%s\", \"stages\": %d, \"replicas\": %d, "
        "\"queue_depth\": %zu, \"images\": %lld, \"rejected\": %lld, "
        "\"bottleneck_cycles\": %lld, \"images_per_sec\": %.1f, "
        "\"predicted_images_per_sec\": %.1f, \"wall_images_per_sec\": %.1f, "
        "\"p50_latency_ms\": %.2f, \"p99_latency_ms\": %.2f}%s\n",
        r.name.c_str(), r.network.c_str(), r.engine.c_str(),
        r.policy.c_str(), r.stages, r.replicas, r.queue_depth,
        static_cast<long long>(r.images), static_cast<long long>(r.rejected),
        static_cast<long long>(r.bottleneck_cycles), r.images_per_sec,
        r.predicted_images_per_sec, r.wall_images_per_sec, r.p50_latency_ms,
        r.p99_latency_ms, i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"acceptance\": {\"baseline\": \"%s\", "
               "\"baseline_images_per_sec\": %.1f, \"best_replicated\": "
               "\"%s\", \"best_replicated_images_per_sec\": %.1f, "
               "\"speedup\": %.2f}\n}\n",
               baseline_name.c_str(), baseline, best_name.c_str(),
               best_replicated, speedup);
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
