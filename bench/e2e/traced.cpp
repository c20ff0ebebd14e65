// The traced run: per-layer metrics, each timed or counted from outside at a
// public call into its layer, on the workload's own inputs and arrival
// schedule.
//
//   serve     wire traffic to one rsnn_serve child, first untraced and then
//             with spans around encode / round trip / decode; Metrics round
//             trips; InferRequest/InferReply codec cost and sizes.
//   engine    the same schedule replayed in process through
//             serve::ModelRegistry::submit with the daemon's pool flags;
//             Engine::run_codes_into and run_codes_batched_into service time.
//   hw        Accelerator::run_codes_range on one op at a time, for LeNet
//             and VGG alike so every workload reports every metric.
//   compiler, quant
//             load_quantized, compile and the first fast_prepared_shared().
//
// Trace overhead is the traced minus the untraced wire p50 on the same
// schedule.
#include <initializer_list>
#include <memory>
#include <stdexcept>

#include "common/flags.hpp"
#include "compiler/compile.hpp"
#include "engine/engine.hpp"
#include "hw/accelerator.hpp"
#include "quant/qserialize.hpp"
#include "runs.hpp"
#include "serve/registry.hpp"
#include "serve/serve_flags.hpp"

namespace rsnn::e2e {
namespace {

constexpr double kWarmupSeconds = 0.5;
constexpr int kWindows = 5;
constexpr int kMetricsCalls = 20;
constexpr int kLoadRepeats = 3;
constexpr int kCodecRepeats = 200;

// Purposes for derive_seed, distinct from the other runs' ones.
constexpr std::uint64_t kOtherModelSeed = 20;
constexpr std::uint64_t kOtherInputSeed = 21;
constexpr std::uint64_t kWarmupTraffic = 22;
constexpr std::uint64_t kReplayTraffic = 23;

double elapsed_ms(Clock::time_point since) {
  return ms_between(since, Clock::now());
}

/// Layer profile of one model on `inputs`.
void profile_model(ModelKind kind, const std::string& path,
                   const std::vector<TensorI>& inputs, Tracer* tracer,
                   std::vector<Metric>* out) {
  const std::string name = model_name(kind);
  const std::string load_span = "quant." + name + ".load";
  const std::string compile_span = "compiler." + name + ".compile";
  const std::string prepare_span = "hw." + name + ".prepare";
  std::vector<double> load_ms, compile_ms, prepare_ms;
  std::unique_ptr<quant::QuantizedNetwork> qnet;
  std::unique_ptr<compiler::CompiledDesign> design;
  std::unique_ptr<hw::Accelerator> accel;
  for (int rep = 0; rep < kLoadRepeats; ++rep) {
    // Release the previous pack first so every repeat builds its own.
    accel.reset();
    design.reset();
    qnet.reset();
    Clock::time_point start = Clock::now();
    {
      const ScopedSpan span(tracer, load_span.c_str());
      qnet = std::make_unique<quant::QuantizedNetwork>(
          quant::load_quantized(path));
    }
    load_ms.push_back(elapsed_ms(start));
    start = Clock::now();
    {
      const ScopedSpan span(tracer, compile_span.c_str());
      design = std::make_unique<compiler::CompiledDesign>(
          compiler::compile(*qnet, compiler::CompileOptions{}));
    }
    compile_ms.push_back(elapsed_ms(start));
    start = Clock::now();
    {
      const ScopedSpan span(tracer, prepare_span.c_str());
      accel = std::make_unique<hw::Accelerator>(design->program);
      accel->fast_prepared_shared();
    }
    prepare_ms.push_back(elapsed_ms(start));
  }

  const std::size_t ops = accel->program().size();
  if (ops != model_ops(kind))
    throw std::runtime_error(name + " lowers to " + std::to_string(ops) +
                             " ops, BENCHMARK.json expects " +
                             std::to_string(model_ops(kind)));
  std::vector<std::string> op_spans;
  for (std::size_t k = 0; k < ops; ++k)
    op_spans.push_back("hw." + name + ".op" + std::to_string(k));
  const std::string run_span = "hw." + name + ".run";

  hw::Accelerator::WorkerState state = accel->make_worker_state();
  std::vector<std::vector<double>> op_us(ops);
  std::vector<double> op_adds(ops, 0.0);
  double weight_bits = 0.0;
  double cycles = 0.0;
  // Pass 0 warms the worker state and is not recorded.
  for (std::size_t pass = 0; pass <= inputs.size(); ++pass) {
    const std::size_t input = pass == 0 ? 0 : pass - 1;
    const bool record = pass > 0;
    const ScopedSpan image(record ? tracer : nullptr, run_span.c_str(), 0,
                         static_cast<std::int64_t>(input));
    TensorI codes = inputs[input];
    for (std::size_t k = 0; k < ops; ++k) {
      TensorI boundary;
      const Clock::time_point start = Clock::now();
      hw::AccelRunResult result;
      {
        const ScopedSpan span(record ? tracer : nullptr, op_spans[k].c_str(),
                              image.id(), static_cast<std::int64_t>(input));
        result = accel->run_codes_range(state, codes, k, k + 1,
                                        hw::SimMode::kAnalytic,
                                        k + 1 < ops ? &boundary : nullptr);
      }
      if (!record) {
        codes = std::move(boundary);
        continue;
      }
      op_us[k].push_back(elapsed_ms(start) * 1000.0);
      op_adds[k] += static_cast<double>(result.total_adder_ops);
      if (pass == 1) {
        weight_bits +=
            static_cast<double>(result.traffic_total.weight_read_bits);
        cycles += static_cast<double>(result.total_cycles);
      }
      codes = std::move(boundary);
    }
  }

  double total_us = 0.0;
  double total_adds = 0.0;
  const double n = static_cast<double>(inputs.size());
  for (std::size_t k = 0; k < ops; ++k) {
    const double us = median(op_us[k]);
    total_us += us;
    total_adds += op_adds[k] / n;
    out->push_back({op_spans[k] + ".host_us", us, "us"});
    // A flatten op moves activations between buffers and never adds.
    if (accel->program().op(k).kind != ir::OpKind::kFlatten)
      out->push_back({op_spans[k] + ".adder_ops", op_adds[k] / n, "count"});
  }
  out->push_back({"hw." + name + ".ns_per_adder_op",
                  total_adds > 0.0 ? total_us * 1000.0 / total_adds : 0.0,
                  "ns"});
  out->push_back({"hw." + name + ".weight_bits", weight_bits, "bits"});
  out->push_back({"hw." + name + ".modeled_cycles", cycles, "cycles"});
  out->push_back({"hw." + name + ".prepare_ms", median(prepare_ms), "ms"});
  out->push_back({"quant." + name + ".load_ms", median(load_ms), "ms"});
  out->push_back(
      {"compiler." + name + ".compile_ms", median(compile_ms), "ms"});
}

}  // namespace

RunOutcome run_traced(WorkloadRun& run, double seconds,
                      const std::string& trace_path) {
  RunOutcome out;
  Tracer tracer;
  const Workload& workload = run.workload();
  const double phase_s = seconds / 3.0;
  std::vector<Metric>& metrics = out.metrics;

  // --- serve: wire traffic, untraced then traced, on one schedule.
  Daemon daemon;
  double setup_s = 0.0;
  out.error = run.start_daemon(daemon, &setup_s);
  if (!out.error.empty()) return out;
  std::vector<serve::Client> clients;
  out.error = run.connect(daemon.port(), &clients);
  if (!out.error.empty()) return out;
  const std::vector<Sample> warmup =
      run_traffic(run.traffic(kWarmupSeconds, kWarmupTraffic),
                  run.wire_infer(clients, nullptr));
  const std::vector<Sample> untraced =
      run_traffic(run.traffic(phase_s, kReplayTraffic),
                  run.wire_infer(clients, nullptr));
  const std::vector<Sample> traced =
      run_traffic(run.traffic(phase_s, kReplayTraffic),
                  run.wire_infer(clients, &tracer));
  std::vector<double> metrics_ms;
  serve::MetricsReply stats;
  for (int i = 0; i < kMetricsCalls; ++i) {
    const Clock::time_point start = Clock::now();
    std::string error;
    {
      const ScopedSpan span(&tracer, "serve.metrics");
      error = clients.front().metrics(run.model_id(), &stats);
    }
    metrics_ms.push_back(elapsed_ms(start));
    run.count_request(error.empty() && stats.models.size() == 1);
  }
  clients.clear();
  out.error = daemon.stop();
  if (!out.error.empty()) return out;

  // --- engine: the same schedule through an in-process registry.
  serve::RegistryOptions options;
  flags::FlagSet pool_flags(serve::serving_pool_flags());
  out.error = pool_flags.parse(workload.pool_flags);
  if (out.error.empty())
    out.error = serve::pool_options_from_flags(pool_flags, &options.pool);
  if (!out.error.empty()) return out;
  std::vector<double> load_ms;
  std::vector<Sample> replay;
  {
    serve::ModelRegistry registry(options);
    for (int i = 0; i < kLoadRepeats; ++i) {
      const Clock::time_point start = Clock::now();
      {
        const ScopedSpan span(&tracer, "serve.load_model");
        out.error = registry.load_model(run.model_id(),
                                        run.model_path());
      }
      load_ms.push_back(elapsed_ms(start));
      if (!out.error.empty()) return out;
    }
    Tracer* replay_tracer = nullptr;
    const InferFn in_process = [&](int, std::size_t input, bool bulk,
                                   std::int64_t id) {
      const ScopedSpan call(replay_tracer, "engine.registry", 0, id);
      engine::Request request;
      request.model_id = run.model_id();
      request.codes = run.inputs()[input];
      if (bulk) request.options.priority = engine::PriorityClass::kBulk;
      std::future<engine::ServingResult> future;
      {
        const ScopedSpan span(replay_tracer, "engine.admit", call.id(), id);
        future = registry.submit(std::move(request));
      }
      const engine::ServingResult result = future.get();
      return result.status == engine::RequestStatus::kOk &&
             run.matches(input, result.result.logits,
                             result.result.total_cycles,
                             result.result.latency_us);
    };
    const std::vector<Sample> replay_warmup = run_traffic(
        run.traffic(kWarmupSeconds, kWarmupTraffic), in_process);
    replay_tracer = &tracer;
    replay = run_traffic(run.traffic(phase_s, kReplayTraffic), in_process);
    for (const Sample& s : replay_warmup) run.count_request(s.ok);
  }

  // --- engine: service time of one image and of a 4-image batch.
  const quant::QuantizedNetwork qnet =
      quant::load_quantized(run.model_path());
  const compiler::CompiledDesign design =
      compiler::compile(qnet, compiler::CompileOptions{});
  const auto service_engine =
      engine::make_engine(options.kind, design.program);
  const std::vector<TensorI>& inputs = run.inputs();
  std::vector<double> service_us, batch4_us;
  hw::AccelRunResult result;
  std::vector<hw::AccelRunResult> batch(4);
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Clock::time_point start = Clock::now();
      {
        const ScopedSpan span(pass ? &tracer : nullptr, "engine.service", 0,
                              static_cast<std::int64_t>(i));
        service_engine->run_codes_into(inputs[i], result);
      }
      if (pass) service_us.push_back(elapsed_ms(start) * 1000.0);
      run.count_request(run.matches(i, result.logits,
                                            result.total_cycles,
                                            result.latency_us));
    }
    for (std::size_t i = 0; i + 4 <= inputs.size(); i += 4) {
      const Clock::time_point start = Clock::now();
      {
        const ScopedSpan span(pass ? &tracer : nullptr, "engine.batch4", 0,
                              static_cast<std::int64_t>(i));
        service_engine->run_codes_batched_into(&inputs[i], 4, batch.data());
      }
      if (pass) batch4_us.push_back(elapsed_ms(start) * 1000.0 / 4.0);
      for (std::size_t b = 0; b < 4; ++b)
        run.count_request(run.matches(i + b, batch[b].logits,
                                              batch[b].total_cycles,
                                              batch[b].latency_us));
    }
  }

  // --- serve: codec cost and frame sizes of one request and its reply.
  const serve::InferRequest& request = run.request(0, false);
  serve::InferReply reply;
  reply.status = engine::RequestStatus::kOk;
  reply.logits = run.golden()[0].logits;
  reply.total_cycles = run.golden()[0].total_cycles;
  reply.latency_us = run.golden()[0].latency_us;
  reply.attempts = 1;
  reply.replica = 0;
  std::vector<double> codec_us;
  for (int i = 0; i < kCodecRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    serve::InferRequest request_out;
    serve::InferReply reply_out;
    const bool ok =
        serve::decode(serve::encode(request), &request_out).empty() &&
        serve::decode(serve::encode(reply), &reply_out).empty();
    codec_us.push_back(elapsed_ms(start) * 1000.0);
    if (!ok) {
      out.error = "codec round trip failed";
      return out;
    }
  }

  const PhaseMetrics wire = summarize(untraced, phase_s, kWindows);
  const PhaseMetrics wire_traced = summarize(traced, phase_s, kWindows);
  const PhaseMetrics registry = summarize(replay, phase_s, kWindows);
  const double service = median(service_us);
  metrics.push_back({"serve.infer_req_bytes",
                     static_cast<double>(serve::encode(request).size()),
                     "bytes"});
  metrics.push_back({"serve.infer_reply_bytes",
                     static_cast<double>(serve::encode(reply).size()),
                     "bytes"});
  metrics.push_back({"serve.codec_us", median(codec_us), "us"});
  metrics.push_back(
      {"serve.wire_ms_p50", wire.lat_p50_ms - registry.lat_p50_ms, "ms"});
  metrics.push_back({"serve.load_model_ms", median(load_ms), "ms"});
  metrics.push_back({"serve.metrics_ms_p50", median(metrics_ms), "ms"});
  metrics.push_back({"engine.registry_ms_p50", registry.lat_p50_ms, "ms"});
  metrics.push_back({"engine.registry_ms_p90", registry.lat_p90_ms, "ms"});
  metrics.push_back(
      {"engine.queue_ms_p50", registry.lat_p50_ms - service / 1000.0, "ms"});
  metrics.push_back({"engine.service_us", service, "us"});
  metrics.push_back({"engine.batch4_us_per_image", median(batch4_us), "us"});
  metrics.push_back({"engine.mean_batch",
                     stats.models.size() == 1 ? stats.models[0].mean_batch
                                              : 0.0,
                     "count"});
  metrics.push_back({"trace.overhead_ms",
                     wire_traced.lat_p50_ms - wire.lat_p50_ms, "ms"});

  // --- hw, compiler, quant: both models, whichever one the workload serves.
  for (const ModelKind kind : {ModelKind::kLeNet, ModelKind::kVgg}) {
    if (kind == workload.model) {
      profile_model(kind, run.model_path(), inputs, &tracer, &metrics);
      continue;
    }
    const std::string path = run.dir() + "/profile.qsnn";
    const quant::QuantizedNetwork other =
        make_network(kind, derive_seed(run.seed(), kOtherModelSeed));
    quant::save_quantized(other, path);
    profile_model(kind, path,
                  make_inputs(kind, derive_seed(run.seed(), kOtherInputSeed),
                              other.time_bits),
                  &tracer, &metrics);
  }

  for (const std::vector<Sample>* phase :
       std::initializer_list<const std::vector<Sample>*>{&warmup, &untraced,
                                                         &traced, &replay}) {
    const PhaseMetrics counted = summarize(*phase, 1.0, 1);
    out.attempted += counted.attempted;
    out.failed += counted.failed;
  }
  out.attempted += run.extra_attempted();
  out.failed += run.extra_failed();

  out.diagnostics = {
      {"setup_s", setup_s, "s"},
      {"lat_p50_ms", wire.lat_p50_ms, "ms"},
      {"lat_p50_ms_traced", wire_traced.lat_p50_ms, "ms"},
  };
  for (const SpanSummary& span : tracer.summarize())
    out.diagnostics.push_back({"self_ms." + span.name, span.self_ms, "ms"});
  const std::string write_error = tracer.write_chrome(trace_path);
  if (!write_error.empty()) out.error = write_error;
  return out;
}

}  // namespace rsnn::e2e
