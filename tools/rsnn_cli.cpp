// rsnn_cli — command-line front end for the whole flow.
//
//   rsnn_cli train   --model lenet5 --out lenet.rsnn [--epochs 4] [--samples 3000]
//   rsnn_cli convert --model lenet5 --weights lenet.rsnn --T 4 --out lenet.qsnn
//                    [--weight-bits 3] [--per-channel 1]
//   rsnn_cli run     --qsnn lenet.qsnn [--units 2] [--mhz 100] [--samples 200]
//                    [--engine cycle_accurate|stepped|behavioral|reference]
//                    [--stream <workers>]
//                    [--pipeline <stages> [--partition balance_latency|fit_resources]
//                     [--relower 1]]
//                    [--serve 1 ...serving flags...]
//   rsnn_cli emit-rtl --qsnn lenet.qsnn --out rtl_out [--units 2]
//                    [--pipeline <stages> [--partition ...]]
//   rsnn_cli info    --qsnn lenet.qsnn
//
// Every command's options live in one declarative flag table
// (common/flags.hpp): the table drives parsing, range checks, and the
// usage text below, and the serving flags are the same serve::
// serving_pool_flags() table the rsnn_serve daemon uses — the two binaries
// cannot drift apart.
//
// Datasets: real MNIST from ./data/mnist when present, SynthDigits stand-in
// otherwise (models with 28x28/32x32 single-channel inputs only).
#include <csignal>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "compiler/compile.hpp"
#include "compiler/partition.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "engine/pipeline.hpp"
#include "engine/serving_pool.hpp"
#include "engine/stream.hpp"
#include "eval_data.hpp"
#include "hw/accelerator.hpp"
#include "hw/power_model.hpp"
#include "hw/report.hpp"
#include "hw/resource_model.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "quant/qserialize.hpp"
#include "quant/quantize.hpp"
#include "rtl/generate.hpp"
#include "serve/serve_flags.hpp"

namespace {

using namespace rsnn;
using flags::count_flag;
using flags::FlagSet;
using flags::FlagSpec;
using flags::number_flag;
using flags::text_flag;
using flags::toggle_flag;

// ------------------------------------------------------------ flag tables

std::vector<FlagSpec> train_flags() {
  return {
      text_flag("model", "lenet5", "zoo model to train", "NAME"),
      text_flag("out", "", "weight checkpoint path; <model>.rsnn when omitted",
                "PATH"),
      count_flag("epochs", "4", "training epochs", 1),
      count_flag("samples", "3000", "synthetic training samples", 1),
      count_flag("weight-bits", "3", "QAT weight precision", 1, 8),
  };
}

std::vector<FlagSpec> convert_flags() {
  return {
      text_flag("model", "lenet5", "zoo model to instantiate", "NAME"),
      text_flag("weights", "", "trained checkpoint; <model>.rsnn when omitted",
                "PATH"),
      text_flag("out", "", "quantized model path; <model>.qsnn when omitted",
                "PATH"),
      count_flag("T", "4", "activation time bits (spike-train length)", 1, 8),
      count_flag("weight-bits", "3", "quantized weight precision", 1, 8),
      toggle_flag("per-channel", "0", "per-channel weight scales"),
  };
}

std::vector<FlagSpec> run_flags() {
  std::vector<FlagSpec> table = {
      text_flag("qsnn", "lenet5.qsnn", "quantized model to execute", "PATH"),
      count_flag("units", "2", "convolution units in the derived design", 1),
      number_flag("mhz", "100", "design clock", 1e-3),
      count_flag("samples", "200", "evaluation samples", 1),
      text_flag("engine", "cycle_accurate",
                "cycle_accurate|stepped|behavioral|reference (analytic = "
                "cycle_accurate)",
                "NAME"),
      count_flag("stream", "-1",
                 "streaming-report workers (0 = one per hardware thread)",
                 -1),
      count_flag("threads", "1",
                 "cores per batched fast-path run (0 = all; trades against "
                 "--replicas)"),
      count_flag("pipeline", "1", "pipeline-parallel stages", 1),
      text_flag("partition", "balance_latency",
                "balance_latency|fit_resources", "NAME"),
      toggle_flag("relower", "0",
                  "re-compile each stage against its own device"),
      toggle_flag("serve", "0", "serving-pool report (flags below)"),
      count_flag("devices", "1",
                 "plan the stages x replicas split for this device budget",
                 1),
  };
  table = flags::merge_flags(std::move(table), serve::serving_pool_flags());
  return flags::merge_flags(std::move(table), serve::serving_request_flags());
}

std::vector<FlagSpec> emit_rtl_flags() {
  return {
      text_flag("qsnn", "lenet5.qsnn", "quantized model to emit", "PATH"),
      text_flag("out", "rtl_out", "output directory", "DIR"),
      count_flag("units", "2", "convolution units in the derived design", 1),
      count_flag("pipeline", "1",
                 "emit per-stage bundles with stream ports", 1),
      text_flag("partition", "balance_latency",
                "balance_latency|fit_resources", "NAME"),
  };
}

std::vector<FlagSpec> info_flags() {
  return {
      text_flag("qsnn", "lenet5.qsnn", "quantized model to describe", "PATH"),
  };
}

/// Parse a command's arguments against its table; false (after printing the
/// diagnostic) on bad input.
bool parse_command_flags(FlagSet* flag_set, int argc, char** argv) {
  const std::string error = flag_set->parse(argc, argv, 2);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  return true;
}

/// SIGINT flips this flag; the serve loop stops admitting, drains what was
/// already admitted, prints final stats and exits 0.
volatile std::sig_atomic_t g_interrupted = 0;
void handle_sigint(int) { g_interrupted = 1; }

/// Per-stage table shared by the pipeline and serve reports: op range,
/// predicted cycles, weight placement and the per-device resource estimate.
void print_stage_table(const ir::LayerProgram& program,
                       const std::vector<ir::ProgramSegment>& segments,
                       bool relower) {
  const std::vector<hw::ResourceEstimate> seg_resources =
      relower ? hw::relowered_resources(segments)
              : hw::partition_resources(program, segments);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const ir::ProgramSegment& seg = segments[s];
    const char* placement =
        seg.param_bits == 0 || seg.onchip_param_bits == seg.param_bits
            ? "onchip"
            : (seg.onchip_param_bits == 0 ? "dram" : "mixed");
    std::printf(
        "  stage %zu: ops [%zu, %zu)  ~%lld cycles  %lld KiB params  "
        "%-6s  %s\n",
        s, seg.begin, seg.end, static_cast<long long>(seg.predicted_cycles),
        static_cast<long long>(seg.param_bits / 8 / 1024), placement,
        hw::to_string(seg_resources[s]).c_str());
  }
}

int cmd_train(int argc, char** argv) {
  FlagSet args(train_flags());
  if (!parse_command_flags(&args, argc, argv)) return 1;
  const std::string model = args.text("model");
  const std::string out =
      args.is_set("out") ? args.text("out") : model + ".rsnn";
  const int epochs = static_cast<int>(args.count("epochs"));
  const std::size_t samples = static_cast<std::size_t>(args.count("samples"));

  nn::ZooOptions zoo;
  zoo.weight_qat_bits = static_cast<int>(args.count("weight-bits"));
  nn::Network net = nn::make_model(model, zoo);
  const auto out_shapes = net.layer_output_shapes();
  RSNN_REQUIRE(out_shapes.back().dim(1) == 10 &&
                   net.input_shape().dim(0) == 1,
               "the CLI trains on 10-class single-channel digit data; model '"
                   << model << "' does not match");
  const int canvas = static_cast<int>(net.input_shape().dim(1));

  data::Dataset train;
  if (auto mnist = data::load_mnist("data/mnist", /*train=*/true, canvas)) {
    train = std::move(*mnist);
  } else {
    data::SynthDigitsConfig cfg;
    cfg.canvas = canvas;
    cfg.num_samples = samples;
    cfg.noise_stddev = 0.08;
    cfg.max_shift = canvas >= 28 ? 3.0 : 1.5;
    cfg.min_scale = 0.7;
    cfg.max_shear = 0.25;
    cfg.intensity_min = 0.55;
    train = data::make_synth_digits(cfg);
  }
  std::printf("training %s on %zu samples, %d epochs\n", model.c_str(),
              train.size(), epochs);

  Rng rng(7);
  net.init_params(rng);
  nn::Adam adam(net.params(), nn::AdamConfig{0.005f});
  nn::TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.epoch_callback = [](int e, float loss, float acc) {
    std::printf("  epoch %d: loss %.3f acc %.3f\n", e, loss, acc);
    std::fflush(stdout);
  };
  nn::Trainer trainer(net, adam, cfg);
  trainer.fit(train.images, train.labels, rng);
  nn::save_params(net, out);
  std::printf("saved weights to %s\n", out.c_str());
  return 0;
}

int cmd_convert(int argc, char** argv) {
  FlagSet args(convert_flags());
  if (!parse_command_flags(&args, argc, argv)) return 1;
  const std::string model = args.text("model");
  const std::string weights =
      args.is_set("weights") ? args.text("weights") : model + ".rsnn";
  const std::string out =
      args.is_set("out") ? args.text("out") : model + ".qsnn";

  quant::QuantizeConfig qcfg;
  qcfg.time_bits = static_cast<int>(args.count("T"));
  qcfg.weight_bits = static_cast<int>(args.count("weight-bits"));
  qcfg.per_channel = args.toggle("per-channel");

  nn::ZooOptions zoo;
  zoo.weight_qat_bits = qcfg.weight_bits;
  nn::Network net = nn::make_model(model, zoo);
  Rng rng(7);
  net.init_params(rng);
  nn::load_params(net, weights);

  const auto qnet = quant::quantize(net, qcfg);
  quant::save_quantized(qnet, out);
  std::printf("%s", qnet.summary().c_str());
  std::printf("saved quantized model to %s (%lld KiB)\n", out.c_str(),
              static_cast<long long>(qnet.param_bits() / 8 / 1024));
  return 0;
}

/// The serving-pool report behind `run --serve 1`: configure the pool from
/// the shared serving flag table, feed the eval set through the typed
/// submit(Request) path, drain (Ctrl-C drains early), and report outcomes.
int run_serve_report(const FlagSet& args, const compiler::CompiledDesign& design,
                     const quant::QuantizedNetwork& qnet,
                     engine::EngineKind kind, const data::Dataset& eval) {
  engine::ServingPoolOptions pool_options;
  const std::string pool_error =
      serve::pool_options_from_flags(args, &pool_options);
  if (!pool_error.empty()) {
    std::fprintf(stderr, "error: %s\n", pool_error.c_str());
    return 1;
  }
  const bool relower = args.toggle("relower");
  const double deadline_ms = args.number("deadline-ms");
  const long long bulk_every = args.count("bulk-every");

  int stages = 1;
  if (args.is_set("devices")) {
    // Enumerate the stages x replicas splits of the device budget with the
    // per-device cost model and deploy the predicted-throughput winner.
    const int budget = static_cast<int>(args.count("devices"));
    const auto candidates = compiler::enumerate_serving(design.program, budget);
    const auto& plan = candidates[compiler::best_serving_candidate(candidates)];
    std::printf("\nserving plan for %d device(s):\n", budget);
    for (const auto& candidate : candidates)
      std::printf(
          "  %d stage(s) x %d replica(s): bottleneck ~%lld cycles -> "
          "%.1f images/sec predicted%s\n",
          candidate.stages, candidate.replicas,
          static_cast<long long>(candidate.bottleneck_cycles),
          candidate.predicted_images_per_sec,
          candidate.stages == plan.stages ? "  <- chosen" : "");
    stages = plan.stages;
    pool_options.replicas = plan.replicas;
    if (plan.stages > 1) pool_options.segments = plan.segments;
  } else {
    const std::string partition_name_arg = args.text("partition");
    const std::string request_error = compiler::validate_pipeline_request(
        design.program, std::to_string(args.count("pipeline")),
        partition_name_arg, &stages);
    if (!request_error.empty()) {
      std::fprintf(stderr, "error: %s\n", request_error.c_str());
      return 1;
    }
    if (stages > 1) {
      const compiler::PartitionStrategy strategy =
          compiler::parse_partition(partition_name_arg);
      pool_options.segments =
          relower ? compiler::partition_program(design.program, strategy,
                                                stages,
                                                compiler::PartitionOptions{})
                  : compiler::partition_program(design.program, strategy,
                                                stages);
    }
  }

  engine::ServingPool pool(design.program, kind, pool_options);
  std::printf(
      "\nserving: %d replica(s) of %s on %d device(s), %s admission "
      "(queue %zu)\n",
      pool.replicas(), pool.replica_shape().c_str(), pool.devices(),
      engine::policy_name(pool.options().policy),
      pool.options().queue_capacity);
  if (!pool_options.fault_plan.empty())
    std::printf("  fault plan : %s\n",
                engine::describe_fault_plan(pool_options.fault_plan).c_str());
  if (!pool_options.segments.empty())
    print_stage_table(design.program, pool_options.segments,
                      pool_options.segments.front().is_relowered());

  std::vector<TensorI> request_codes;
  request_codes.reserve(eval.size());
  for (const TensorF& image : eval.images)
    request_codes.push_back(quant::encode_activations(image, qnet.time_bits));

  // Ctrl-C drains gracefully: stop admitting, complete what was admitted,
  // print final stats, exit 0.
  g_interrupted = 0;
  std::signal(SIGINT, handle_sigint);
  std::vector<std::future<engine::ServingResult>> tickets;
  tickets.reserve(request_codes.size());
  for (std::size_t i = 0; i < request_codes.size(); ++i) {
    if (g_interrupted) break;
    engine::Request request;
    request.codes = std::move(request_codes[i]);
    request.options.deadline_ms = deadline_ms;
    if (bulk_every > 0 &&
        i % static_cast<std::size_t>(bulk_every) ==
            static_cast<std::size_t>(bulk_every) - 1)
      request.options.priority = engine::PriorityClass::kBulk;
    tickets.push_back(pool.submit(std::move(request)));
  }
  const bool interrupted = g_interrupted != 0;
  if (interrupted)
    std::printf("\ninterrupted: draining %zu admitted request(s)...\n",
                tickets.size());
  pool.shutdown(/*drain=*/true);

  long long by_status[5] = {0, 0, 0, 0, 0};
  for (auto& ticket : tickets) {
    const engine::ServingResult result = ticket.get();
    ++by_status[static_cast<int>(result.status)];
  }
  std::signal(SIGINT, SIG_DFL);

  const engine::ServingStats stats = pool.stats();
  std::printf("  outcomes   :");
  for (const engine::RequestStatus status :
       {engine::RequestStatus::kOk, engine::RequestStatus::kRejected,
        engine::RequestStatus::kDeadlineExceeded,
        engine::RequestStatus::kReplicaFailed,
        engine::RequestStatus::kCancelled})
    if (by_status[static_cast<int>(status)] > 0)
      std::printf(" %lld %s", by_status[static_cast<int>(status)],
                  engine::status_name(status));
  std::printf(" (of %zu submitted)\n", tickets.size());
  std::printf(
      "  %lld completed in %.1f ms -> %.1f images/sec wall "
      "(%.1f modeled at %.0f MHz), p50 %.2f ms, p99 %.2f ms, "
      "%.1f images/dispatch\n",
      static_cast<long long>(stats.completed), stats.wall_ms,
      stats.wall_images_per_sec, stats.modeled_images_per_sec,
      design.config.clock_mhz, stats.p50_latency_ms, stats.p99_latency_ms,
      stats.mean_batch);
  if (stats.retries + stats.stalls + stats.rebuilds + stats.shed_bulk > 0)
    std::printf(
        "  resilience : %lld retries, %lld replica failure(s), "
        "%lld stall(s), %lld rebuild(s), %lld bulk shed\n",
        static_cast<long long>(stats.retries),
        static_cast<long long>(stats.replica_failures),
        static_cast<long long>(stats.stalls),
        static_cast<long long>(stats.rebuilds),
        static_cast<long long>(stats.shed_bulk));
  std::printf("  goodput    : latency %.1f%%, bulk %.1f%% (fleet %d/%d)\n",
              stats.per_class[0].goodput * 100.0,
              stats.per_class[1].goodput * 100.0, stats.active_replicas,
              pool.replicas());
  for (std::size_t r = 0; r < stats.per_replica.size(); ++r)
    std::printf("  replica %zu: %lld image(s), %s\n", r,
                static_cast<long long>(stats.per_replica[r]),
                engine::health_name(stats.replica_health[r]));
  return 0;
}

int cmd_run(int argc, char** argv) {
  FlagSet args(run_flags());
  if (!parse_command_flags(&args, argc, argv)) return 1;
  const auto qnet = quant::load_quantized(args.text("qsnn"));

  compiler::CompileOptions options;
  options.num_conv_units = static_cast<int>(args.count("units"));
  options.clock_mhz = args.number("mhz");
  // Host threads per batched fast-path run (0 = hardware concurrency). Flows
  // through the lowered program's config, so `--stream` workers and every
  // `--serve` replica inherit it: `--threads` trades cores-per-replica
  // against `--replicas` on one host.
  options.fast_path_threads = static_cast<int>(args.count("threads"));
  const auto design = compiler::compile(qnet, options);
  std::printf("%s", compiler::describe(design, qnet).c_str());

  const engine::EngineKind kind = engine::parse_engine(args.text("engine"));
  auto eng = engine::make_engine(kind, design.program);
  std::printf("  engine     : %s\n", eng->name());

  hw::Accelerator accel(design.program);
  const std::size_t samples = static_cast<std::size_t>(args.count("samples"));
  const data::Dataset eval = tools::load_eval_data(qnet.input_shape, samples);

  std::int64_t correct = 0;
  for (std::size_t i = 0; i < eval.size(); ++i) {
    const TensorI codes =
        quant::encode_activations(eval.images[i], qnet.time_bits);
    if (qnet.classify(codes) == eval.labels[i]) ++correct;
  }

  const auto run = eng->run_image(eval.images[0]);
  const auto resources = hw::estimate_resources(accel);
  const auto power =
      hw::estimate_power(design.config, resources, run, accel.uses_dram());
  std::printf("\naccuracy over %zu samples: %.2f%%\n", eval.size(),
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(eval.size()));
  std::printf("%s", hw::run_summary(design.config, run, resources, power).c_str());

  // Optional streaming-throughput report: feed the whole eval set through a
  // persistent worker pool with the selected engine.
  const int stream_workers = static_cast<int>(args.count("stream"));
  if (stream_workers >= 0) {
    engine::StreamingExecutor stream(design.program, kind, stream_workers);
    stream.run_stream_images(eval.images);
    const engine::StreamStats& stats = stream.last_stats();
    std::printf(
        "streaming: %lld images on %d worker(s) in %.1f ms -> %.1f "
        "images/sec (simulator wall clock)\n",
        static_cast<long long>(stats.images), stats.workers, stats.wall_ms,
        stats.images_per_sec);
  }

  // Serving-pool report: N replicas (each monolithic or a K-stage pipeline)
  // behind one bounded admission queue. `--devices D` plans the stages x
  // replicas split automatically (compiler::plan_serving); otherwise
  // `--replicas R --pipeline K` pins the shape. Results stay bit-identical
  // to monolithic execution for every shape and policy.
  if (args.toggle("serve"))
    return run_serve_report(args, design, qnet, kind, eval);

  // Optional pipeline-parallel report: partition the program into stages
  // (one simulated accelerator per stage) and stream the eval set through
  // them. Logits are bit-identical to monolithic execution; with --relower 1
  // each stage is re-compiled against its own device (per-stage placement
  // and cycles improve wherever a stage's weights fit its BRAM budget).
  if (args.is_set("pipeline")) {
    const std::string partition_name_arg = args.text("partition");
    int pipeline_stages = 0;
    const std::string request_error = compiler::validate_pipeline_request(
        design.program, std::to_string(args.count("pipeline")),
        partition_name_arg, &pipeline_stages);
    if (!request_error.empty()) {
      std::fprintf(stderr, "error: %s\n", request_error.c_str());
      return 1;
    }
    const compiler::PartitionStrategy strategy =
        compiler::parse_partition(partition_name_arg);
    const bool relower = args.toggle("relower");

    std::vector<ir::ProgramSegment> segments;
    if (relower) {
      segments = compiler::partition_program(design.program, strategy,
                                             pipeline_stages,
                                             compiler::PartitionOptions{});
    } else {
      segments = compiler::partition_program(design.program, strategy,
                                             pipeline_stages);
    }

    std::printf("\npipeline (%s, %zu stage%s, %s placement):\n",
                compiler::partition_name(strategy), segments.size(),
                segments.size() == 1 ? "" : "s",
                relower ? "re-lowered per-device" : "inherited");
    if (segments.size() != static_cast<std::size_t>(pipeline_stages)) {
      if (relower)
        std::printf(
            "  note: fit_resources packs under the per-device budget and "
            "chose %zu stage(s) within the %d available device(s); an exact "
            "stage count applies only to balance_latency\n",
            segments.size(), pipeline_stages);
      else
        std::printf(
            "  note: fit_resources packs under the per-device weight-memory "
            "budget and chose %zu stage(s); --pipeline %d sets the stage "
            "count only for balance_latency\n",
            segments.size(), pipeline_stages);
    }
    print_stage_table(design.program, segments, relower);

    engine::PipelineExecutor pipe(design.program, segments, kind);
    pipe.run_pipeline_images(eval.images);
    const engine::PipelineStats& pstats = pipe.last_stats();
    std::printf(
        "  %lld images through %d stage(s) in %.1f ms -> %.1f images/sec "
        "(simulator wall clock)\n",
        static_cast<long long>(pstats.images), pstats.stages, pstats.wall_ms,
        pstats.images_per_sec);
  }
  return 0;
}

int cmd_emit_rtl(int argc, char** argv) {
  FlagSet args(emit_rtl_flags());
  if (!parse_command_flags(&args, argc, argv)) return 1;
  const auto qnet = quant::load_quantized(args.text("qsnn"));
  compiler::CompileOptions options;
  options.num_conv_units = static_cast<int>(args.count("units"));
  const auto design = compiler::compile(qnet, options);
  const std::string dir = args.text("out");

  // Partitioned emission: one bundle per pipeline stage, each re-lowered
  // against its own device and wrapped with inter-device stream interfaces.
  if (args.is_set("pipeline")) {
    const std::string partition_name_arg = args.text("partition");
    int pipeline_stages = 0;
    const std::string request_error = compiler::validate_pipeline_request(
        design.program, std::to_string(args.count("pipeline")),
        partition_name_arg, &pipeline_stages);
    if (!request_error.empty()) {
      std::fprintf(stderr, "error: %s\n", request_error.c_str());
      return 1;
    }
    const auto segments = compiler::partition_program(
        design.program, compiler::parse_partition(partition_name_arg),
        pipeline_stages, compiler::PartitionOptions{});
    const auto bundles =
        rtl::generate_pipeline_bundles(design.program, segments);
    const int written = rtl::write_pipeline_bundles(bundles, dir);
    std::printf("wrote %d RTL files across %zu stage bundles to %s/\n",
                written, bundles.size(), dir.c_str());
    return 0;
  }

  const auto bundle =
      rtl::generate_design_with_weights(design.config, qnet, "rsnn_accel");
  const int written = rtl::write_bundle(bundle, dir);
  std::printf("wrote %d RTL files to %s/\n", written, dir.c_str());
  return 0;
}

int cmd_info(int argc, char** argv) {
  FlagSet args(info_flags());
  if (!parse_command_flags(&args, argc, argv)) return 1;
  const std::string path = args.text("qsnn");
  RSNN_REQUIRE(quant::is_quantized_file(path), path << " is not a .qsnn file");
  const auto qnet = quant::load_quantized(path);
  std::printf("%s", qnet.summary().c_str());
  std::printf("parameters: %lld (%lld KiB at %d-bit weights)\n",
              static_cast<long long>(qnet.num_params()),
              static_cast<long long>(qnet.param_bits() / 8 / 1024),
              qnet.weight_bits);
  return 0;
}

/// Usage text generated from the same tables the parsers run — per-command
/// sections cannot drift from what each command accepts.
void usage() {
  std::printf("rsnn_cli <command> [--option value ...]\n");
  const struct {
    const char* name;
    const char* blurb;
    std::vector<FlagSpec> table;
  } commands[] = {
      {"train", "train a zoo model (MNIST or SynthDigits)", train_flags()},
      {"convert", "quantize a checkpoint into a .qsnn deployment artifact",
       convert_flags()},
      {"run",
       "execute a .qsnn model (reports; --serve 1 runs the serving pool, "
       "Ctrl-C drains)",
       run_flags()},
      {"emit-rtl", "generate synthesizable RTL", emit_rtl_flags()},
      {"info", "describe a .qsnn file", info_flags()},
  };
  for (const auto& command : commands) {
    std::printf("\n%s — %s\n", command.name, command.blurb);
    std::printf("%s", FlagSet(command.table).usage(4).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "train") return cmd_train(argc, argv);
    if (command == "convert") return cmd_convert(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "emit-rtl") return cmd_emit_rtl(argc, argv);
    if (command == "info") return cmd_info(argc, argv);
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
