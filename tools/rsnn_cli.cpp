// rsnn_cli — command-line front end for the whole flow.
//
//   rsnn_cli train   --model lenet5 --out lenet.rsnn [--epochs 4] [--samples 3000]
//   rsnn_cli convert --model lenet5 --weights lenet.rsnn --T 4 --out lenet.qsnn
//                    [--weight-bits 3] [--per-channel 1]
//   rsnn_cli run     --qsnn lenet.qsnn [--units 2] [--mhz 100] [--samples 200]
//                    [--engine cycle_accurate|stepped|behavioral|reference]
//                    [--pipeline <stages> [--partition balance_latency|fit_resources]
//                     [--relower 1]]
//   rsnn_cli emit-rtl --qsnn lenet.qsnn --out rtl_out [--units 2]
//                    [--pipeline <stages> [--partition ...]]
//   rsnn_cli info    --qsnn lenet.qsnn
//
// Every command's options live in one declarative flag table
// (common/flags.hpp): the table drives parsing, range checks, and the
// usage text below. Serving lives in the rsnn_serve daemon and its
// rsnn_client.
//
// Datasets: real MNIST from ./data/mnist when present, SynthDigits stand-in
// otherwise (models with 28x28/32x32 single-channel inputs only).
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "compiler/compile.hpp"
#include "compiler/partition.hpp"
#include "engine/engine.hpp"
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
      count_flag("weight-bits", "3", "QAT weight precision", 2, 8),
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
      count_flag("weight-bits", "3", "quantized weight precision", 2, 8),
      toggle_flag("per-channel", "0", "per-channel weight scales"),
  };
}

std::vector<FlagSpec> run_flags() {
  return {
      text_flag("qsnn", "lenet5.qsnn", "quantized model to execute", "PATH"),
      count_flag("units", "2", "convolution units in the derived design", 1),
      number_flag("mhz", "100", "design clock", 1e-3),
      count_flag("samples", "200", "evaluation samples", 1),
      text_flag("engine", "cycle_accurate",
                "cycle_accurate|stepped|behavioral|reference (analytic = "
                "cycle_accurate)",
                "NAME"),
      count_flag("pipeline", "1", "pipeline-parallel stages", 1),
      text_flag("partition", "balance_latency",
                "balance_latency|fit_resources", "NAME"),
      toggle_flag("relower", "0",
                  "re-compile each stage against its own device"),
  };
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

/// The pipeline report's per-stage table: op range, predicted cycles,
/// weight placement and the per-device resource estimate.
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

int cmd_run(int argc, char** argv) {
  FlagSet args(run_flags());
  if (!parse_command_flags(&args, argc, argv)) return 1;
  const auto qnet = quant::load_quantized(args.text("qsnn"));

  compiler::CompileOptions options;
  options.num_conv_units = static_cast<int>(args.count("units"));
  options.clock_mhz = args.number("mhz");
  const auto design = compiler::compile(qnet, options);
  std::printf("%s", compiler::describe(design, qnet).c_str());

  const engine::EngineKind kind = engine::parse_engine(args.text("engine"));
  auto eng = engine::make_engine(kind, design.program);
  std::printf("  engine     : %s\n", eng->name());

  hw::Accelerator accel(design.program);
  const std::size_t samples = static_cast<std::size_t>(args.count("samples"));
  const data::Dataset eval = tools::load_eval_data(qnet.input_shape, samples);

  std::vector<TensorI> eval_codes;
  eval_codes.reserve(eval.size());
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < eval.size(); ++i) {
    eval_codes.push_back(
        quant::encode_activations(eval.images[i], qnet.time_bits));
    if (qnet.classify(eval_codes.back()) == eval.labels[i]) ++correct;
  }

  const auto run = eng->run_image(eval.images[0]);
  const auto resources = hw::estimate_resources(accel);
  const auto power =
      hw::estimate_power(design.config, resources, run, accel.uses_dram());
  std::printf("\naccuracy over %zu samples: %.2f%%\n", eval.size(),
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(eval.size()));
  std::printf("%s", hw::run_summary(design.config, run, resources, power).c_str());

  // Optional multi-device report: partition the program into stages, one
  // simulated accelerator each, and report the modeled pipeline, whose
  // throughput the slowest stage sets. With --relower 1 each stage is
  // re-compiled against its own device (per-stage placement and cycles
  // improve wherever a stage's weights fit its BRAM budget). The eval set
  // then runs through the stage engines chained on this thread, whose logits
  // must match monolithic execution.
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

    std::size_t bottleneck = 0;
    for (std::size_t s = 1; s < segments.size(); ++s)
      if (segments[s].predicted_cycles > segments[bottleneck].predicted_cycles)
        bottleneck = s;
    const std::int64_t bottleneck_cycles =
        segments[bottleneck].predicted_cycles;
    std::printf(
        "  bottleneck: stage %zu, ~%lld cycles -> %.1f images/sec at %g MHz "
        "(modeled, one device per stage)\n",
        bottleneck, static_cast<long long>(bottleneck_cycles),
        1e9 / (static_cast<double>(bottleneck_cycles) *
               design.config.cycle_ns()),
        design.config.clock_mhz);

    const auto stages =
        engine::make_stage_engines(kind, design.program, segments);
    for (std::size_t i = 0; i < eval_codes.size(); ++i) {
      if (engine::run_stages(stages, eval_codes[i]).logits !=
          eng->run_codes(eval_codes[i]).logits) {
        std::fprintf(stderr,
                     "error: chained stage engines' logits differ from "
                     "monolithic execution on image %zu\n",
                     i);
        return 1;
      }
    }
    std::printf(
        "  chained stage engines: logits match monolithic execution on all "
        "%zu images\n",
        eval_codes.size());
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
      {"run", "execute a .qsnn model and report", run_flags()},
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
