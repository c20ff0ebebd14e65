// rsnn_serve — the serving daemon: a multi-model registry behind the wire
// protocol (src/serve/wire.hpp) on a loopback TCP port.
//
//   rsnn_serve [--port 7433] [--preload lenet=lenet.qsnn,vgg=vgg.qsnn]
//              [--engine cycle_accurate] [--units 2] [--mhz 100]
//              [--replicas 1] [--policy fifo|batch|reject] [--fault PLAN]
//              [...the rest of the serving-pool flag table...]
//
// The one serving front end. Every loaded model gets its own
// engine::ServingPool built from the shared serving flag table
// (serve/serve_flags.hpp): one engine and one dispatcher thread per replica.
// Replicas are how the daemon spends host cores; each dispatch, batched or
// not, runs on its replica's one thread. --policy names a dispatch size and
// what a full queue does: fifo dispatches one request at a time, batch up to
// --max-batch, and reject is fifo whose full queue sheds instead of blocking.
// Clients load further models, hot-swap running ones, and push inference
// with rsnn_client (or anything speaking the frame format).
//
// Shutdown: a Shutdown frame (rsnn_client shutdown [--drain 0]) or SIGINT.
// Both stop the accept loop first, then drain admitted work (SIGINT and
// `--drain 1` drain; `--drain 0` cancels queued requests as kCancelled),
// print final per-model stats, and exit 0.
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.hpp"
#include "compiler/partition.hpp"
#include "engine/engine.hpp"
#include "serve/registry.hpp"
#include "serve/serve_flags.hpp"
#include "serve/server.hpp"

namespace {

using namespace rsnn;
using flags::count_flag;
using flags::FlagSet;
using flags::FlagSpec;
using flags::number_flag;
using flags::text_flag;

std::vector<FlagSpec> daemon_flags() {
  std::vector<FlagSpec> table = {
      count_flag("port", "7433", "loopback port to bind (0 = kernel-assigned)",
                 0, 65535),
      text_flag("preload", "",
                "models to load before accepting: id=path[,id=path...]",
                "LIST"),
      text_flag("engine", "cycle_accurate",
                "cycle_accurate|stepped|behavioral|reference (analytic = "
                "cycle_accurate)",
                "NAME"),
      count_flag("units", "2", "convolution units in each derived design", 1),
      number_flag("mhz", "100", "design clock", 1e-3),
  };
  return flags::merge_flags(std::move(table), serve::serving_pool_flags());
}

void usage() {
  std::printf(
      "rsnn_serve [--option value ...]\n"
      "serve quantized models over the rsnn wire protocol (127.0.0.1 only)\n");
  std::printf("%s", FlagSet(daemon_flags()).usage(4).c_str());
  std::printf(
      "\nstop with SIGINT (drains admitted work) or `rsnn_client shutdown`.\n");
}

volatile std::sig_atomic_t g_interrupted = 0;
void handle_sigint(int) { g_interrupted = 1; }

/// `id=path[,id=path...]` -> load_model calls. Diagnostic, "" on success.
std::string preload_models(serve::ModelRegistry& registry,
                           const std::string& list) {
  std::size_t begin = 0;
  while (begin < list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string entry = list.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size())
      return "invalid --preload entry '" + entry + "' (expected id=path)";
    const std::string model_id = entry.substr(0, eq);
    const std::string path = entry.substr(eq + 1);
    const std::string error = registry.load_model(model_id, path);
    if (!error.empty()) return error;
    std::printf("  preloaded '%s' from %s\n", model_id.c_str(), path.c_str());
  }
  return {};
}

void print_final_stats(const std::vector<serve::ModelInfo>& models) {
  for (const serve::ModelInfo& info : models) {
    const engine::ServingStats& stats = info.stats;
    std::printf(
        "  %s (generation %llu): %lld completed, %lld rejected, "
        "%lld failed, %lld retries, %.2f attempts/image, fleet %d/%d\n",
        info.model_id.c_str(),
        static_cast<unsigned long long>(info.generation),
        static_cast<long long>(stats.completed),
        static_cast<long long>(stats.rejected),
        static_cast<long long>(stats.failed),
        static_cast<long long>(stats.retries),
        compiler::expected_attempts_per_image(stats.completed, stats.retries,
                                              stats.stalls),
        stats.active_replicas, info.replicas);
  }
}

int serve_main(int argc, char** argv) {
  FlagSet args(daemon_flags());
  const std::string parse_error = args.parse(argc, argv, 1);
  if (!parse_error.empty()) {
    std::fprintf(stderr, "error: %s\n", parse_error.c_str());
    return 1;
  }

  serve::RegistryOptions registry_options;
  registry_options.compile.num_conv_units = static_cast<int>(args.count("units"));
  registry_options.compile.clock_mhz = args.number("mhz");
  registry_options.kind = engine::parse_engine(args.text("engine"));
  const std::string pool_error =
      serve::pool_options_from_flags(args, &registry_options.pool);
  if (!pool_error.empty()) {
    std::fprintf(stderr, "error: %s\n", pool_error.c_str());
    return 1;
  }

  serve::ModelRegistry registry(std::move(registry_options));
  const std::string preload_error =
      preload_models(registry, args.text("preload"));
  if (!preload_error.empty()) {
    std::fprintf(stderr, "error: %s\n", preload_error.c_str());
    return 1;
  }

  serve::ServerOptions server_options;
  server_options.port = static_cast<int>(args.count("port"));
  serve::Server server(registry, server_options);
  const std::string start_error = server.start();
  if (!start_error.empty()) {
    std::fprintf(stderr, "error: %s\n", start_error.c_str());
    return 1;
  }
  const engine::ServingPoolOptions& pool = registry.options().pool;
  std::printf(
      "rsnn_serve listening on 127.0.0.1:%d (%s engine, %d replica(s) per "
      "model, up to %zu request(s) per dispatch, full queue %s)\n",
      server.port(), engine::engine_name(registry.options().kind),
      pool.replicas, pool.max_batch,
      pool.on_full == engine::OnFull::kReject ? "rejects" : "blocks");
  std::fflush(stdout);

  // SIGINT just flips a flag; this loop (not the handler) does the
  // signal-unsafe work. A Shutdown frame flips shutdown_requested() instead;
  // wait_until_shutdown() then returns immediately with its drain flag.
  std::signal(SIGINT, handle_sigint);
  while (g_interrupted == 0 && !server.shutdown_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  bool drain = true;
  if (server.shutdown_requested()) server.wait_until_shutdown(&drain);
  std::signal(SIGINT, SIG_DFL);

  std::printf("shutting down (%s)...\n",
              drain ? "draining admitted work" : "cancelling queued work");
  server.stop();
  const std::vector<serve::ModelInfo> models = registry.snapshot();
  registry.shutdown(drain);
  print_final_stats(models);
  std::printf("served %lld connection(s), goodbye\n",
              static_cast<long long>(server.connections_accepted()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 &&
      (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h")) {
    usage();
    return 0;
  }
  try {
    return serve_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
