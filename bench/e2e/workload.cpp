#include "workload.hpp"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/rng.hpp"
#include "quant/qserialize.hpp"

namespace rsnn::e2e {
namespace {

// Seed purposes (see derive_seed).
constexpr std::uint64_t kModelSeed = 1;
constexpr std::uint64_t kSwapModelSeed = 2;
constexpr std::uint64_t kInputSeed = 3;

constexpr int kInferAttempts = 3;

bool same_output(const Golden& golden, const std::vector<std::int64_t>& logits,
                 std::int64_t total_cycles, double latency_us) {
  return logits == golden.logits && total_cycles == golden.total_cycles &&
         latency_us == golden.latency_us;
}

/// Client::infer with the encode, round trip and decode recorded as spans.
std::string traced_infer(serve::Client& client,
                         const serve::InferRequest& request,
                         serve::InferReply* reply, Tracer* tracer,
                         std::int64_t id) {
  const ScopedSpan call(tracer, "client.infer", 0, id);
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> reply_payload;
  {
    const ScopedSpan span(tracer, "serve.encode", call.id(), id);
    payload = serve::encode(request);
  }
  std::string error;
  {
    const ScopedSpan span(tracer, "serve.round_trip", call.id(), id);
    error = client.round_trip(serve::FrameType::kInfer, payload,
                              serve::FrameType::kInferReply, &reply_payload);
  }
  if (!error.empty()) return error;
  const ScopedSpan span(tracer, "serve.decode", call.id(), id);
  return serve::decode(reply_payload, reply);
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each exists is recorded in BENCHMARK.json and bench/e2e/README.md.
  static const std::vector<Workload> table = {
      {"lenet-open", ModelKind::kLeNet, {"--replicas", "2"}, 1000.0, 4, 0,
       false},
      {"vgg-open", ModelKind::kVgg, {"--replicas", "2"}, 20.0, 4, 0, false},
      {"mixed-bulk",
       ModelKind::kLeNet,
       {"--replicas", "1", "--policy", "batch", "--max-batch", "4",
        "--max-wait-ms", "0.5"},
       800.0,
       2,
       2,
       false},
      {"lenet-control", ModelKind::kLeNet, {"--replicas", "2"}, 1000.0, 3, 0,
       true},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads())
    if (name == workload.name) return &workload;
  return nullptr;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + purpose);
  return rng.next_u64();
}

WorkloadRun::WorkloadRun(const Workload& workload, std::uint64_t seed,
                         std::string dir, std::string daemon_binary)
    : workload_(workload),
      seed_(seed),
      dir_(std::move(dir)),
      daemon_binary_(std::move(daemon_binary)) {
  std::filesystem::create_directories(dir_);
}

WorkloadRun::~WorkloadRun() {
  if (keep_files_) return;
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

void WorkloadRun::prepare() {
  const ModelKind kind = workload_.model;
  const int threads = static_cast<int>(
      std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  model_path_ = dir_ + "/" + model_id() + ".qsnn";
  const quant::QuantizedNetwork qnet =
      make_network(kind, derive_seed(seed_, kModelSeed));
  quant::save_quantized(qnet, model_path_);
  inputs_ = make_inputs(kind, derive_seed(seed_, kInputSeed), qnet.time_bits);
  golden_ = compute_golden(kind, model_path_, inputs_, threads);
  if (workload_.control) {
    swap_path_ = dir_ + "/" + model_id() + "_swap.qsnn";
    quant::save_quantized(
        make_network(kind, derive_seed(seed_, kSwapModelSeed)), swap_path_);
    swap_golden_ = compute_golden(kind, swap_path_, inputs_, threads);
  }
  for (const TensorI& codes : inputs_) {
    serve::InferRequest request;
    request.model_id = model_id();
    request.codes = codes;
    latency_requests_.push_back(request);
    request.options.priority = engine::PriorityClass::kBulk;
    bulk_requests_.push_back(request);
  }
}

std::string WorkloadRun::start_daemon(Daemon& daemon, double* setup_s) {
  std::vector<std::string> args = {"--preload",
                                   std::string(model_id()) + "=" + model_path_};
  args.insert(args.end(), workload_.pool_flags.begin(),
              workload_.pool_flags.end());
  const std::string log =
      dir_ + "/daemon-" + std::to_string(daemons_started_++) + ".log";
  const Clock::time_point spawned = Clock::now();
  std::string error = daemon.start(daemon_binary_, args, log);
  if (!error.empty()) return error;
  serve::Client client;
  error = client.connect_loopback(daemon.port());
  if (!error.empty()) return error;
  serve::InferReply reply;
  error = client.infer(request(0, false), &reply);
  const bool ok =
      error.empty() && reply.status == engine::RequestStatus::kOk &&
      matches(0, reply.logits, reply.total_cycles, reply.latency_us);
  *setup_s = ms_between(spawned, Clock::now()) / 1000.0;
  count_request(ok);
  if (!error.empty()) return "warm Infer: " + error;
  if (!ok) return "warm Infer does not match its golden output";
  return {};
}

std::string WorkloadRun::connect(int port,
                             std::vector<serve::Client>* clients) const {
  clients->clear();
  clients->resize(static_cast<std::size_t>(workload_.latency_connections +
                                           workload_.bulk_connections));
  for (serve::Client& client : *clients) {
    const std::string error = client.connect_loopback(port);
    if (!error.empty()) return error;
  }
  return {};
}

InferFn WorkloadRun::wire_infer(std::vector<serve::Client>& clients,
                            Tracer* tracer) {
  return [this, &clients, tracer](int connection, std::size_t input, bool bulk,
                                  std::int64_t id) {
    serve::Client& client = clients[static_cast<std::size_t>(connection)];
    const serve::InferRequest& infer = request(input, bulk);
    serve::InferReply reply;
    for (int attempt = 0; attempt < kInferAttempts; ++attempt) {
      const std::string error =
          tracer == nullptr ? client.infer(infer, &reply)
                            : traced_infer(client, infer, &reply, tracer, id);
      if (!error.empty()) return false;
      if (reply.status != engine::RequestStatus::kRejected) break;
      ++rejected_;
    }
    return reply.status == engine::RequestStatus::kOk &&
           matches(input, reply.logits, reply.total_cycles, reply.latency_us);
  };
}

Traffic WorkloadRun::traffic(double seconds, std::uint64_t purpose) const {
  Traffic traffic;
  traffic.seconds = seconds;
  traffic.rate_rps = workload_.rate_rps;
  traffic.latency_connections = workload_.latency_connections;
  traffic.bulk_connections = workload_.bulk_connections;
  traffic.seed = derive_seed(seed_, purpose);
  traffic.inputs = inputs_.size();
  return traffic;
}

bool WorkloadRun::matches(std::size_t input,
                      const std::vector<std::int64_t>& logits,
                      std::int64_t total_cycles, double latency_us) const {
  if (same_output(golden_[input], logits, total_cycles, latency_us))
    return true;
  return !swap_golden_.empty() &&
         same_output(swap_golden_[input], logits, total_cycles, latency_us);
}

void WorkloadRun::count_request(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

double WorkloadRun::golden_latency_us() const {
  double sum = 0.0;
  for (const Golden& golden : golden_) sum += golden.latency_us;
  return golden_.empty() ? 0.0 : sum / static_cast<double>(golden_.size());
}

}  // namespace rsnn::e2e
