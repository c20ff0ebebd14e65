// The four workloads and one run of one of them: the seeded model files,
// inputs and golden outputs, the rsnn_serve children it spawns, and the wire
// traffic it sends them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon.hpp"
#include "loadgen.hpp"
#include "models.hpp"
#include "serve/client.hpp"
#include "trace.hpp"

namespace rsnn::e2e {

struct Workload {
  const char* name;
  ModelKind model;
  /// Serving-pool flags, passed verbatim to rsnn_serve and parsed by the
  /// same flag table for the in-process replay.
  std::vector<std::string> pool_flags;
  double rate_rps;  ///< latency-lane Poisson rate
  int latency_connections;
  int bulk_connections;  ///< closed-loop bulk lane, 0 = none
  /// A fourth connection sends Metrics every 100 ms and hot-swaps the model
  /// between two seeded files every 2 s.
  bool control;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// One measurement, printed as "workload name value unit".
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-run seed for one purpose, so each generated artefact has its own
/// stream and adding one never shifts another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

class WorkloadRun {
 public:
  /// `dir` is created and holds this run's model files and daemon logs; it
  /// is removed on destruction unless keep_files() was called.
  WorkloadRun(const Workload& workload, std::uint64_t seed, std::string dir,
              std::string daemon_binary);
  ~WorkloadRun();
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;

  /// Generate and save the model(s), the inputs and their golden outputs.
  void prepare();

  /// Spawn rsnn_serve with the workload's flags and the model preloaded, and
  /// wait for one warm Infer to answer correctly. `*setup_s` is the time from
  /// spawn to that answer. Diagnostic, "" on success.
  std::string start_daemon(Daemon& daemon, double* setup_s);

  /// One connection per lane thread (latency first, then bulk).
  std::string connect(int port, std::vector<serve::Client>* clients) const;

  /// Infer over the wire on `clients`; with a tracer, the encode, round trip
  /// and decode of every call are recorded as spans. A kRejected reply is
  /// sent again at once, up to three sends in all, as a client of a
  /// hot-swapping server must: a request that races a swap may be rejected
  /// by the retiring generation. Latency still counts from the first send.
  InferFn wire_infer(std::vector<serve::Client>& clients, Tracer* tracer);

  /// The workload's traffic for `seconds`, with arrivals drawn from
  /// `purpose`'s seed.
  Traffic traffic(double seconds, std::uint64_t purpose) const;

  /// Whether served outputs equal the golden outputs of `input` (of either
  /// model on a hot-swapping workload).
  bool matches(std::size_t input, const std::vector<std::int64_t>& logits,
               std::int64_t total_cycles, double latency_us) const;

  /// Count one request sent outside run_traffic (warm-up, swap, Metrics).
  void count_request(bool ok);
  std::int64_t extra_attempted() const { return attempted_.load(); }
  std::int64_t extra_failed() const { return failed_.load(); }
  /// kRejected replies that wire_infer retried.
  std::int64_t rejected_replies() const { return rejected_.load(); }

  void keep_files() { keep_files_ = true; }

  const Workload& workload() const { return workload_; }
  std::uint64_t seed() const { return seed_; }
  const std::string& dir() const { return dir_; }
  const char* model_id() const { return model_name(workload_.model); }
  const std::string& model_path() const { return model_path_; }
  const std::string& swap_path() const { return swap_path_; }
  const std::vector<TensorI>& inputs() const { return inputs_; }
  const std::vector<Golden>& golden() const { return golden_; }
  const serve::InferRequest& request(std::size_t input, bool bulk) const {
    return (bulk ? bulk_requests_ : latency_requests_)[input];
  }
  /// Mean golden modeled latency over the inputs, in µs.
  double golden_latency_us() const;

 private:
  const Workload& workload_;
  const std::uint64_t seed_;
  const std::string dir_;
  const std::string daemon_binary_;
  bool keep_files_ = false;
  int daemons_started_ = 0;

  std::string model_path_;
  std::string swap_path_;  ///< second model, control workload only
  std::vector<TensorI> inputs_;
  std::vector<Golden> golden_;
  std::vector<Golden> swap_golden_;
  std::vector<serve::InferRequest> latency_requests_;
  std::vector<serve::InferRequest> bulk_requests_;

  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> rejected_{0};
};

}  // namespace rsnn::e2e
