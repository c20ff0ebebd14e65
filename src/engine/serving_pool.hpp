// ServingPool: replicated, fault-tolerant serving of a lowered LayerProgram
// behind one bounded admission queue.
//
// The paper's accelerator runs one image's layers in sequence on one device;
// serving replicates that device. A pool is a fleet of N identical replicas,
// all fed from a single admission queue:
//
//     clients --> [ bounded admission queue | on_full ] --> replica 0
//                      (EDF within priority class)     --> replica 1
//                                                      --> ...
//
// Every replica is one Engine (make_engine), run by its own dispatcher
// thread — N replicas are N threads. A free dispatcher follows one rule: it
// takes the best eligible request, then up to max_batch - 1 more, holding
// the oldest no longer than max_wait_ms past its admission (a hold that
// expires with one request pending dispatches it alone), and hands the lot
// to the engine's batched entry. max_batch 1 dispatches one request at a
// time. A full queue blocks the producer (OnFull::kBlock) or sheds the new
// request at once with RequestStatus::kRejected (OnFull::kReject).
//
// Request lifecycle (every submitted request resolves with exactly one
// typed RequestStatus — there are no invalid futures and no hangs):
//
//   submit ──> rejected (malformed codes / queue full under
//     │                 OnFull::kReject / bulk evicted / closed)
//     │
//     ▼              deadline passed before dispatch
//   queued ─────────────────────────────────────────> deadline-exceeded
//     │  EDF within class; latency class first
//     ▼
//   dispatched ──ok──> ok
//     │  its injected attempt faulted, or the replica threw
//     ▼
//   retry with bounded exponential backoff on a different healthy replica
//     │  attempts exhausted, or no replica left
//     ▼
//   replica-failed            (cancelled: undispatched at shutdown(false))
//
// Replica supervision: each replica carries a health state machine
// (healthy -> degraded -> quarantined) driven by consecutive dispatch
// failures and stall detections (a dispatch whose wall duration exceeds
// stall_timeout_ms). Quarantined replicas stop serving; with
// rebuild_quarantined set their engine is rebuilt via make_engine (and the
// fault injector's dead flag revived) and they rejoin the fleet. If every
// replica quarantines, queued and future work fails fast with
// kReplicaFailed instead of waiting forever.
//
// Dispatch: each dispatch is one batched engine call on the replica's own
// thread. With a fault plan armed, the replica first consults the injector
// once per request, so a plan replays against individual inference
// attempts. A transient fault re-queues only the request whose attempt it
// hit, and the rest of the dispatch still runs; a kill fails the whole
// dispatch. Either way the dispatch counts once against the replica's
// health.
//
// Inference is pure — a retried request recomputes exactly the same logits
// — so retry-elsewhere is always safe. Results delivered with status kOk
// are bit-identical to monolithic execution for every configuration
// (tests/test_serving.cpp, tests/test_faults.cpp cross-check logits, the
// latter under seeded fault plans).
//
// Shutdown is graceful: work that was admitted is always completed — the
// destructor drains the queue (retries included) before joining the
// dispatchers, so futures obtained from submit() remain valid and resolve
// across pool destruction. shutdown(/*drain=*/false) instead cancels
// undispatched work with kCancelled (in-flight dispatches still complete).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/latency_histogram.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "hw/accelerator.hpp"
#include "ir/layer_program.hpp"

namespace rsnn::engine {

/// What a blocking submit() does when the admission queue is full.
enum class OnFull {
  kBlock,   ///< wait for room (backpressure)
  kReject,  ///< shed the request at once with kRejected
};

/// Typed outcome of one serving request — every future resolves with
/// exactly one of these.
enum class RequestStatus {
  kOk,                ///< served; `result` holds the logits and stats
  kRejected,          ///< shed at admission (full queue / bulk eviction)
  kDeadlineExceeded,  ///< expired in the queue before any replica ran it
  kReplicaFailed,     ///< every (bounded) attempt failed
  kCancelled,         ///< undispatched when shutdown(false) cancelled it
};

/// Canonical status name: "ok" / "rejected" / "deadline_exceeded" /
/// "replica_failed" / "cancelled".
const char* status_name(RequestStatus status);

/// Request priority class: the latency lane is dispatched first and is the
/// last to be shed; the bulk lane absorbs overload.
enum class PriorityClass { kLatency, kBulk };
inline constexpr int kNumPriorityClasses = 2;

/// Canonical class name: "latency" / "bulk".
const char* priority_name(PriorityClass priority);

/// How a request behaves at the admission queue.
enum class AdmissionMode {
  /// Block while the queue is full (under OnFull::kBlock; kReject sheds
  /// instead); a full queue holding undispatched bulk work may first evict
  /// its newest bulk request to admit latency-class work. The submit()
  /// default.
  kBlocking,
  /// Never block and never evict: a full queue (or a closed pool) resolves
  /// the request immediately with kRejected — the polite probe.
  kNonBlocking,
};

/// Longest accepted RequestOptions::deadline_ms: one year. Admission adds
/// the deadline to steady_clock::now(), and this bound keeps that sum far
/// inside steady_clock's range. submit() requires a deadline in
/// [0, kMaxDeadlineMs]; the wire decoder refuses anything else, NaN
/// included, as a malformed frame.
inline constexpr double kMaxDeadlineMs = 365.0 * 24.0 * 3600.0 * 1000.0;
static_assert(std::chrono::duration<double, std::milli>(kMaxDeadlineMs) <
                  std::chrono::steady_clock::duration::max() / 2,
              "kMaxDeadlineMs must fit steady_clock with room for now()");

/// Per-request submission options.
struct RequestOptions {
  PriorityClass priority = PriorityClass::kLatency;
  /// Deadline relative to admission; 0 = none, at most kMaxDeadlineMs. A
  /// request whose deadline passes while still queued fails fast with
  /// kDeadlineExceeded instead of occupying a replica. Dispatch order within
  /// a class is earliest-deadline-first (deadline-less requests rank last,
  /// FIFO among themselves).
  double deadline_ms = 0.0;
  AdmissionMode admission = AdmissionMode::kBlocking;
};

/// The unified typed serving request: every admission path — in-process
/// callers and the rsnn_serve wire protocol — builds one of these and hands
/// it to ServingPool::submit(Request) (directly, or routed by model_id
/// through a serve::ModelRegistry).
struct Request {
  /// Routing key. Empty targets whichever pool receives the request; a
  /// non-empty id must match the pool's configured model_id or the request
  /// resolves kRejected without queueing (the registry normally routes
  /// before this check — it backstops misrouted direct submissions).
  std::string model_id;
  /// Pre-encoded activation codes: the program's input shape (CHW), every
  /// code in [0, 2^T). Anything else resolves kRejected at admission.
  TensorI codes;
  RequestOptions options;
};

/// What a serving future resolves to.
struct ServingResult {
  RequestStatus status = RequestStatus::kCancelled;
  hw::AccelRunResult result;  ///< valid when status == kOk
  std::string error;          ///< diagnostic for non-ok outcomes
  int attempts = 0;           ///< dispatch attempts consumed (1 = no retry)
  int replica = -1;           ///< replica that served it (kOk only)
  /// Global dispatch sequence number of the final attempt (-1 when never
  /// dispatched) — lets tests assert dispatch ordering (EDF, class
  /// priority) without racing on wall clocks.
  std::int64_t dispatch_seq = -1;
};

/// Replica health, as driven by dispatch failures and stalls.
enum class ReplicaHealth { kHealthy, kDegraded, kQuarantined };

/// Canonical health name: "healthy" / "degraded" / "quarantined".
const char* health_name(ReplicaHealth health);

struct ServingPoolOptions {
  /// Model id this pool serves, checked against Request::model_id (empty
  /// accepts only unrouted requests — see Request::model_id).
  std::string model_id;
  /// Identical replicas behind the queue (>= 1), one engine and one
  /// dispatcher thread each.
  int replicas = 1;

  /// Admission-queue capacity in requests. Must be >= 1 under
  /// OnFull::kBlock; 0 is legal only with kReject (every request is shed —
  /// the drain-for-maintenance configuration). Retried requests re-enter the
  /// queue without counting against the capacity (they were admitted once).
  std::size_t queue_capacity = 64;
  OnFull on_full = OnFull::kBlock;
  /// Most requests one dispatch takes (>= 1); 1 dispatches one at a time.
  std::size_t max_batch = 1;
  /// The hold for company: a dispatch holding fewer than max_batch requests
  /// waits for more until its oldest request is this old (at most
  /// kMaxDeadlineMs; 0 takes only what is already queued).
  double max_wait_ms = 1.0;

  // --- fault tolerance ---
  /// Failed dispatch attempts are retried (preferentially on a different
  /// healthy replica) up to this many times before the request resolves
  /// with kReplicaFailed. 0 disables retry.
  int max_retries = 2;
  /// Exponential backoff before each retry: base * 2^(attempt-1), capped
  /// (both at most kMaxDeadlineMs).
  double backoff_base_ms = 0.1;
  double backoff_cap_ms = 10.0;
  /// A dispatch whose wall duration exceeds this counts as a stall for the
  /// replica's health (its results are still delivered). 0 disables stall
  /// detection. A replica degrades after one failed dispatch or one stall,
  /// and quarantines after 3 consecutive failed dispatches or 2 stalls (not
  /// necessarily consecutive).
  double stall_timeout_ms = 0.0;
  /// Rebuild quarantined replicas' engines via make_engine (reviving the
  /// fault injector's dead flag) instead of retiring them.
  bool rebuild_quarantined = false;
  /// Deterministic fault plan armed across the fleet; empty = no injection.
  FaultPlan fault_plan;
};

/// Per-priority-class slice of the pool statistics.
struct ClassStats {
  std::int64_t submitted = 0;  ///< admission attempts (admitted + shed)
  std::int64_t ok = 0;
  std::int64_t rejected = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  /// ok / (submitted - rejected): of the work the pool accepted, how much
  /// it actually served.
  double goodput = 0.0;
};

/// Cumulative pool statistics (since construction). Latency percentiles are
/// wall-clock admission-to-completion times of kOk requests.
struct ServingStats {
  std::int64_t submitted = 0;   ///< admitted requests
  std::int64_t rejected = 0;    ///< shed (admission backpressure + eviction)
  std::int64_t completed = 0;   ///< resolved kOk
  std::int64_t failed = 0;      ///< resolved kReplicaFailed
  std::int64_t deadline_exceeded = 0;  ///< resolved kDeadlineExceeded
  std::int64_t cancelled = 0;   ///< resolved kCancelled
  std::int64_t dispatches = 0;  ///< batches handed to replicas
  double mean_batch = 0.0;      ///< dispatched requests / dispatches
  std::int64_t retries = 0;     ///< requests re-queued after a failure
  std::int64_t replica_failures = 0;  ///< failed dispatch attempts
  std::int64_t stalls = 0;      ///< dispatches exceeding stall_timeout_ms
  std::int64_t rebuilds = 0;    ///< quarantined replicas rebuilt
  std::int64_t shed_bulk = 0;   ///< bulk requests evicted for latency work
  ClassStats per_class[kNumPriorityClasses];  ///< by PriorityClass
  /// Completed requests per second, first admission to last completion.
  double wall_images_per_sec = 0.0;
  double p50_latency_ms = 0.0;  ///< wall-clock, queueing + service, kOk only
  double p99_latency_ms = 0.0;
  std::vector<std::int64_t> per_replica;  ///< images served by each replica
  std::vector<ReplicaHealth> replica_health;
  int active_replicas = 0;  ///< replicas not quarantined
};

class ServingPool {
 public:
  /// Builds `options.replicas` engines of `kind` over `program` — an engine
  /// that cannot be built fails the constructor — and spawns one dispatcher
  /// thread per engine. The program (and its network) must outlive the
  /// pool.
  ServingPool(const ir::LayerProgram& program, EngineKind kind,
              ServingPoolOptions options);
  ~ServingPool();
  ServingPool(const ServingPool&) = delete;
  ServingPool& operator=(const ServingPool&) = delete;

  /// The single typed admission path — in-process callers and the
  /// rsnn_serve wire protocol (via serve::ModelRegistry) both funnel through
  /// here. Always returns a valid future resolving with exactly one typed
  /// RequestStatus: a mismatched model_id, malformed codes (see
  /// Request::codes), a closed pool, or a full queue under kNonBlocking or
  /// OnFull::kReject resolve immediately with kRejected and 0 attempts.
  /// Under kBlocking a full queue may evict the newest undispatched bulk
  /// request to admit latency-class work (degradation order: bulk first),
  /// and otherwise blocks under OnFull::kBlock. `admitted`, when given, reports whether the
  /// request entered the queue (false = the returned future is already
  /// resolved). A request that is not admitted is left intact, so a router
  /// can offer it to another pool.
  std::future<ServingResult> submit(Request&& request,
                                    bool* admitted = nullptr);

  /// The routing key this pool serves (ServingPoolOptions::model_id).
  const std::string& model_id() const { return options_.model_id; }

  /// Stop admitting work. drain=true completes everything already admitted
  /// (the destructor's behavior); drain=false resolves undispatched queued
  /// requests with kCancelled (in-flight dispatches still complete).
  /// Idempotent; safe to call before destruction.
  void shutdown(bool drain = true);

  /// Snapshot of the cumulative statistics (percentiles computed here).
  ServingStats stats() const;

  /// Zero the cumulative statistics — e.g. after a warm-up batch, so a
  /// measurement window excludes cold-start engine construction. Health
  /// state and the fault injector's attempt ordinals are preserved.
  void reset_stats();

  int replicas() const { return static_cast<int>(replica_threads_.size()); }
  EngineKind kind() const { return kind_; }
  const ServingPoolOptions& options() const { return options_; }
  /// The armed fault injector; nullptr when the plan is empty.
  const FaultInjector* fault_injector() const { return injector_.get(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Queued {
    TensorI codes;
    std::promise<ServingResult> promise;
    Clock::time_point admitted;
    Clock::time_point deadline;    ///< time_point::max() when none
    Clock::time_point not_before;  ///< retry backoff gate
    PriorityClass priority = PriorityClass::kLatency;
    int attempts = 0;       ///< dispatch attempts consumed so far
    int last_replica = -1;  ///< replica of the last failed attempt
    std::uint64_t seq = 0;  ///< admission order, FIFO tiebreak
  };

  void replica_main(std::size_t replica_index);
  /// Pop the next dispatch of up to max_batch requests (EDF within class,
  /// latency class first, honoring backoff gates and retry-elsewhere);
  /// fails expired requests fast. Empty once the pool is closed and
  /// drained.
  std::vector<Queued> acquire_work(std::size_t replica_index);
  bool admit(TensorI&& codes, const RequestOptions& request,
             std::future<ServingResult>* ticket, bool blocking,
             bool allow_evict);
  /// Record the outcome in stats_ and fulfill the promise, in that order —
  /// a caller that observes a resolved future must also observe its
  /// completion in stats(). Requires mutex_ held (set_value runs no user
  /// code, so fulfilling under the lock cannot deadlock).
  void resolve(Queued&& request, ServingResult&& outcome);
  /// Re-queue a failed request with backoff, or fail it typed once its
  /// attempts are exhausted (or no replica remains to serve it).
  void retry_or_fail(Queued&& request, const std::string& error,
                     std::size_t replica_index, std::int64_t dispatch_seq);
  /// Health bookkeeping after a dispatch: `fault` when any of its attempts
  /// failed, counted once per dispatch; `dead` (a ReplicaDeadError)
  /// quarantines immediately. Returns true when the replica just
  /// transitioned to quarantined.
  bool record_dispatch_health(std::size_t replica_index, bool fault,
                              bool stalled, bool dead);
  /// Handle this replica's quarantine: rebuild (when configured) or retire.
  /// Returns false when the replica thread should exit.
  bool handle_quarantine(std::size_t replica_index);
  /// Fail every queued request with `status` (used when the last active
  /// replica retires, and by shutdown(false)).
  void flush_queue(RequestStatus status, const std::string& error);
  int active_replicas_locked() const;
  /// True when no replica is active and none can come back: with
  /// rebuild_quarantined, a quarantine is a transient state (the replica's
  /// own thread rebuilds it synchronously), so the fleet is only
  /// unrecoverable once every replica thread has actually retired.
  bool fleet_unrecoverable_locked() const;

  const ir::LayerProgram& program_;
  EngineKind kind_;
  const ServingPoolOptions options_;
  std::unique_ptr<FaultInjector> injector_;  ///< armed when plan non-empty

  mutable std::mutex mutex_;
  std::condition_variable cv_not_empty_;
  std::condition_variable cv_not_full_;
  std::deque<Queued> queue_;
  bool closed_ = false;
  std::uint64_t next_seq_ = 0;
  std::int64_t next_dispatch_seq_ = 0;

  // Supervision state, guarded by mutex_.
  std::vector<ReplicaHealth> health_;
  std::vector<int> consecutive_failures_;
  std::vector<int> stall_count_;
  std::size_t retired_replicas_ = 0;  ///< replica threads that have exited

  // Statistics, guarded by mutex_.
  ServingStats stats_;
  std::int64_t dispatched_requests_ = 0;  ///< for mean_batch
  common::LatencyHistogram latencies_;  ///< kOk admission-to-resolve
  Clock::time_point first_admit_;
  Clock::time_point last_complete_;
  bool saw_admit_ = false;

  /// One engine per replica. engines_[r] is only touched by replica r's
  /// dispatcher thread once the constructor has started it.
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::thread> replica_threads_;
};

}  // namespace rsnn::engine
