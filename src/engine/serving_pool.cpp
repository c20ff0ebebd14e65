#include "engine/serving_pool.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace rsnn::engine {

const char* status_name(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kRejected: return "rejected";
    case RequestStatus::kDeadlineExceeded: return "deadline_exceeded";
    case RequestStatus::kReplicaFailed: return "replica_failed";
    case RequestStatus::kCancelled: return "cancelled";
  }
  RSNN_REQUIRE(false, "unreachable request status");
  return "";
}

const char* priority_name(PriorityClass priority) {
  switch (priority) {
    case PriorityClass::kLatency: return "latency";
    case PriorityClass::kBulk: return "bulk";
  }
  RSNN_REQUIRE(false, "unreachable priority class");
  return "";
}

const char* health_name(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy: return "healthy";
    case ReplicaHealth::kDegraded: return "degraded";
    case ReplicaHealth::kQuarantined: return "quarantined";
  }
  RSNN_REQUIRE(false, "unreachable replica health");
  return "";
}

namespace {

// Replica health thresholds: a failed dispatch or a stall degrades a
// replica; this many consecutive failed dispatches, or this many stalls,
// quarantine it.
constexpr int kQuarantineAfterFailures = 3;
constexpr int kQuarantineAfterStalls = 2;

int class_index(PriorityClass priority) {
  return priority == PriorityClass::kLatency ? 0 : 1;
}

std::chrono::steady_clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Why `codes` cannot be the input of a program whose first op takes
/// `shape` at `time_bits`; empty when they can. Checked at admission, so a
/// malformed request never reaches an engine or fails the batch it would
/// have joined.
std::string malformed_codes(const TensorI& codes, const Shape& shape,
                            int time_bits) {
  if (codes.shape() != shape)
    return "input shape " + codes.shape().to_string() + " != expected " +
           shape.to_string();
  const std::int64_t limit = std::int64_t{1} << time_bits;
  const std::int32_t* data = codes.data();
  for (std::int64_t i = 0; i < codes.numel(); ++i)
    if (data[i] < 0 || data[i] >= limit)
      return "input code " + std::to_string(data[i]) + " at index " +
             std::to_string(i) + " outside [0, " + std::to_string(limit) +
             ") for T=" + std::to_string(time_bits);
  return {};
}

/// Ready future carrying a shed outcome — submit() never returns an
/// invalid future.
std::future<ServingResult> ready_outcome(RequestStatus status,
                                         std::string error) {
  std::promise<ServingResult> promise;
  ServingResult outcome;
  outcome.status = status;
  outcome.error = std::move(error);
  promise.set_value(std::move(outcome));
  return promise.get_future();
}

}  // namespace

ServingPool::ServingPool(const ir::LayerProgram& program, EngineKind kind,
                         ServingPoolOptions options)
    : program_(program), kind_(kind), options_(std::move(options)) {
  RSNN_REQUIRE(program.has_hw_annotations(),
               "serving needs a hardware-lowered program");
  RSNN_REQUIRE(options_.replicas >= 1,
               "serving pool needs at least one replica, got "
                   << options_.replicas);
  RSNN_REQUIRE(options_.queue_capacity >= 1 ||
                   options_.on_full == OnFull::kReject,
               "a zero-capacity admission queue is only legal when a full "
               "queue rejects (every request would block forever)");
  RSNN_REQUIRE(options_.max_batch >= 1,
               "max_batch must be >= 1, got " << options_.max_batch);
  // The batch window and the retry backoff reach ms_duration(), whose
  // steady_clock conversion must not overflow.
  RSNN_REQUIRE(options_.max_wait_ms >= 0.0 &&
                   options_.max_wait_ms <= kMaxDeadlineMs,
               "max_wait_ms must be in [0, " << kMaxDeadlineMs << "], got "
                                             << options_.max_wait_ms);
  RSNN_REQUIRE(options_.max_retries >= 0,
               "max_retries must be >= 0, got " << options_.max_retries);
  RSNN_REQUIRE(options_.backoff_base_ms >= 0.0 &&
                   options_.backoff_cap_ms >= options_.backoff_base_ms &&
                   options_.backoff_cap_ms <= kMaxDeadlineMs,
               "retry backoff needs 0 <= base <= cap <= " << kMaxDeadlineMs
                                                          << ", got base "
                   << options_.backoff_base_ms << " cap "
                   << options_.backoff_cap_ms);
  RSNN_REQUIRE(options_.stall_timeout_ms >= 0.0,
               "stall_timeout_ms must be >= 0, got "
                   << options_.stall_timeout_ms);

  if (!options_.fault_plan.empty())
    injector_ = std::make_unique<FaultInjector>(options_.fault_plan,
                                                options_.replicas);

  // Engines are built here, not on the dispatcher threads, so an engine
  // that cannot be built fails the constructor instead of failing every
  // future request.
  const std::size_t n = static_cast<std::size_t>(options_.replicas);
  stats_.per_replica.assign(n, 0);
  health_.assign(n, ReplicaHealth::kHealthy);
  consecutive_failures_.assign(n, 0);
  stall_count_.assign(n, 0);
  engines_.reserve(n);
  for (std::size_t r = 0; r < n; ++r)
    engines_.push_back(make_engine(kind_, program_));

  replica_threads_.reserve(n);
  try {
    for (std::size_t r = 0; r < n; ++r)
      replica_threads_.emplace_back([this, r] { replica_main(r); });
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_not_empty_.notify_all();
    for (std::thread& thread : replica_threads_) thread.join();
    throw;
  }
}

ServingPool::~ServingPool() {
  // Admitted work is drained, not dropped: dispatchers keep pulling until
  // the queue is empty, so every promise handed out by submit() is kept.
  shutdown(/*drain=*/true);
  for (std::thread& thread : replica_threads_) thread.join();
}

void ServingPool::shutdown(bool drain) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    if (!drain)
      flush_queue(RequestStatus::kCancelled, "cancelled at shutdown");
  }
  cv_not_empty_.notify_all();
  cv_not_full_.notify_all();
}

int ServingPool::active_replicas_locked() const {
  int active = 0;
  for (const ReplicaHealth health : health_)
    if (health != ReplicaHealth::kQuarantined) ++active;
  return active;
}

bool ServingPool::fleet_unrecoverable_locked() const {
  if (active_replicas_locked() > 0) return false;
  // Without rebuild, quarantine is terminal — zero active means nothing
  // will ever drain the queue. With rebuild, a quarantined replica is
  // mid-rebuild on its own thread and about to come back (or retire on
  // rebuild failure): only a fully retired fleet is beyond recovery.
  return !options_.rebuild_quarantined ||
         retired_replicas_ == engines_.size();
}

void ServingPool::resolve(Queued&& request, ServingResult&& outcome) {
  // Statistics are recorded under the same lock that fulfills the promise:
  // a caller that observes a resolved future must also observe its
  // completion in stats(). std::promise::set_value runs no user code, so
  // holding mutex_ across it cannot deadlock.
  const auto now = Clock::now();
  ClassStats& pc = stats_.per_class[class_index(request.priority)];
  switch (outcome.status) {
    case RequestStatus::kOk: {
      ++stats_.completed;
      ++pc.ok;
      latencies_.record(
          std::chrono::duration_cast<
              std::chrono::duration<double, std::milli>>(now -
                                                         request.admitted)
              .count());
      if (outcome.replica >= 0)
        stats_.per_replica[static_cast<std::size_t>(outcome.replica)] += 1;
      last_complete_ = now;
      break;
    }
    case RequestStatus::kRejected:
      ++stats_.rejected;
      ++pc.rejected;
      break;
    case RequestStatus::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      ++pc.deadline_exceeded;
      break;
    case RequestStatus::kReplicaFailed:
      ++stats_.failed;
      ++pc.failed;
      last_complete_ = now;
      break;
    case RequestStatus::kCancelled:
      ++stats_.cancelled;
      ++pc.cancelled;
      break;
  }
  request.promise.set_value(std::move(outcome));
}

void ServingPool::flush_queue(RequestStatus status,
                              const std::string& error) {
  while (!queue_.empty()) {
    Queued request = std::move(queue_.front());
    queue_.pop_front();
    ServingResult outcome;
    outcome.status = status;
    outcome.error = error;
    outcome.attempts = request.attempts;
    resolve(std::move(request), std::move(outcome));
  }
  cv_not_full_.notify_all();
}

bool ServingPool::admit(TensorI&& codes, const RequestOptions& request,
                        std::future<ServingResult>* ticket, bool blocking,
                        bool allow_evict) {
  RSNN_REQUIRE(request.deadline_ms >= 0.0 &&
                   request.deadline_ms <= kMaxDeadlineMs,
               "request deadline must be in [0, " << kMaxDeadlineMs
                                                  << "] ms, got "
                                                  << request.deadline_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  ClassStats& pc = stats_.per_class[class_index(request.priority)];
  ++pc.submitted;
  for (;;) {
    if (closed_) {
      ++stats_.rejected;
      ++pc.rejected;
      *ticket = ready_outcome(RequestStatus::kRejected, "pool is shut down");
      return false;
    }
    if (fleet_unrecoverable_locked()) {
      ++stats_.failed;
      ++pc.failed;
      *ticket = ready_outcome(RequestStatus::kReplicaFailed,
                              "no active replicas remain");
      return false;
    }
    if (queue_.size() < options_.queue_capacity) break;
    // Degradation order under overload: the bulk lane is shed first. A full
    // queue holding undispatched bulk work evicts its newest bulk request
    // to admit latency-class work.
    if (allow_evict && request.priority == PriorityClass::kLatency) {
      std::size_t victim = queue_.size();
      for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Queued& queued = queue_[i];
        if (queued.priority != PriorityClass::kBulk || queued.attempts != 0)
          continue;
        if (victim == queue_.size() || queued.seq > queue_[victim].seq)
          victim = i;
      }
      if (victim != queue_.size()) {
        Queued evicted = std::move(queue_[victim]);
        queue_.erase(queue_.begin() +
                     static_cast<std::deque<Queued>::difference_type>(victim));
        ++stats_.shed_bulk;
        ServingResult outcome;
        outcome.status = RequestStatus::kRejected;
        outcome.error = "shed: bulk evicted for latency-class work";
        resolve(std::move(evicted), std::move(outcome));
        continue;  // re-check: there is room now
      }
    }
    if (!blocking) {
      ++stats_.rejected;
      ++pc.rejected;
      *ticket = ready_outcome(RequestStatus::kRejected,
                              "admission queue is full");
      return false;
    }
    cv_not_full_.wait(lock);
  }

  Queued admitted;
  admitted.codes = std::move(codes);
  admitted.admitted = Clock::now();
  admitted.deadline = request.deadline_ms > 0.0
                          ? admitted.admitted + ms_duration(request.deadline_ms)
                          : Clock::time_point::max();
  admitted.not_before = admitted.admitted;
  admitted.priority = request.priority;
  admitted.seq = next_seq_++;
  *ticket = admitted.promise.get_future();
  ++stats_.submitted;
  if (!saw_admit_) {
    saw_admit_ = true;
    first_admit_ = admitted.admitted;
  }
  queue_.push_back(std::move(admitted));
  cv_not_empty_.notify_one();
  return true;
}

std::future<ServingResult> ServingPool::submit(Request&& request,
                                               bool* admitted) {
  // A request addressed to a different model, or whose codes this program
  // cannot take, never queues here. The registry routes before the model
  // check; it exists so a misrouted direct submission resolves typed instead
  // of computing the wrong model's logits.
  const std::string refusal =
      request.model_id != options_.model_id && !request.model_id.empty()
          ? "unknown model '" + request.model_id + "' (this pool serves '" +
                options_.model_id + "')"
          : malformed_codes(request.codes, program_.op(0).in_shape,
                            program_.time_bits());
  if (!refusal.empty()) {
    if (admitted != nullptr) *admitted = false;
    const std::lock_guard<std::mutex> lock(mutex_);
    ClassStats& pc = stats_.per_class[class_index(request.options.priority)];
    ++pc.submitted;
    ++pc.rejected;
    ++stats_.rejected;
    return ready_outcome(RequestStatus::kRejected, refusal);
  }
  const bool blocking =
      request.options.admission == AdmissionMode::kBlocking &&
      options_.on_full == OnFull::kBlock;
  const bool allow_evict =
      request.options.admission == AdmissionMode::kBlocking;
  std::future<ServingResult> ticket;
  const bool entered = admit(std::move(request.codes), request.options,
                             &ticket, blocking, allow_evict);
  if (admitted != nullptr) *admitted = entered;
  return ticket;  // always valid: shed requests resolve immediately
}

std::vector<ServingPool::Queued> ServingPool::acquire_work(
    std::size_t replica_index) {
  std::unique_lock<std::mutex> lock(mutex_);

  // Dispatch order: latency class before bulk, earliest deadline first
  // within a class, admission order otherwise.
  const auto ranks_before = [](const Queued& a, const Queued& b) {
    const int ca = class_index(a.priority), cb = class_index(b.priority);
    if (ca != cb) return ca < cb;
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.seq < b.seq;
  };

  // Pick the best eligible queued request, failing expired requests fast as
  // a side effect. Eligibility honors retry gates unless the pool is
  // draining: a retried request waits out its backoff and prefers a replica
  // other than the one that just failed it (when another is active).
  const auto pick_best = [&](Clock::time_point now) -> std::size_t {
    for (std::size_t i = 0; i < queue_.size();) {
      if (queue_[i].deadline <= now) {
        Queued expired = std::move(queue_[i]);
        queue_.erase(queue_.begin() +
                     static_cast<std::deque<Queued>::difference_type>(i));
        cv_not_full_.notify_all();
        ServingResult outcome;
        outcome.status = RequestStatus::kDeadlineExceeded;
        outcome.error = "deadline expired before dispatch";
        outcome.attempts = expired.attempts;
        resolve(std::move(expired), std::move(outcome));
      } else {
        ++i;
      }
    }
    int other_active = 0;
    for (std::size_t r = 0; r < health_.size(); ++r)
      if (r != replica_index && health_[r] != ReplicaHealth::kQuarantined)
        ++other_active;
    std::size_t best = queue_.size();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Queued& req = queue_[i];
      if (!closed_) {
        if (req.not_before > now) continue;
        if (req.attempts > 0 && other_active > 0 &&
            req.last_replica == static_cast<int>(replica_index))
          continue;
      }
      if (best == queue_.size() || ranks_before(req, queue_[best])) best = i;
    }
    return best;
  };

  // Earliest instant at which an ineligible queued request changes state —
  // a backoff gate opening or a deadline to fail fast.
  const auto next_wake = [&](Clock::time_point now) {
    auto wake = Clock::time_point::max();
    for (const Queued& req : queue_) {
      if (req.not_before > now) wake = std::min(wake, req.not_before);
      wake = std::min(wake, req.deadline);
    }
    return wake;
  };

  const auto pop_at = [&](std::size_t index) {
    Queued picked = std::move(queue_[index]);
    queue_.erase(queue_.begin() +
                 static_cast<std::deque<Queued>::difference_type>(index));
    cv_not_full_.notify_all();
    ++picked.attempts;
    return picked;
  };

  std::vector<Queued> work;
  for (;;) {
    const auto now = Clock::now();
    const std::size_t best = pick_best(now);
    if (best != queue_.size()) {
      work.push_back(pop_at(best));
      break;
    }
    if (closed_ && queue_.empty()) return {};
    const auto wake = next_wake(now);
    if (wake == Clock::time_point::max())
      cv_not_empty_.wait(lock);
    else
      cv_not_empty_.wait_until(lock, wake);
  }

  // Take up to max_batch - 1 more, holding for company until the *oldest*
  // request's window expires — a window that passes with one pending item
  // dispatches that item alone.
  const auto window = work.front().admitted + ms_duration(options_.max_wait_ms);
  while (work.size() < options_.max_batch) {
    const auto now = Clock::now();
    const std::size_t best = pick_best(now);
    if (best != queue_.size()) {
      work.push_back(pop_at(best));
      continue;
    }
    if (closed_ || now >= window) break;
    cv_not_empty_.wait_until(lock, std::min(window, next_wake(now)));
  }
  return work;
}

bool ServingPool::record_dispatch_health(std::size_t replica_index,
                                         bool fault, bool stalled, bool dead) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fault) {
    ++consecutive_failures_[replica_index];
    ++stats_.replica_failures;
  } else {
    consecutive_failures_[replica_index] = 0;
  }
  if (stalled) {
    ++stall_count_[replica_index];
    ++stats_.stalls;
  }
  const ReplicaHealth before = health_[replica_index];
  ReplicaHealth after = ReplicaHealth::kHealthy;
  if (dead ||
      consecutive_failures_[replica_index] >= kQuarantineAfterFailures ||
      stall_count_[replica_index] >= kQuarantineAfterStalls)
    after = ReplicaHealth::kQuarantined;
  else if (consecutive_failures_[replica_index] > 0 ||
           stall_count_[replica_index] > 0)
    after = ReplicaHealth::kDegraded;
  if (before != ReplicaHealth::kQuarantined) health_[replica_index] = after;
  return before != ReplicaHealth::kQuarantined &&
         health_[replica_index] == ReplicaHealth::kQuarantined;
}

bool ServingPool::handle_quarantine(std::size_t replica_index) {
  if (!options_.rebuild_quarantined) return false;
  // A rebuilt replica models a re-flashed device: fresh engine, fault
  // injector dead-flag cleared, health and supervision counters reset. The
  // swap is safe without further coordination — only this replica's own
  // dispatcher thread ever touches engines_[replica_index].
  std::unique_ptr<Engine> rebuilt;
  try {
    rebuilt = make_engine(kind_, program_);
  } catch (...) {
    return false;  // rebuild failed: retire the replica
  }
  if (injector_) injector_->revive(static_cast<int>(replica_index));
  engines_[replica_index] = std::move(rebuilt);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    health_[replica_index] = ReplicaHealth::kHealthy;
    consecutive_failures_[replica_index] = 0;
    stall_count_[replica_index] = 0;
    ++stats_.rebuilds;
  }
  cv_not_full_.notify_all();  // an active replica is back
  return true;
}

void ServingPool::retry_or_fail(Queued&& request, const std::string& error,
                                std::size_t replica_index,
                                std::int64_t dispatch_seq) {
  request.last_replica = static_cast<int>(replica_index);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (request.attempts > options_.max_retries ||
      fleet_unrecoverable_locked()) {
    ServingResult outcome;
    outcome.status = RequestStatus::kReplicaFailed;
    outcome.error = error;
    outcome.attempts = request.attempts;
    outcome.dispatch_seq = dispatch_seq;
    resolve(std::move(request), std::move(outcome));
    return;
  }
  // Bounded exponential backoff before the next attempt; inference is pure,
  // so re-running the same codes on another replica is always safe.
  const double backoff_ms =
      std::min(options_.backoff_cap_ms,
               options_.backoff_base_ms *
                   std::pow(2.0, static_cast<double>(request.attempts - 1)));
  request.not_before = Clock::now() + ms_duration(backoff_ms);
  ++stats_.retries;
  queue_.push_back(std::move(request));
  cv_not_empty_.notify_all();
}

void ServingPool::replica_main(std::size_t replica_index) {
  // The codes, results and fault arrays live as long as the replica. Each
  // kOk result is moved out to its caller, so a warm dispatch reuses only
  // the arrays, not the result objects' storage.
  std::vector<TensorI> codes;
  std::vector<hw::AccelRunResult> results;
  std::vector<char> faulted;  // faulted[i]: request i's injected attempt threw
  for (;;) {
    std::vector<Queued> work = acquire_work(replica_index);
    if (work.empty()) return;  // closed and drained

    std::int64_t dispatch_seq = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      dispatch_seq = next_dispatch_seq_++;
      ++stats_.dispatches;
      dispatched_requests_ += static_cast<std::int64_t>(work.size());
    }

    faulted.assign(work.size(), 0);
    bool failed = false, dead = false;
    std::string error_text;
    const auto begin = Clock::now();
    try {
      // With a fault plan armed, each request first spends one injector
      // attempt. A transient fault costs only its own request that attempt;
      // a kill throws out of the whole dispatch, because the replica is dead.
      if (injector_) {
        for (std::size_t i = 0; i < work.size(); ++i) {
          try {
            injector_->before_attempt(static_cast<int>(replica_index));
          } catch (const ReplicaDeadError&) {
            throw;
          } catch (const ReplicaFaultError& e) {
            faulted[i] = 1;
            error_text = e.what();
          }
        }
      }
      // The other requests' codes move into one batched engine call; a
      // failed call moves them back, so the requests re-queue with them.
      for (std::size_t i = 0; i < work.size(); ++i)
        if (!faulted[i]) codes.push_back(std::move(work[i].codes));
      results.resize(codes.size());
      if (!codes.empty())
        engines_[replica_index]->run_codes_batched_into(
            codes.data(), codes.size(), results.data());
    } catch (const ReplicaDeadError& e) {
      failed = dead = true;
      error_text = e.what();
    } catch (const std::exception& e) {
      failed = true;
      error_text = e.what();
    } catch (...) {
      failed = true;
      error_text = "unknown replica error";
    }
    const double duration_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            Clock::now() - begin)
            .count();
    const bool stalled = options_.stall_timeout_ms > 0.0 &&
                         duration_ms > options_.stall_timeout_ms;

    // Any fault in the dispatch counts once against the replica's health.
    const bool fault =
        failed || std::find(faulted.begin(), faulted.end(), 1) != faulted.end();
    bool serving = true;
    if (record_dispatch_health(replica_index, fault, stalled, dead))
      serving = handle_quarantine(replica_index);

    if (!failed) {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0, k = 0; i < work.size(); ++i) {
        if (faulted[i]) continue;
        ServingResult outcome;
        outcome.status = RequestStatus::kOk;
        outcome.result = std::move(results[k++]);
        outcome.attempts = work[i].attempts;
        outcome.replica = static_cast<int>(replica_index);
        outcome.dispatch_seq = dispatch_seq;
        resolve(std::move(work[i]), std::move(outcome));
      }
    }
    // Faulted requests, and every request of a failed dispatch, retry.
    for (std::size_t i = 0, k = 0; i < work.size(); ++i) {
      if (!faulted[i]) {
        if (!failed) continue;  // resolved kOk above
        // The codes went into the engine call, unless a kill came first.
        if (k < codes.size()) work[i].codes = std::move(codes[k++]);
      }
      retry_or_fail(std::move(work[i]), error_text, replica_index,
                    dispatch_seq);
    }
    codes.clear();

    if (!serving) {
      // Retiring (quarantined with rebuild off, or the rebuild failed). If
      // the fleet cannot recover, nothing will ever drain the queue: fail
      // it fast, and wake producers blocked on a queue no replica will
      // empty.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++retired_replicas_;
        if (fleet_unrecoverable_locked())
          flush_queue(RequestStatus::kReplicaFailed,
                      "no active replicas remain");
      }
      cv_not_empty_.notify_all();
      cv_not_full_.notify_all();
      return;
    }
  }
}

void ServingPool::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ = ServingStats{};
  stats_.per_replica.assign(engines_.size(), 0);
  latencies_.clear();
  dispatched_requests_ = 0;
  saw_admit_ = false;
}

ServingStats ServingPool::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  ServingStats out = stats_;
  out.replica_health = health_;
  out.active_replicas = active_replicas_locked();
  out.p50_latency_ms = latencies_.quantile_ms(0.50);
  out.p99_latency_ms = latencies_.quantile_ms(0.99);
  const std::int64_t dispatched = dispatched_requests_;
  const bool windowed = saw_admit_ && (out.completed + out.failed) > 0;
  const double wall_s =
      windowed ? std::chrono::duration_cast<std::chrono::duration<double>>(
                     last_complete_ - first_admit_)
                     .count()
               : 0.0;
  lock.unlock();

  out.mean_batch = out.dispatches > 0
                       ? static_cast<double>(dispatched) /
                             static_cast<double>(out.dispatches)
                       : 0.0;
  for (ClassStats& pc : out.per_class) {
    const std::int64_t accepted = pc.submitted - pc.rejected;
    pc.goodput = accepted > 0
                     ? static_cast<double>(pc.ok) /
                           static_cast<double>(accepted)
                     : 0.0;
  }
  out.wall_images_per_sec =
      wall_s > 0.0 ? static_cast<double>(out.completed) / wall_s : 0.0;
  return out;
}

}  // namespace rsnn::engine
