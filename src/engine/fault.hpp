// Deterministic fault injection for the serving stack.
//
// The serving pool's failure story (replica supervision, retries, typed
// request outcomes) is only trustworthy if every failure mode has a
// reproducible test. A FaultPlan describes *when* faults fire — on a
// replica's Nth execution attempt, or per-attempt with a seeded
// probability — and a FaultInjector arms the plan across the fleet: each
// engine::ServingPool replica consults the injector once per request of a
// dispatch, before the dispatch's one batched engine call.
//
// Three injectable faults:
//   * kError — the attempt throws ReplicaFaultError (a transient failure:
//     a dropped link packet, a flipped DRAM word caught by ECC). The
//     replica survives; only the request whose attempt it was is retried
//     elsewhere, and the rest of the dispatch still runs.
//   * kStall — the attempt sleeps for `stall_ms` before executing (a
//     clock-domain hiccup, a hot DRAM bank). Work completes late; the pool
//     detects the stall from the dispatch duration.
//   * kKill  — the replica dies permanently: this and every later attempt
//     throws ReplicaDeadError until revive() (modelling a rebuilt replica —
//     a re-flashed bitstream) clears the dead flag. The whole dispatch
//     fails and every request of it is retried.
//
// Determinism: the per-attempt ordinal is tracked per replica, and
// probabilistic faults draw from a per-replica Rng seeded with
// plan.seed + replica — so a given replica sees the same fault sequence at
// the same attempt ordinals on every run, regardless of how the OS
// schedules the other replicas.
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace rsnn::engine {

/// Transient injected failure: the attempt is lost but the replica lives.
class ReplicaFaultError : public std::runtime_error {
 public:
  explicit ReplicaFaultError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Permanent injected failure: the replica is dead until revived.
class ReplicaDeadError : public ReplicaFaultError {
 public:
  explicit ReplicaDeadError(const std::string& what)
      : ReplicaFaultError(what) {}
};

enum class FaultKind { kError, kStall, kKill };

/// Canonical fault name: "err" / "stall" / "kill".
const char* fault_kind_name(FaultKind kind);

/// One arming rule: fire `kind` on `replica` (or every replica when -1)
/// either at an exact per-replica attempt ordinal, or per-attempt with a
/// seeded probability. Exactly one of `at_attempt` / `probability` should
/// be set; a spec with neither never fires.
struct FaultSpec {
  FaultKind kind = FaultKind::kError;
  int replica = -1;             ///< target replica index; -1 = any replica
  std::int64_t at_attempt = 0;  ///< fire on this 1-based attempt (0 = off)
  double probability = 0.0;     ///< fire per attempt with this chance
  double stall_ms = 0.0;        ///< kStall: sleep this long, then execute
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> specs;
  bool empty() const { return specs.empty(); }
};

/// Parse a comma-separated fault plan, e.g.
///   "seed:42,kill:r2@5,stall:r0@3x25,err:p0.05,err:r1@7"
///   * seed:<u64>         — RNG seed for probabilistic specs
///   * kill:r<R>@<N>      — replica R dies permanently at its Nth attempt
///   * stall:r<R>@<N>x<MS>— replica R stalls MS milliseconds at attempt N
///   * err:r<R>@<N>       — replica R throws transiently at attempt N
///   * err:p<PROB>        — every attempt on every replica fails with
///                          probability PROB
/// Returns false (with a friendly one-liner in *error) on malformed input.
bool parse_fault_plan(const std::string& text, FaultPlan* plan,
                      std::string* error);

/// Human-readable plan summary, e.g. "kill:r2@5, err:p0.05 (seed 42)".
std::string describe_fault_plan(const FaultPlan& plan);

/// Arms a FaultPlan across a fleet of replicas. Thread-safe: one injector
/// is shared by every replica's dispatcher thread.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int replicas);

  /// Consult the plan before one execution attempt on `replica`. Increments
  /// the replica's attempt ordinal, then applies the first matching spec:
  /// throws ReplicaFaultError / ReplicaDeadError, or sleeps (kStall) and
  /// returns. A dead replica throws on every attempt until revive().
  void before_attempt(int replica);

  bool is_dead(int replica) const;
  /// Clear the dead flag — the pool rebuilt the replica (fresh bitstream).
  void revive(int replica);

  std::int64_t attempts(int replica) const;
  std::int64_t injected_errors() const;
  std::int64_t injected_stalls() const;
  std::int64_t injected_kills() const;

 private:
  const FaultPlan plan_;
  mutable std::mutex mutex_;
  std::vector<std::int64_t> attempts_;
  std::vector<bool> dead_;
  std::vector<Rng> rngs_;  ///< per-replica streams: seed + replica index
  std::int64_t errors_ = 0;
  std::int64_t stalls_ = 0;
  std::int64_t kills_ = 0;
};

}  // namespace rsnn::engine
