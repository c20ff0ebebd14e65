// Fault tolerance: deterministic fault injection, replica supervision
// (degrade / quarantine / rebuild), per-request deadlines and priority
// classes, bounded retry with backoff, graceful degradation under overload,
// and the chaos acceptance run — a seeded plan killing one replica mid-run
// with transient errors sprinkled on top, under which every request must
// still resolve with a typed outcome and bit-identical logits.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "engine/serving_pool.hpp"
#include "hw/accelerator.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

namespace rsnn::engine {
namespace {

using rsnn::testing::request_for;
using rsnn::testing::serve_batch;

/// LeNet-5 at T=4 on the paper's reference design — the acceptance workload.
struct LeNetFixture {
  quant::QuantizedNetwork qnet;
  ir::LayerProgram program;

  LeNetFixture() {
    Rng rng(2024);
    nn::Network lenet = nn::make_lenet5();
    lenet.init_params(rng);
    qnet = quant::quantize(lenet, quant::QuantizeConfig{3, 4});
    program = ir::lower(qnet, hw::lenet_reference_config());
  }
};

std::vector<TensorI> lenet_batch(int count, int T) {
  Rng rng(99);
  std::vector<TensorI> codes;
  for (int i = 0; i < count; ++i)
    codes.push_back(quant::encode_activations(
        rsnn::testing::random_image(Shape{1, 32, 32}, rng), T));
  return codes;
}

/// A conv+pool+linear toy at T=4 whose service time is microseconds even
/// under sanitizers — for wall-clock-sensitive tests (stall budgets,
/// deadlines) where LeNet's real inference time would race the thresholds.
struct TinyFixture {
  quant::QuantizedNetwork qnet;
  ir::LayerProgram program;

  TinyFixture() {
    Rng rng(5);
    nn::Network net(Shape{1, 16, 16});
    net.add<nn::Conv2d>(nn::Conv2dConfig{1, 8, 3, 1, 0});
    net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
    net.add<nn::Pool2d>(nn::Pool2dConfig{2});
    net.add<nn::Flatten>();
    net.add<nn::Linear>(nn::LinearConfig{8 * 7 * 7, 10});
    net.init_params(rng);
    qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});
    hw::AcceleratorConfig config;
    config.num_conv_units = 2;
    config.conv = hw::ConvUnitGeometry{16, 3, 24};
    config.pool = hw::PoolUnitGeometry{8, 2, 16};
    config.linear = hw::LinearUnitGeometry{8, 24};
    program = ir::lower(qnet, config);
  }
};

std::vector<TensorI> tiny_batch(int count, int T) {
  Rng rng(99);
  std::vector<TensorI> codes;
  for (int i = 0; i < count; ++i)
    codes.push_back(quant::encode_activations(
        rsnn::testing::random_image(Shape{1, 16, 16}, rng), T));
  return codes;
}

std::vector<hw::AccelRunResult> monolithic_reference(
    const ir::LayerProgram& program, EngineKind kind,
    const std::vector<TensorI>& batch) {
  auto engine = make_engine(kind, program);
  std::vector<hw::AccelRunResult> results;
  for (const TensorI& codes : batch) results.push_back(engine->run_codes(codes));
  return results;
}

FaultPlan plan_of(const std::string& text) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(parse_fault_plan(text, &plan, &error)) << error;
  return plan;
}

// ----------------------------------------------------- plan parsing

TEST(FaultPlan, ParsesEverySpecKind) {
  const FaultPlan plan =
      plan_of("seed:42,kill:r2@5,stall:r0@3x25,err:p0.05,err:r1@7");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.specs.size(), 4u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kKill);
  EXPECT_EQ(plan.specs[0].replica, 2);
  EXPECT_EQ(plan.specs[0].at_attempt, 5);
  EXPECT_EQ(plan.specs[1].kind, FaultKind::kStall);
  EXPECT_DOUBLE_EQ(plan.specs[1].stall_ms, 25.0);
  EXPECT_EQ(plan.specs[2].kind, FaultKind::kError);
  EXPECT_DOUBLE_EQ(plan.specs[2].probability, 0.05);
  EXPECT_EQ(plan.specs[2].replica, -1);
  EXPECT_EQ(plan.specs[3].replica, 1);

  const std::string described = describe_fault_plan(plan);
  EXPECT_NE(described.find("kill:r2@5"), std::string::npos) << described;
  EXPECT_NE(described.find("seed 42"), std::string::npos) << described;
  EXPECT_EQ(describe_fault_plan(FaultPlan{}), "none");

  // An empty plan text parses to an empty (disarmed) plan.
  EXPECT_TRUE(plan_of("").empty());
}

TEST(FaultPlan, RejectsMalformedSpecsWithFriendlyErrors) {
  const std::vector<std::string> bad = {
      "kill:r2",      // missing @attempt
      "kill:r2@0",    // attempts are 1-based
      "kill:@5",      // missing replica
      "stall:r0@3",   // missing duration
      "err:p1.5",     // probability above 1
      "err:px",       // not a number
      "seed:abc",     // not a u64
      "bogus:1",      // unknown kind
  };
  for (const std::string& text : bad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(parse_fault_plan(text, &plan, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
    EXPECT_EQ(error.find('\n'), std::string::npos)
        << "errors are one-liners: " << error;
  }
}

// ------------------------------------------------ injector determinism

TEST(FaultInjector, SeededPlansReplayIdentically) {
  const FaultPlan plan = plan_of("seed:7,err:p0.3");
  FaultInjector a(plan, 2), b(plan, 2);
  const auto sequence = [](FaultInjector& injector, int replica) {
    std::vector<bool> threw;
    for (int i = 0; i < 64; ++i) {
      try {
        injector.before_attempt(replica);
        threw.push_back(false);
      } catch (const ReplicaFaultError&) {
        threw.push_back(true);
      }
    }
    return threw;
  };
  // Interleave replica 1 on `a` to prove per-replica streams are
  // independent: replica 0's fault sequence must not shift.
  const auto noise = sequence(a, 1);
  EXPECT_EQ(sequence(a, 0), sequence(b, 0));
  EXPECT_EQ(noise, sequence(b, 1));
  EXPECT_EQ(a.attempts(0), 64);
  EXPECT_GT(a.injected_errors(), 0);
}

TEST(FaultInjector, KillIsPermanentUntilRevived) {
  FaultInjector injector(plan_of("kill:r0@2"), 1);
  EXPECT_NO_THROW(injector.before_attempt(0));
  EXPECT_THROW(injector.before_attempt(0), ReplicaDeadError);
  EXPECT_TRUE(injector.is_dead(0));
  EXPECT_THROW(injector.before_attempt(0), ReplicaDeadError);
  injector.revive(0);
  EXPECT_FALSE(injector.is_dead(0));
  EXPECT_NO_THROW(injector.before_attempt(0));
  EXPECT_EQ(injector.injected_kills(), 1);

  // Specs aimed past the fleet fail construction, not the Nth attempt.
  EXPECT_THROW(FaultInjector(plan_of("kill:r3@1"), 2), ContractViolation);
}

// --------------------------------------------------- retry and health

TEST(ServingPool, TransientFaultRetriesOnAnotherReplica) {
  const LeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  ServingPoolOptions options;
  options.replicas = 2;
  options.fault_plan = plan_of("err:r0@1,err:r0@2");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  // Whichever replica draws the request, it resolves kOk: replica 0's two
  // poisoned attempts are retried (preferentially on replica 1).
  const auto run = serve_batch(pool, batch);
  ASSERT_EQ(run[0].status, RequestStatus::kOk)
      << run[0].error;
  EXPECT_EQ(run[0].result.logits, reference[0].logits);

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.retries, stats.replica_failures);
  EXPECT_EQ(stats.failed, 0);
}

TEST(ServingPool, TransientFaultInABatchRetriesOnlyItsOwnRequest) {
  // One replica batching four requests under err:r0@3: only the request
  // whose attempt faulted re-queues. The other three run in the dispatch's
  // one batched call, so the plan costs one retry and five injector
  // attempts, not a second attempt for every request of the batch.
  const LeNetFixture fx;
  const auto batch = lenet_batch(4, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kCycleAccurate, batch);

  ServingPoolOptions options;
  options.max_batch = 4;
  options.max_wait_ms = 50.0;
  options.fault_plan = plan_of("err:r0@3");
  ServingPool pool(fx.program, EngineKind::kCycleAccurate, options);

  const auto run = serve_batch(pool, batch);
  int retried = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(run[i].status, RequestStatus::kOk)
        << "image " << i << ": " << run[i].error;
    EXPECT_EQ(run[i].result.logits, reference[i].logits) << "image " << i;
    if (run[i].attempts == 2)
      ++retried;
    else
      EXPECT_EQ(run[i].attempts, 1) << "image " << i;
  }
  EXPECT_EQ(retried, 1);

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.replica_failures, 1);
  EXPECT_GT(stats.mean_batch, 1.0);
  ASSERT_NE(pool.fault_injector(), nullptr);
  EXPECT_EQ(pool.fault_injector()->attempts(0), 5);
}

TEST(ServingPool, RetryStormIsBoundedByBackoffCap) {
  // Every attempt fails (err:p1.0): each request must consume exactly
  // max_retries + 1 attempts and resolve kReplicaFailed — no unbounded
  // retry storm, no hang. Quarantined replicas are rebuilt, so the fleet
  // never empties and only the retry bound ends a request.
  const LeNetFixture fx;
  const auto batch = lenet_batch(3, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.replicas = 2;
  options.max_retries = 2;
  options.backoff_base_ms = 0.05;
  options.backoff_cap_ms = 0.2;
  options.rebuild_quarantined = true;
  options.fault_plan = plan_of("err:p1.0");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  const auto run = serve_batch(pool, batch);
  for (const ServingResult& result : run) {
    EXPECT_EQ(result.status, RequestStatus::kReplicaFailed);
    EXPECT_EQ(result.attempts, options.max_retries + 1);
    EXPECT_FALSE(result.error.empty());
  }
  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.failed, 3);
  EXPECT_EQ(stats.retries, 3 * options.max_retries);
  EXPECT_DOUBLE_EQ(stats.per_class[0].goodput, 0.0);
}

TEST(ServingPool, DeadReplicaQuarantinesAndFailsFast) {
  // Single replica, killed on its first attempt, no rebuild: every queued
  // request resolves kReplicaFailed (no hang, no invalid future), and later
  // submissions fail fast instead of queueing for a fleet of zero.
  const LeNetFixture fx;
  const auto batch = lenet_batch(3, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.fault_plan = plan_of("kill:r0@1");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  const auto run = serve_batch(pool, batch);
  for (const ServingResult& result : run) {
    EXPECT_EQ(result.status, RequestStatus::kReplicaFailed);
    EXPECT_FALSE(result.error.empty());
  }

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.active_replicas, 0);
  ASSERT_EQ(stats.replica_health.size(), 1u);
  EXPECT_EQ(stats.replica_health[0], ReplicaHealth::kQuarantined);

  auto late = pool.submit(request_for(batch[0]));
  const ServingResult result = late.get();
  EXPECT_EQ(result.status, RequestStatus::kReplicaFailed);
  EXPECT_NE(result.error.find("no active replicas"), std::string::npos);
}

TEST(ServingPool, DyingReplicaHandsInFlightBatchToSurvivor) {
  // Replica 0 dies on its first batched dispatch and the in-flight batch is
  // retried, bit-identical, on replica 1. Two batches' worth of work, so
  // replica 0 is guaranteed a dispatch no matter which replica wins the
  // race for the first batch (a single batch can be swallowed whole by
  // replica 1, leaving replica 0 — and the kill — untouched).
  const LeNetFixture fx;
  const auto batch = lenet_batch(8, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  ServingPoolOptions options;
  options.replicas = 2;
  options.max_batch = 4;
  options.max_wait_ms = 20.0;
  options.fault_plan = plan_of("kill:r0@1");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  const auto run = serve_batch(pool, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(run[i].status, RequestStatus::kOk) << "image " << i;
    EXPECT_EQ(run[i].result.logits, reference[i].logits)
        << "image " << i;
    EXPECT_EQ(run[i].replica, 1) << "image " << i;
  }
  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.active_replicas, 1);
  EXPECT_EQ(stats.replica_health[0], ReplicaHealth::kQuarantined);
  EXPECT_EQ(stats.completed, 8);
}

TEST(ServingPool, QuarantinedReplicaIsRebuiltWhenConfigured) {
  // The same killed single replica, but with rebuild enabled: the pool
  // re-creates the engine (re-flashes the device), revives the injector
  // dead flag, and the retried request completes.
  const LeNetFixture fx;
  const auto batch = lenet_batch(2, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  ServingPoolOptions options;
  options.rebuild_quarantined = true;
  options.fault_plan = plan_of("kill:r0@1");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  const auto run = serve_batch(pool, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(run[i].status, RequestStatus::kOk)
        << "image " << i << ": " << status_name(run[i].status)
        << " after " << run[i].attempts
        << " attempt(s): " << run[i].error;
    EXPECT_EQ(run[i].result.logits, reference[i].logits)
        << "image " << i;
  }

  const ServingStats stats = pool.stats();
  EXPECT_GE(stats.rebuilds, 1);
  EXPECT_EQ(stats.active_replicas, 1);
  EXPECT_EQ(stats.replica_health[0], ReplicaHealth::kHealthy);
  ASSERT_NE(pool.fault_injector(), nullptr);
  EXPECT_FALSE(pool.fault_injector()->is_dead(0));
}

TEST(ServingPool, StallDetectionDegradesAndQuarantines) {
  // One replica against a 250ms stall budget, so every attempt is replica
  // 0's and the stall counts are deterministic. The tiny fixture keeps
  // natural service in the microseconds even sanitized and loaded, so only
  // the injected 500ms stalls can trip detection. Stalled work still
  // completes: stalls deliver late, they do not fail.
  const TinyFixture fx;
  const auto batch = tiny_batch(6, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.stall_timeout_ms = 250.0;
  {
    // One stall degrades the replica; it keeps serving the rest.
    options.fault_plan = plan_of("stall:r0@1x500");
    ServingPool pool(fx.program, EngineKind::kReference, options);
    const auto run = serve_batch(pool, batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(run[i].status, RequestStatus::kOk)
          << "image " << i << ": stalled work still completes";

    const ServingStats stats = pool.stats();
    EXPECT_EQ(stats.completed, static_cast<std::int64_t>(batch.size()));
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.stalls, 1);
    EXPECT_EQ(stats.replica_health[0], ReplicaHealth::kDegraded);
    EXPECT_EQ(stats.active_replicas, 1);
  }
  {
    // The second stall quarantines it; with rebuild on, the rebuilt replica
    // rejoins healthy and serves the rest.
    options.fault_plan = plan_of("stall:r0@1x500,stall:r0@2x500");
    options.rebuild_quarantined = true;
    ServingPool pool(fx.program, EngineKind::kReference, options);
    const auto run = serve_batch(pool, batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(run[i].status, RequestStatus::kOk)
          << "image " << i << ": " << run[i].error;

    const ServingStats stats = pool.stats();
    EXPECT_EQ(stats.completed, static_cast<std::int64_t>(batch.size()));
    EXPECT_EQ(stats.failed, 0);
    EXPECT_EQ(stats.stalls, 2);
    EXPECT_EQ(stats.rebuilds, 1);
    EXPECT_EQ(stats.replica_health[0], ReplicaHealth::kHealthy);
    EXPECT_EQ(stats.active_replicas, 1);
  }
}

// ------------------------------------------------------- dispatch rule

TEST(ServingPool, DispatchTakesUpToMaxBatchWithoutHolding) {
  // One replica held by a 100ms stall on its first dispatch while six more
  // requests queue behind it; the dispatch rule alone then groups them.
  // max_batch 1 takes them one at a time (seven dispatches), and max_batch
  // 4 with no hold takes four and then two (three dispatches).
  const TinyFixture fx;
  const auto batch = tiny_batch(7, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("max_batch " + std::to_string(max_batch));
    ServingPoolOptions options;
    options.max_batch = max_batch;
    if (max_batch > 1) options.max_wait_ms = 0.0;
    options.fault_plan = plan_of("stall:r0@1x100");
    ServingPool pool(fx.program, EngineKind::kReference, options);

    std::vector<std::future<ServingResult>> tickets;
    tickets.push_back(pool.submit(request_for(batch[0])));
    // Queue the rest only once the stalled dispatch holds the first request,
    // so that dispatch cannot take any of them.
    while (pool.stats().dispatches < 1) std::this_thread::yield();
    for (std::size_t i = 1; i < batch.size(); ++i)
      tickets.push_back(pool.submit(request_for(batch[i])));

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const ServingResult result = tickets[i].get();
      ASSERT_EQ(result.status, RequestStatus::kOk)
          << "image " << i << ": " << result.error;
      EXPECT_EQ(result.result.logits, reference[i].logits) << "image " << i;
      EXPECT_EQ(result.attempts, 1) << "image " << i;
      // FIFO among deadline-less requests: dispatch 0 is the stalled one,
      // then each dispatch takes the next max_batch in admission order.
      const std::int64_t expected_seq =
          i == 0 ? 0
                 : 1 + static_cast<std::int64_t>((i - 1) / max_batch);
      EXPECT_EQ(result.dispatch_seq, expected_seq) << "image " << i;
    }
    const ServingStats stats = pool.stats();
    EXPECT_EQ(stats.completed, 7);
    EXPECT_EQ(stats.dispatches, max_batch == 1 ? 7 : 3);
    EXPECT_DOUBLE_EQ(stats.mean_batch, max_batch == 1 ? 1.0 : 7.0 / 3.0);
  }
}

// ------------------------------------------- deadlines and priorities

TEST(ServingPool, QueuedDeadlineExpiresTyped) {
  // One replica held busy by an injected 150ms stall; a queued request with
  // a 10ms deadline must fail fast with kDeadlineExceeded once the
  // dispatcher returns — it never occupies the replica.
  const TinyFixture fx;
  const auto batch = tiny_batch(2, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.fault_plan = plan_of("stall:r0@1x150");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  auto blocker = pool.submit(request_for(batch[0]));
  // Let the dispatcher pull the blocker first — submitted back-to-back, EDF
  // would dispatch the deadlined request ahead of the deadline-less blocker.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  RequestOptions hurried;
  hurried.deadline_ms = 10.0;
  auto doomed = pool.submit(request_for(batch[1], hurried));

  EXPECT_EQ(blocker.get().status, RequestStatus::kOk);
  const ServingResult result = doomed.get();
  EXPECT_EQ(result.status, RequestStatus::kDeadlineExceeded);
  EXPECT_EQ(result.attempts, 0) << "an expired request never dispatched";

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.per_class[0].deadline_exceeded, 1);
}

TEST(ServingPool, LatencyClassDispatchesBeforeBulkAndEdfWithinClass) {
  // Hold the single replica busy (injected stall) so the queue accumulates,
  // then submit bulk work first, latency work last. Dispatch order must be
  // class-first (latency before bulk) and earliest-deadline-first within a
  // class — asserted via dispatch_seq, not wall clocks.
  const LeNetFixture fx;
  const auto batch = lenet_batch(4, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.fault_plan = plan_of("stall:r0@1x60");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  auto blocker = pool.submit(request_for(batch[0]));  // dispatches, stalls 60ms
  // Give the dispatcher time to pull the blocker so the queue is empty.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  RequestOptions bulk;
  bulk.priority = PriorityClass::kBulk;
  RequestOptions relaxed;  // latency class, generous deadline
  relaxed.deadline_ms = 5000.0;
  RequestOptions urgent;  // latency class, tighter deadline, submitted last
  urgent.deadline_ms = 1000.0;

  auto bulk_ticket = pool.submit(request_for(batch[1], bulk));
  auto relaxed_ticket = pool.submit(request_for(batch[2], relaxed));
  auto urgent_ticket = pool.submit(request_for(batch[3], urgent));

  const ServingResult b = bulk_ticket.get();
  const ServingResult r = relaxed_ticket.get();
  const ServingResult u = urgent_ticket.get();
  ASSERT_EQ(b.status, RequestStatus::kOk) << b.error;
  ASSERT_EQ(r.status, RequestStatus::kOk) << r.error;
  ASSERT_EQ(u.status, RequestStatus::kOk) << u.error;
  EXPECT_LT(u.dispatch_seq, r.dispatch_seq)
      << "EDF within the latency class";
  EXPECT_LT(r.dispatch_seq, b.dispatch_seq) << "latency class before bulk";
}

TEST(ServingPool, OverloadShedsNewestBulkForLatencyWork) {
  // A full queue holding bulk work must shed its newest bulk request to
  // admit latency-class work (degradation order: bulk first) instead of
  // blocking the latency producer.
  const LeNetFixture fx;
  const auto batch = lenet_batch(4, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.queue_capacity = 2;
  options.fault_plan = plan_of("stall:r0@1x100");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  auto blocker = pool.submit(request_for(batch[0]));  // dispatched, stalling
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  RequestOptions bulk;
  bulk.priority = PriorityClass::kBulk;
  auto bulk_old = pool.submit(request_for(batch[1], bulk));
  auto bulk_new = pool.submit(request_for(batch[2], bulk));  // fills the queue
  auto latency = pool.submit(request_for(batch[3]));         // evicts bulk_new

  EXPECT_EQ(blocker.get().status, RequestStatus::kOk);
  EXPECT_EQ(bulk_old.get().status, RequestStatus::kOk);
  const ServingResult shed = bulk_new.get();
  EXPECT_EQ(shed.status, RequestStatus::kRejected);
  EXPECT_NE(shed.error.find("shed"), std::string::npos) << shed.error;
  EXPECT_EQ(latency.get().status, RequestStatus::kOk);

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.shed_bulk, 1);
  EXPECT_EQ(stats.per_class[1].rejected, 1);
  EXPECT_EQ(stats.completed, 3);
}

// ------------------------------------------------ shutdown edge cases

TEST(ServingPool, ShutdownUnblocksProducersStuckOnAFullQueue) {
  // Producers blocked on a full queue while the replica stalls: shutdown
  // must wake them with a typed rejection for work that never got admitted,
  // while everything admitted still completes (drain semantics).
  const LeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.queue_capacity = 1;
  options.fault_plan = plan_of("stall:r0@1x150");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  // Dispatched, stalling 150ms.
  auto blocker = pool.submit(request_for(batch[0]));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  constexpr int kProducers = 3;
  std::vector<std::future<ServingResult>> tickets(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back(
        [&, p] { tickets[p] = pool.submit(request_for(batch[0])); });
  // Let the producers pile up: one fills the queue, the rest block on it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.shutdown(/*drain=*/true);
  for (std::thread& producer : producers) producer.join();

  EXPECT_EQ(blocker.get().status, RequestStatus::kOk);
  int ok = 0, rejected = 0;
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket.valid());
    const ServingResult result = ticket.get();
    if (result.status == RequestStatus::kOk)
      ++ok;
    else if (result.status == RequestStatus::kRejected)
      ++rejected;
    else
      FAIL() << "unexpected status " << status_name(result.status);
  }
  EXPECT_EQ(ok + rejected, kProducers);
  EXPECT_GE(rejected, 1) << "blocked producers must not hang past shutdown";
}

TEST(ServingPool, NonDrainingShutdownCancelsUndispatchedWork) {
  const LeNetFixture fx;
  const auto batch = lenet_batch(3, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.queue_capacity = 8;
  options.fault_plan = plan_of("stall:r0@1x100");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  auto in_flight = pool.submit(request_for(batch[0]));  // dispatched, stalling
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto queued_a = pool.submit(request_for(batch[1]));
  auto queued_b = pool.submit(request_for(batch[2]));
  pool.shutdown(/*drain=*/false);

  EXPECT_EQ(in_flight.get().status, RequestStatus::kOk)
      << "in-flight dispatches still complete";
  EXPECT_EQ(queued_a.get().status, RequestStatus::kCancelled);
  EXPECT_EQ(queued_b.get().status, RequestStatus::kCancelled);

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.cancelled, 2);
  EXPECT_EQ(stats.completed, 1);

  auto late = pool.submit(request_for(batch[0]));
  EXPECT_EQ(late.get().status, RequestStatus::kRejected);
}

// ------------------------------------------------- chaos (acceptance)

TEST(ServingPool, ChaosRunSurvivesKilledReplicaAndTransientErrors) {
  // The PR's acceptance scenario: 4 replicas, a seeded plan that kills one
  // replica mid-run and sprinkles 5% transient errors. Every request must
  // resolve with a typed outcome (no hangs, no invalid futures), every kOk
  // result must be bit-identical to monolithic execution, and latency-class
  // goodput must stay >= 99%.
  const LeNetFixture fx;
  constexpr int kRequests = 48;
  const auto batch = lenet_batch(kRequests, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  ServingPoolOptions options;
  options.replicas = 4;
  options.queue_capacity = 64;
  options.max_retries = 4;  // 5% transients: 4 retries make loss ~1e-6
  options.backoff_base_ms = 0.05;
  options.backoff_cap_ms = 1.0;
  options.fault_plan = plan_of("seed:7,kill:r2@5,err:p0.05");
  ServingPool pool(fx.program, EngineKind::kReference, options);

  std::vector<std::future<ServingResult>> tickets;
  tickets.reserve(kRequests);
  RequestOptions latency;
  latency.deadline_ms = 0.0;  // no deadline: isolate fault handling
  for (const TensorI& codes : batch)
    tickets.push_back(pool.submit(request_for(codes, latency)));

  int ok = 0;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(tickets[i].valid()) << "request " << i;
    const ServingResult result = tickets[i].get();
    if (result.status == RequestStatus::kOk) {
      ++ok;
      EXPECT_EQ(result.result.logits, reference[i].logits)
          << "request " << i << " served by replica " << result.replica;
      EXPECT_EQ(result.result.predicted_class,
                reference[i].predicted_class);
    } else {
      EXPECT_EQ(result.status, RequestStatus::kReplicaFailed)
          << "request " << i;
    }
  }

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.completed + stats.failed, kRequests)
      << "every request resolves";
  EXPECT_GE(stats.per_class[0].goodput, 0.99)
      << "latency-class goodput under chaos";
  EXPECT_EQ(ok, static_cast<int>(stats.completed));

  // The killed replica is out of the fleet; the survivors carried the load.
  ASSERT_NE(pool.fault_injector(), nullptr);
  EXPECT_EQ(pool.fault_injector()->injected_kills(), 1);
  EXPECT_TRUE(pool.fault_injector()->is_dead(2));
  EXPECT_EQ(stats.active_replicas, 3);
  EXPECT_EQ(stats.replica_health[2], ReplicaHealth::kQuarantined);
  EXPECT_GT(stats.retries, 0) << "transient errors were retried";
}

}  // namespace
}  // namespace rsnn::engine
