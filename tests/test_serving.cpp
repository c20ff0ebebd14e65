// Replicated serving: every pool configuration (replica count x dispatch
// size x full-queue choice) must produce logits bit-identical to monolithic
// execution, a replica must cost exactly one thread, and the admission queue
// must survive concurrent producers and honor its edge cases (zero capacity,
// shutdown with in-flight work, batch deadline with a single pending item,
// malformed requests refused at admission).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_hook.hpp"
#include "common/assert.hpp"
#include "common/latency_histogram.hpp"
#include "common/rng.hpp"
#include "compiler/partition.hpp"
#include "engine/engine.hpp"
#include "engine/serving_pool.hpp"
#include "hw/accelerator.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RSNN_SANITIZERS_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RSNN_SANITIZERS_ACTIVE 1
#endif
#endif

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

std::vector<hw::AccelRunResult> monolithic_reference(
    const ir::LayerProgram& program, EngineKind kind,
    const std::vector<TensorI>& batch) {
  auto engine = make_engine(kind, program);
  std::vector<hw::AccelRunResult> results;
  for (const TensorI& codes : batch) results.push_back(engine->run_codes(codes));
  return results;
}

// ------------------------------------ pool equivalence (acceptance)

/// Every pool configuration must serve bit-identical logits: the pool adds
/// admission and replication, never arithmetic.
TEST(ServingPool, CrossChecksLogitsAcrossConfigurations) {
  const LeNetFixture fx;
  const auto batch = lenet_batch(6, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  struct Config {
    const char* label;
    int replicas;
    std::size_t max_batch;
    OnFull on_full;
  };
  const std::vector<Config> configs = {
      {"1 replica, max_batch 1, block", 1, 1, OnFull::kBlock},
      {"2 replicas, max_batch 1, block", 2, 1, OnFull::kBlock},
      {"2 replicas, max_batch 8, block", 2, 8, OnFull::kBlock},
      {"2 replicas, max_batch 1, reject", 2, 1, OnFull::kReject},
  };

  for (const Config& config : configs) {
    SCOPED_TRACE(config.label);
    ServingPoolOptions options;
    options.replicas = config.replicas;
    options.max_batch = config.max_batch;
    options.on_full = config.on_full;
    options.max_wait_ms = 0.5;
    ServingPool pool(fx.program, EngineKind::kReference, options);
    EXPECT_EQ(pool.replicas(), config.replicas);

    const auto run = serve_batch(pool, batch);
    ASSERT_EQ(run.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(run[i].status, RequestStatus::kOk) << "image " << i;
      const hw::AccelRunResult& result = run[i].result;
      EXPECT_EQ(result.logits, reference[i].logits) << "image " << i;
      EXPECT_EQ(result.predicted_class, reference[i].predicted_class);
      EXPECT_EQ(result.total_cycles, reference[i].total_cycles);
      EXPECT_EQ(result.total_adder_ops, reference[i].total_adder_ops);
      EXPECT_EQ(run[i].attempts, 1);
      EXPECT_GE(run[i].replica, 0);
    }

    const ServingStats stats = pool.stats();
    EXPECT_EQ(stats.completed, static_cast<std::int64_t>(batch.size()));
    EXPECT_EQ(stats.rejected, 0);
    std::int64_t served = 0;
    for (const std::int64_t count : stats.per_replica) served += count;
    EXPECT_EQ(served, static_cast<std::int64_t>(batch.size()));
    EXPECT_GT(stats.wall_images_per_sec, 0.0);
    EXPECT_LE(stats.p50_latency_ms, stats.p99_latency_ms);
  }
}

TEST(ServingPool, EachReplicaIsOneThread) {
  // A replica is one engine run by its own dispatcher thread: a pool of R
  // replicas adds exactly R threads to the process.
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks))
    GTEST_SKIP() << "no /proc/self/task to count threads with";
  const auto thread_count = [&tasks] {
    std::size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(tasks)) {
      (void)entry;
      ++count;
    }
    return count;
  };
  const LeNetFixture fx;
  ServingPoolOptions options;
  options.replicas = 3;

  const std::size_t before = thread_count();
  ServingPool pool(fx.program, EngineKind::kCycleAccurate, options);
  EXPECT_EQ(thread_count(), before + 3);
}

// ------------------------------------------------ queue concurrency

TEST(ServingPool, ConcurrentProducersHammerABoundedQueue) {
  // Four producers race 8 submissions each into a capacity-2 queue feeding
  // two replicas: every request must be admitted (FIFO blocks, never drops)
  // and come back with the right logits for *its* image.
  const LeNetFixture fx;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8;
  const auto batch =
      lenet_batch(kProducers * kPerProducer, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  ServingPoolOptions options;
  options.replicas = 2;
  options.queue_capacity = 2;
  ServingPool pool(fx.program, EngineKind::kReference, options);

  std::vector<std::vector<std::future<ServingResult>>> tickets(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        tickets[p].push_back(
            pool.submit(request_for(batch[p * kPerProducer + i])));
    });
  for (std::thread& producer : producers) producer.join();

  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kPerProducer; ++i) {
      ASSERT_TRUE(tickets[p][i].valid()) << "producer " << p << " item " << i;
      const ServingResult result = tickets[p][i].get();
      ASSERT_EQ(result.status, RequestStatus::kOk)
          << "producer " << p << " item " << i << ": " << result.error;
      EXPECT_EQ(result.result.logits, reference[p * kPerProducer + i].logits)
          << "producer " << p << " item " << i;
    }
  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.completed, kProducers * kPerProducer);
  EXPECT_EQ(stats.rejected, 0);
}

// --------------------------------------------------- queue edge cases

TEST(ServingPool, ZeroCapacityQueueRejectsEverything) {
  const LeNetFixture fx;
  const auto batch = lenet_batch(3, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.queue_capacity = 0;
  options.on_full = OnFull::kReject;
  ServingPool pool(fx.program, EngineKind::kReference, options);

  for (const TensorI& codes : batch) {
    auto ticket = pool.submit(request_for(codes));
    ASSERT_TRUE(ticket.valid()) << "shed requests resolve, never invalidate";
    const ServingResult shed = ticket.get();
    EXPECT_EQ(shed.status, RequestStatus::kRejected);
    EXPECT_FALSE(shed.error.empty());
    EXPECT_EQ(shed.attempts, 0);
  }
  RequestOptions polite;
  polite.admission = AdmissionMode::kNonBlocking;
  bool admitted = true;
  auto probe = pool.submit(request_for(batch[0], polite), &admitted);
  EXPECT_FALSE(admitted) << "a non-blocking probe of a full queue is refused";
  ASSERT_TRUE(probe.valid());
  EXPECT_EQ(probe.get().status, RequestStatus::kRejected);

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 0);
  EXPECT_EQ(stats.rejected, 4);
  EXPECT_EQ(stats.completed, 0);
  EXPECT_EQ(stats.per_class[0].submitted, 4);
  EXPECT_EQ(stats.per_class[0].rejected, 4);
  EXPECT_DOUBLE_EQ(stats.per_class[0].goodput, 0.0);

  // A zero-capacity queue that blocks when full would deadlock every
  // producer; the pool refuses to construct it.
  ServingPoolOptions blocking;
  blocking.queue_capacity = 0;
  blocking.on_full = OnFull::kBlock;
  EXPECT_THROW(ServingPool(fx.program, EngineKind::kReference, blocking),
               ContractViolation);
}

TEST(ServingPool, RejectPolicyShedsUnderBurst) {
  // A burst far faster than one replica drains a capacity-1 queue must shed
  // at least one request, and everything admitted still completes.
  const LeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.queue_capacity = 1;
  options.on_full = OnFull::kReject;
  ServingPool pool(fx.program, EngineKind::kReference, options);

  std::vector<std::future<ServingResult>> tickets;
  for (int i = 0; i < 16; ++i)
    tickets.push_back(pool.submit(request_for(batch[0])));

  std::int64_t accepted = 0;
  for (auto& ticket : tickets) {
    ASSERT_TRUE(ticket.valid());
    const ServingResult result = ticket.get();
    if (result.status == RequestStatus::kOk) {
      EXPECT_FALSE(result.result.logits.empty());
      ++accepted;
    } else {
      EXPECT_EQ(result.status, RequestStatus::kRejected);
    }
  }
  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, accepted);
  EXPECT_EQ(stats.rejected, 16 - accepted);
  EXPECT_GE(stats.rejected, 1) << "a 16-deep burst into a capacity-1 queue "
                                  "should overflow";
  EXPECT_EQ(stats.completed, accepted);
}

TEST(ServingPool, ShutdownWithInFlightWorkKeepsEveryPromise) {
  // Destroying the pool right after admission must drain, not drop: every
  // future obtained from submit() yields its result after the pool is gone.
  const LeNetFixture fx;
  const auto batch = lenet_batch(4, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  std::vector<std::future<ServingResult>> tickets;
  {
    ServingPool pool(fx.program, EngineKind::kReference,
                     ServingPoolOptions{});
    for (const TensorI& codes : batch)
      tickets.push_back(pool.submit(request_for(codes)));
  }  // destructor runs with (likely) queued work

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].valid());
    const ServingResult result = tickets[i].get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
    EXPECT_EQ(result.result.logits, reference[i].logits) << "image " << i;
  }
}

TEST(ServingPool, BatchDeadlineExpiryDispatchesASingleItem) {
  // One lonely request under batch-accumulate: the max-wait deadline, not a
  // full batch, must release it — alone.
  const LeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.max_batch = 8;
  options.max_wait_ms = 5.0;
  ServingPool pool(fx.program, EngineKind::kReference, options);

  auto ticket = pool.submit(request_for(batch[0]));
  ASSERT_TRUE(ticket.valid());
  const ServingResult result = ticket.get();
  ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
  EXPECT_FALSE(result.result.logits.empty());

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.dispatches, 1);
  EXPECT_DOUBLE_EQ(stats.mean_batch, 1.0);
}

TEST(ServingPool, BatchPolicyAccumulatesUpToMaxBatch) {
  const LeNetFixture fx;
  const auto batch = lenet_batch(8, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  ServingPoolOptions options;
  options.max_batch = 4;
  options.max_wait_ms = 50.0;  // long: dispatches should fill, not time out
  ServingPool pool(fx.program, EngineKind::kReference, options);

  const auto run = serve_batch(pool, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(run[i].status, RequestStatus::kOk) << "image " << i;
    EXPECT_EQ(run[i].result.logits, reference[i].logits) << "image " << i;
  }

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.completed, 8);
  // Never more than max_batch per dispatch; the burst should have grouped.
  EXPECT_GE(stats.dispatches, 2);
  EXPECT_LE(stats.mean_batch, 4.0);
  EXPECT_GT(stats.mean_batch, 1.0);
}

TEST(ServingPool, BatchRefillsFromProducersBlockedOnAFullQueue) {
  // A capacity-1 queue with one producer pushing 4 requests: as the
  // accumulating dispatcher drains the queue it must wake the blocked
  // producer so the batch can refill — one full dispatch, not four
  // deadline-expired singletons (regression: the accumulate loop used to
  // pop without notifying cv_not_full_, deadlocking the refill until the
  // max-wait deadline).
  const LeNetFixture fx;
  const auto batch = lenet_batch(4, fx.qnet.time_bits);

  ServingPoolOptions options;
  options.queue_capacity = 1;
  options.max_batch = 4;
  options.max_wait_ms = 500.0;
  ServingPool pool(fx.program, EngineKind::kReference, options);

  std::vector<std::future<ServingResult>> tickets;
  for (const TensorI& codes : batch)
    tickets.push_back(pool.submit(request_for(codes)));
  for (auto& ticket : tickets) {
    const ServingResult result = ticket.get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
    EXPECT_FALSE(result.result.logits.empty());
  }

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.dispatches, 1) << "the batch should refill through the "
                                    "bounded queue, not time out";
  EXPECT_DOUBLE_EQ(stats.mean_batch, 4.0);
}

TEST(ServingPool, MalformedRequestFailsOnlyItself) {
  // Codes of the wrong shape, or holding a value outside [0, 2^T), are
  // refused at admission: never queued, never retried, and the pool serves
  // the next request.
  const LeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);
  const std::int32_t limit = std::int32_t{1} << fx.qnet.time_bits;
  // Each malformed input, with the text its rejection must name.
  std::vector<std::pair<TensorI, std::string>> malformed;
  malformed.emplace_back(TensorI(Shape{1, 8, 8}), "[1, 32, 32]");
  for (const std::int32_t code : {limit, -1, std::int32_t{1} << 24}) {
    TensorI codes = batch[0];
    codes.data()[17] = code;
    malformed.emplace_back(std::move(codes), "code " + std::to_string(code));
  }

  ServingPool pool(fx.program, EngineKind::kReference, ServingPoolOptions{});
  for (const auto& [codes, named] : malformed) {
    SCOPED_TRACE(named);
    bool admitted = true;
    auto ticket = pool.submit(request_for(codes), &admitted);
    EXPECT_FALSE(admitted);
    const ServingResult rejected = ticket.get();
    EXPECT_EQ(rejected.status, RequestStatus::kRejected);
    EXPECT_EQ(rejected.attempts, 0);
    EXPECT_NE(rejected.error.find(named), std::string::npos)
        << rejected.error;
  }

  auto good = pool.submit(request_for(batch[0]));
  const ServingResult ok = good.get();
  ASSERT_EQ(ok.status, RequestStatus::kOk) << ok.error;
  EXPECT_FALSE(ok.result.logits.empty());
  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.rejected, 4);
  EXPECT_EQ(stats.submitted, 1) << "no malformed request queued";
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.dispatches, 1);
  EXPECT_EQ(stats.active_replicas, 1);
}

TEST(ServingPool, MalformedRequestLeavesItsBurstsBatchIntact) {
  // Three good requests and one of the wrong shape in one burst, with
  // max_batch 4: the bad one is rejected alone, and the good ones still
  // dispatch together with monolithic logits.
  const LeNetFixture fx;
  const auto batch = lenet_batch(3, fx.qnet.time_bits);
  for (const EngineKind kind :
       {EngineKind::kCycleAccurate, EngineKind::kReference}) {
    SCOPED_TRACE(engine_name(kind));
    const auto reference = monolithic_reference(fx.program, kind, batch);
    ServingPoolOptions options;
    options.max_batch = 4;
    options.max_wait_ms = 50.0;
    ServingPool pool(fx.program, kind, options);

    std::vector<std::future<ServingResult>> tickets;
    tickets.push_back(pool.submit(request_for(batch[0])));
    tickets.push_back(pool.submit(request_for(batch[1])));
    auto bad = pool.submit(request_for(TensorI(Shape{1, 8, 8})));
    tickets.push_back(pool.submit(request_for(batch[2])));

    const ServingResult rejected = bad.get();
    EXPECT_EQ(rejected.status, RequestStatus::kRejected);
    EXPECT_EQ(rejected.attempts, 0);
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const ServingResult result = tickets[i].get();
      ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
      EXPECT_EQ(result.attempts, 1);
      EXPECT_EQ(result.result.logits, reference[i].logits) << "image " << i;
    }
    const ServingStats stats = pool.stats();
    EXPECT_EQ(stats.completed, 3);
    EXPECT_EQ(stats.rejected, 1);
    EXPECT_EQ(stats.retries, 0);
    EXPECT_EQ(stats.replica_failures, 0);
    EXPECT_GT(stats.mean_batch, 1.0);
  }
}

TEST(ServingPool, InvalidOptionsThrow) {
  const LeNetFixture fx;
  {
    ServingPoolOptions options;
    options.replicas = 0;
    EXPECT_THROW(ServingPool(fx.program, EngineKind::kReference, options),
                 ContractViolation);
  }
  {
    ServingPoolOptions options;
    options.max_batch = 0;
    EXPECT_THROW(ServingPool(fx.program, EngineKind::kReference, options),
                 ContractViolation);
  }
  {
    ServingPoolOptions options;
    options.max_retries = -1;
    EXPECT_THROW(ServingPool(fx.program, EngineKind::kReference, options),
                 ContractViolation);
  }
  {
    ServingPoolOptions options;
    options.backoff_base_ms = 5.0;
    options.backoff_cap_ms = 1.0;  // cap below base
    EXPECT_THROW(ServingPool(fx.program, EngineKind::kReference, options),
                 ContractViolation);
  }
  // Durations past kMaxDeadlineMs would overflow their steady_clock
  // conversion.
  for (int field = 0; field < 3; ++field) {
    SCOPED_TRACE("field " + std::to_string(field));
    ServingPoolOptions options;
    if (field == 0) options.max_wait_ms = 1e300;
    if (field == 1) options.backoff_base_ms = options.backoff_cap_ms = 1e300;
    if (field == 2) options.backoff_cap_ms = 1e300;
    EXPECT_THROW(ServingPool(fx.program, EngineKind::kReference, options),
                 ContractViolation);
  }
}

// ------------------------------------------------------ latency record

// The record is fixed-size: ~9 KB of counters however many requests resolve.
static_assert(sizeof(common::LatencyHistogram) < 10 * 1024);

TEST(LatencyHistogram, QuantilesWithinOneBucketOfTheExactOrderStatistic) {
  Rng rng(77);
  common::LatencyHistogram histogram;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over 0.05 ms .. 500 ms: every octave of the range.
    const double ms = 0.05 * std::pow(1e4, rng.next_double());
    samples.push_back(ms);
    histogram.record(ms);
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(histogram.count(), samples.size());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    SCOPED_TRACE("q=" + std::to_string(q));
    const double exact = samples[static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1))];
    EXPECT_NEAR(histogram.quantile_ms(q), exact, exact / 32.0);
  }
  histogram.clear();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.quantile_ms(0.5), 0.0);
}

TEST(ServingPool, StatsCostStaysFlatAsRequestsAccumulate) {
#ifdef RSNN_SANITIZERS_ACTIVE
  GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
#else
  Rng rng(78);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  hw::AcceleratorConfig cfg;
  cfg.conv = hw::ConvUnitGeometry{16, 3, 24};
  cfg.pool = hw::PoolUnitGeometry{8, 2, 16};
  cfg.linear = hw::LinearUnitGeometry{8, 24};
  const ir::LayerProgram program = ir::lower(qnet, cfg);
  const std::vector<TensorI> codes(
      100, quant::encode_activations(
               rsnn::testing::random_image(qnet.input_shape, rng), 4));
  ServingPool pool(program, EngineKind::kCycleAccurate, ServingPoolOptions{});

  // Allocations of one stats() call once `served` requests have resolved.
  const auto stats_allocations = [&pool] {
    const std::uint64_t before = common::allocation_count();
    const ServingStats stats = pool.stats();
    const std::uint64_t after = common::allocation_count();
    EXPECT_LE(stats.p50_latency_ms, stats.p99_latency_ms);
    return after - before;
  };
  serve_batch(pool, std::vector<TensorI>(codes.begin(), codes.begin() + 10));
  ASSERT_EQ(pool.stats().completed, 10);
  const std::uint64_t after_10 = stats_allocations();
  for (int round = 0; round < 100; ++round) serve_batch(pool, codes);
  ASSERT_EQ(pool.stats().completed, 10'010);
  EXPECT_EQ(stats_allocations(), after_10)
      << "stats() must not copy a per-request latency record";
#endif
}

// ------------------------------------------------------ serving overhead

TEST(ServingOverhead, ExpectedAttemptsPerImageCountsRetriesAndStalls) {
  // The measured overhead factor the Metrics reply serves: completed images
  // cost one dispatch each; retries and stalls each burned roughly one
  // extra image of occupancy.
  EXPECT_DOUBLE_EQ(compiler::expected_attempts_per_image(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(compiler::expected_attempts_per_image(100, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(compiler::expected_attempts_per_image(90, 8, 2),
                   100.0 / 90.0);
  EXPECT_THROW(compiler::expected_attempts_per_image(-1, 0, 0),
               ContractViolation);
  EXPECT_THROW(compiler::expected_attempts_per_image(1, -1, 0),
               ContractViolation);
  EXPECT_THROW(compiler::expected_attempts_per_image(1, 0, -1),
               ContractViolation);
}

// ------------------------------------------------------ typed request core

TEST(ServingPool, TypedRequestCoreRoutesByModelIdAndCarriesOptions) {
  // The typed submit(Request) path in-process callers and the wire
  // protocol funnel through: a matching (or empty) routing key serves
  // normally; a mismatched key is the misrouted-submission backstop and
  // resolves typed kRejected without queueing.
  const LeNetFixture fx;
  const auto batch = lenet_batch(2, fx.qnet.time_bits);
  const auto reference =
      monolithic_reference(fx.program, EngineKind::kReference, batch);

  ServingPoolOptions options;
  options.model_id = "lenet";
  ServingPool pool(fx.program, EngineKind::kReference, options);
  EXPECT_EQ(pool.model_id(), "lenet");

  Request routed;
  routed.model_id = "lenet";
  routed.codes = batch[0];
  routed.options.deadline_ms = 60000.0;
  auto routed_ticket = pool.submit(std::move(routed));

  Request unrouted;  // empty key targets whichever pool receives it
  unrouted.codes = batch[1];
  auto unrouted_ticket = pool.submit(std::move(unrouted));

  Request misrouted;
  misrouted.model_id = "vgg11";
  misrouted.codes = batch[0];
  bool admitted = true;
  auto misrouted_ticket = pool.submit(std::move(misrouted), &admitted);
  EXPECT_FALSE(admitted) << "a misrouted request must not enter the queue";

  const ServingResult served = routed_ticket.get();
  ASSERT_EQ(served.status, RequestStatus::kOk) << served.error;
  EXPECT_EQ(served.result.logits, reference[0].logits);
  const ServingResult unrouted_served = unrouted_ticket.get();
  ASSERT_EQ(unrouted_served.status, RequestStatus::kOk)
      << unrouted_served.error;
  EXPECT_EQ(unrouted_served.result.logits, reference[1].logits);

  const ServingResult miss = misrouted_ticket.get();
  EXPECT_EQ(miss.status, RequestStatus::kRejected);
  EXPECT_NE(miss.error.find("vgg11"), std::string::npos) << miss.error;
  EXPECT_NE(miss.error.find("lenet"), std::string::npos) << miss.error;

  const ServingStats stats = pool.stats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.submitted, 2) << "the misrouted request never counted";
}

}  // namespace
}  // namespace rsnn::engine
