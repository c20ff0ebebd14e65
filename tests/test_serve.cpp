// Serving daemon subsystem: the wire protocol must round-trip every frame
// and reject malformed bytes with friendly diagnostics (never a crash or an
// unbounded allocation), the multi-model registry must route by model id
// and hot-swap without dropping admitted work (in-flight futures resolve
// kOk with the *old* generation's bit-identical logits), and a live Server
// over a loopback socket must serve the same logits as in-process
// execution while answering protocol violations with one Error frame.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "compiler/compile.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "quant/qserialize.hpp"
#include "quant/quantize.hpp"
#include "serve/client.hpp"
#include "serve/registry.hpp"
#include "serve/serve_flags.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "serve/wire.hpp"
#include "test_helpers.hpp"

namespace rsnn::serve {
namespace {

using engine::PriorityClass;
using engine::ReplicaHealth;
using engine::RequestStatus;

/// Two small quantized networks with distinct weights (input [1, 10, 10],
/// four classes, T=3) — distinguishable logits for the hot-swap tests.
quant::QuantizedNetwork make_qnet(std::uint64_t seed) {
  Rng rng(seed);
  nn::Network net = rsnn::testing::small_random_net(rng);
  return quant::quantize(net, quant::QuantizeConfig{3, 3});
}

TensorI encode_image(const quant::QuantizedNetwork& qnet, std::uint64_t seed) {
  Rng rng(seed);
  return quant::encode_activations(
      rsnn::testing::random_image(qnet.input_shape, rng), qnet.time_bits);
}

/// Reference logits: compile the same network with the registry's options
/// and run the codes monolithically.
std::vector<std::int64_t> reference_logits(const quant::QuantizedNetwork& qnet,
                                           const RegistryOptions& options,
                                           const TensorI& codes) {
  const auto design = compiler::compile(qnet, options.compile);
  return engine::make_engine(options.kind, design.program)
      ->run_codes(codes)
      .logits;
}

// -------------------------------------------------------- wire round trips

TEST(Wire, HeaderRoundTripAndRejection) {
  std::uint8_t bytes[kHeaderBytes];
  encode_header(FrameType::kInfer, 123, bytes);
  FrameHeader header;
  ASSERT_TRUE(decode_header(bytes, &header).empty());
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.type, FrameType::kInfer);
  EXPECT_EQ(header.payload_len, 123u);

  // Bad magic: the diagnostic names what arrived.
  encode_header(FrameType::kInfer, 0, bytes);
  bytes[0] ^= 0xFF;
  std::string error = decode_header(bytes, &header);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // Version is checked for exact equality — newer and older both refuse.
  encode_header(FrameType::kInfer, 0, bytes);
  bytes[4] = static_cast<std::uint8_t>(kProtocolVersion + 1);
  error = decode_header(bytes, &header);
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Unknown frame type.
  encode_header(FrameType::kInfer, 0, bytes);
  bytes[6] = 99;
  bytes[7] = 0;
  error = decode_header(bytes, &header);
  EXPECT_NE(error.find("type"), std::string::npos) << error;

  // Payload length over the cap: refused before any allocation.
  encode_header(FrameType::kInfer, 0, bytes);
  const std::uint32_t oversize = kMaxPayloadBytes + 1;
  std::memcpy(bytes + 8, &oversize, 4);
  error = decode_header(bytes, &header);
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(Wire, InferFramesRoundTrip) {
  InferRequest request;
  request.model_id = "lenet";
  request.options.priority = PriorityClass::kBulk;
  request.options.admission = engine::AdmissionMode::kNonBlocking;
  request.options.deadline_ms = 12.5;
  request.codes = encode_image(make_qnet(1), 7);

  InferRequest decoded_request;
  ASSERT_TRUE(decode(encode(request), &decoded_request).empty());
  EXPECT_EQ(decoded_request.model_id, "lenet");
  EXPECT_EQ(decoded_request.options.priority, PriorityClass::kBulk);
  EXPECT_EQ(decoded_request.options.admission,
            engine::AdmissionMode::kNonBlocking);
  EXPECT_DOUBLE_EQ(decoded_request.options.deadline_ms, 12.5);
  EXPECT_EQ(decoded_request.codes.shape().dims(),
            request.codes.shape().dims());
  ASSERT_EQ(decoded_request.codes.numel(), request.codes.numel());
  for (std::int64_t i = 0; i < request.codes.numel(); ++i)
    ASSERT_EQ(decoded_request.codes.at_flat(i), request.codes.at_flat(i));

  InferReply reply;
  reply.status = RequestStatus::kOk;
  reply.logits = {-7, 42, 0, 1};
  reply.predicted_class = 1;
  reply.total_cycles = 987654;
  reply.latency_us = 3.25;
  reply.attempts = 2;
  reply.replica = 1;

  InferReply decoded_reply;
  ASSERT_TRUE(decode(encode(reply), &decoded_reply).empty());
  EXPECT_EQ(decoded_reply.status, RequestStatus::kOk);
  EXPECT_EQ(decoded_reply.logits, reply.logits);
  EXPECT_EQ(decoded_reply.predicted_class, 1);
  EXPECT_EQ(decoded_reply.total_cycles, 987654);
  EXPECT_DOUBLE_EQ(decoded_reply.latency_us, 3.25);
  EXPECT_EQ(decoded_reply.attempts, 2);
  EXPECT_EQ(decoded_reply.replica, 1);
}

TEST(Wire, ControlFramesRoundTrip) {
  LoadModelRequest load;
  load.model_id = "vgg";
  load.path = "/models/vgg.qsnn";
  LoadModelRequest load_out;
  ASSERT_TRUE(decode(encode(load), &load_out).empty());
  EXPECT_EQ(load_out.model_id, "vgg");
  EXPECT_EQ(load_out.path, "/models/vgg.qsnn");

  LoadModelReply load_reply;
  load_reply.ok = true;
  load_reply.swapped = true;
  load_reply.detail = "hot-swapped 'vgg'";
  LoadModelReply load_reply_out;
  ASSERT_TRUE(decode(encode(load_reply), &load_reply_out).empty());
  EXPECT_TRUE(load_reply_out.ok);
  EXPECT_TRUE(load_reply_out.swapped);
  EXPECT_EQ(load_reply_out.detail, "hot-swapped 'vgg'");

  HealthReply health;
  ModelHealth model;
  model.model_id = "lenet";
  model.generation = 3;
  model.time_bits = 4;
  model.input_dims = {1, 32, 32};
  model.replicas = 2;
  model.active_replicas = 1;
  model.replica_health = {ReplicaHealth::kHealthy,
                          ReplicaHealth::kQuarantined};
  health.models.push_back(model);
  HealthReply health_out;
  ASSERT_TRUE(decode(encode(health), &health_out).empty());
  ASSERT_EQ(health_out.models.size(), 1u);
  EXPECT_EQ(health_out.models[0].model_id, "lenet");
  EXPECT_EQ(health_out.models[0].generation, 3u);
  EXPECT_EQ(health_out.models[0].input_dims, (std::vector<std::int64_t>{1, 32, 32}));
  EXPECT_EQ(health_out.models[0].replica_health,
            (std::vector<ReplicaHealth>{ReplicaHealth::kHealthy,
                                        ReplicaHealth::kQuarantined}));

  MetricsReply metrics;
  ModelMetrics m;
  m.model_id = "lenet";
  m.submitted = 100;
  m.completed = 90;
  m.retries = 8;
  m.stalls = 2;
  m.expected_attempts_per_image = 100.0 / 90.0;
  m.p99_latency_ms = 9.5;
  m.replica_health = {ReplicaHealth::kDegraded};
  metrics.models.push_back(m);
  MetricsReply metrics_out;
  ASSERT_TRUE(decode(encode(metrics), &metrics_out).empty());
  ASSERT_EQ(metrics_out.models.size(), 1u);
  EXPECT_EQ(metrics_out.models[0].completed, 90);
  EXPECT_EQ(metrics_out.models[0].retries, 8);
  EXPECT_DOUBLE_EQ(metrics_out.models[0].expected_attempts_per_image,
                   100.0 / 90.0);
  EXPECT_DOUBLE_EQ(metrics_out.models[0].p99_latency_ms, 9.5);

  ShutdownRequest shutdown;
  shutdown.drain = false;
  ShutdownRequest shutdown_out;
  ASSERT_TRUE(decode(encode(shutdown), &shutdown_out).empty());
  EXPECT_FALSE(shutdown_out.drain);

  ErrorReply error;
  error.message = "bad magic";
  ErrorReply error_out;
  ASSERT_TRUE(decode(encode(error), &error_out).empty());
  EXPECT_EQ(error_out.message, "bad magic");
}

// ---------------------------------------------------- malformed payloads

TEST(Wire, RejectsTruncatedAndTrailingPayloads) {
  InferRequest request;
  request.model_id = "m";
  request.codes = encode_image(make_qnet(1), 3);
  const std::vector<std::uint8_t> payload = encode(request);

  // Every truncation point must fail cleanly, never crash or misparse.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{2}, payload.size() / 2,
        payload.size() - 1}) {
    InferRequest out;
    const std::vector<std::uint8_t> truncated(payload.begin(),
                                              payload.begin() + keep);
    EXPECT_FALSE(decode(truncated, &out).empty()) << keep << " bytes kept";
  }

  // Trailing garbage is a protocol error, not ignored slack.
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  InferRequest out;
  const std::string error = decode(padded, &out);
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(Wire, RejectsTensorBombsWithoutAllocating) {
  // Handcraft an InferRequest whose tensor claims absurd shapes; the decoder
  // must refuse on the *claimed* sizes, before allocating element storage.
  const auto bomb = [](std::uint32_t rank,
                       std::int64_t dim) -> std::vector<std::uint8_t> {
    Writer w;
    w.str("m");
    w.u8(0);        // priority
    w.u8(0);        // admission
    w.f64(0.0);     // deadline
    w.u32(rank);    // tensor rank
    for (std::uint32_t d = 0; d < rank && d < 16; ++d) w.i64(dim);
    return w.take();
  };

  InferRequest out;
  EXPECT_FALSE(decode(bomb(0, 1), &out).empty()) << "rank 0";
  EXPECT_FALSE(decode(bomb(9, 1), &out).empty()) << "rank over the cap";
  EXPECT_FALSE(decode(bomb(3, std::int64_t{1} << 40), &out).empty())
      << "dim over the cap";
  EXPECT_FALSE(decode(bomb(3, -4), &out).empty()) << "negative dim";
  // Dims individually legal but multiplying past the payload cap.
  EXPECT_FALSE(decode(bomb(4, 1 << 20), &out).empty()) << "numel bomb";
  // Legal header claiming more elements than bytes present.
  EXPECT_FALSE(decode(bomb(1, 1 << 20), &out).empty()) << "missing elements";
}

TEST(Wire, RejectsDeadlinesOutsideTheAdmissibleRange) {
  // A deadline must be a finite number in [0, kMaxDeadlineMs]; NaN compares
  // false against every bound, so it needs its own case.
  InferRequest request;
  request.model_id = "m";
  request.codes = TensorI(Shape{1, 1, 1}, std::vector<std::int32_t>{1});
  for (const double deadline_ms :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -1.0,
        engine::kMaxDeadlineMs * 2}) {
    SCOPED_TRACE(deadline_ms);
    request.options.deadline_ms = deadline_ms;
    InferRequest out;
    const std::string error = decode(encode(request), &out);
    EXPECT_NE(error.find("deadline"), std::string::npos) << error;
  }
  request.options.deadline_ms = engine::kMaxDeadlineMs;
  InferRequest out;
  EXPECT_EQ(decode(encode(request), &out), "");
  EXPECT_EQ(out.options.deadline_ms, engine::kMaxDeadlineMs);
}

TEST(Wire, RejectsOutOfRangeEnums) {
  Writer w;
  w.str("m");
  w.u8(7);  // priority out of range
  w.u8(0);
  w.f64(0.0);
  Writer tensor_writer;
  TensorI codes(Shape{1, 1, 1}, std::vector<std::int32_t>{1});
  w.tensor(codes);
  InferRequest out;
  const std::string error = decode(w.take(), &out);
  EXPECT_FALSE(error.empty());
}

// --------------------------------------------------------------- registry

RegistryOptions small_registry_options() {
  RegistryOptions options;
  options.kind = engine::EngineKind::kReference;
  return options;
}

TEST(Registry, ServesConcurrentModelsRoutedById) {
  const RegistryOptions options = small_registry_options();
  const quant::QuantizedNetwork net_a = make_qnet(11);
  const quant::QuantizedNetwork net_b = make_qnet(22);
  const TensorI codes = encode_image(net_a, 5);
  const std::vector<std::int64_t> logits_a =
      reference_logits(net_a, options, codes);
  const std::vector<std::int64_t> logits_b =
      reference_logits(net_b, options, codes);
  ASSERT_NE(logits_a, logits_b) << "fixtures must be distinguishable";

  ModelRegistry registry(options);
  ASSERT_TRUE(registry.load_network("a", net_a).empty());
  ASSERT_TRUE(registry.load_network("b", net_b).empty());
  EXPECT_TRUE(registry.has_model("a"));
  EXPECT_TRUE(registry.has_model("b"));
  EXPECT_EQ(registry.model_ids(), (std::vector<std::string>{"a", "b"}));

  // Two models served concurrently, each with its own bit-identical logits.
  engine::Request to_a;
  to_a.model_id = "a";
  to_a.codes = codes;
  engine::Request to_b;
  to_b.model_id = "b";
  to_b.codes = codes;
  auto future_a = registry.submit(std::move(to_a));
  auto future_b = registry.submit(std::move(to_b));

  const engine::ServingResult result_a = future_a.get();
  const engine::ServingResult result_b = future_b.get();
  ASSERT_EQ(result_a.status, RequestStatus::kOk) << result_a.error;
  ASSERT_EQ(result_b.status, RequestStatus::kOk) << result_b.error;
  EXPECT_EQ(result_a.result.logits, logits_a);
  EXPECT_EQ(result_b.result.logits, logits_b);

  // Unknown ids resolve immediately, typed, without queueing.
  engine::Request lost;
  lost.model_id = "nope";
  lost.codes = codes;
  bool admitted = true;
  auto rejected = registry.submit(std::move(lost), &admitted);
  EXPECT_FALSE(admitted);
  const engine::ServingResult miss = rejected.get();
  EXPECT_EQ(miss.status, RequestStatus::kRejected);
  EXPECT_NE(miss.error.find("nope"), std::string::npos) << miss.error;

  // Unload drains; the slot is gone afterwards.
  ASSERT_TRUE(registry.unload_model("b").empty());
  EXPECT_FALSE(registry.has_model("b"));
  EXPECT_FALSE(registry.unload_model("b").empty());

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].model_id, "a");
  EXPECT_EQ(snapshot[0].stats.completed, 1);
}

TEST(Registry, HotSwapResolvesInFlightWorkWithOldModelLogits) {
  // Stall the old generation's replica so admitted work is genuinely
  // in-flight when the swap lands; every such future must resolve kOk with
  // the OLD model's bit-identical logits (the drain guarantee), while work
  // submitted after the swap is served by the new generation.
  RegistryOptions options = small_registry_options();
  std::string fault_error;
  ASSERT_TRUE(engine::parse_fault_plan("seed:1,stall:r0@1x80",
                                       &options.pool.fault_plan, &fault_error))
      << fault_error;

  const quant::QuantizedNetwork old_net = make_qnet(11);
  const quant::QuantizedNetwork new_net = make_qnet(22);
  const TensorI codes = encode_image(old_net, 5);
  const std::vector<std::int64_t> old_logits =
      reference_logits(old_net, options, codes);
  const std::vector<std::int64_t> new_logits =
      reference_logits(new_net, options, codes);
  ASSERT_NE(old_logits, new_logits);

  ModelRegistry registry(options);
  bool swapped = true;
  ASSERT_TRUE(registry.load_network("m", old_net, &swapped).empty());
  EXPECT_FALSE(swapped);

  // Admit a burst; the stall keeps most of it queued on the old pool.
  std::vector<std::future<engine::ServingResult>> in_flight;
  for (int i = 0; i < 6; ++i) {
    engine::Request request;
    request.model_id = "m";
    request.codes = codes;
    in_flight.push_back(registry.submit(std::move(request)));
  }

  ASSERT_TRUE(registry.load_network("m", new_net, &swapped).empty());
  EXPECT_TRUE(swapped);

  for (auto& future : in_flight) {
    const engine::ServingResult result = future.get();
    ASSERT_EQ(result.status, RequestStatus::kOk) << result.error;
    EXPECT_EQ(result.result.logits, old_logits)
        << "admitted work must complete on the generation that admitted it";
  }

  engine::Request fresh;
  fresh.model_id = "m";
  fresh.codes = codes;
  const engine::ServingResult after = registry.submit(std::move(fresh)).get();
  ASSERT_EQ(after.status, RequestStatus::kOk) << after.error;
  EXPECT_EQ(after.result.logits, new_logits);

  const auto snapshot = registry.snapshot("m");
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].generation, 2u) << "every load bumps the generation";
}

TEST(Registry, SwapLoopBesideSubmittersRejectsNothing) {
  // A submit that routed to a generation a concurrent swap then closed must
  // land on the replacing generation instead of resolving kRejected. A
  // one-slot admission queue keeps most submitters blocked in admission,
  // so nearly every swap closes a pool with waiters on it. Every request
  // resolves kOk with one of the two models' exact logits.
  RegistryOptions options = small_registry_options();
  options.pool.queue_capacity = 1;
  const quant::QuantizedNetwork net_a = make_qnet(11);
  const quant::QuantizedNetwork net_b = make_qnet(22);
  const TensorI codes = encode_image(net_a, 5);
  const std::vector<std::int64_t> logits_a =
      reference_logits(net_a, options, codes);
  const std::vector<std::int64_t> logits_b =
      reference_logits(net_b, options, codes);

  ModelRegistry registry(options);
  ASSERT_TRUE(registry.load_network("m", net_a).empty());

  constexpr int kSubmitters = 3;
  constexpr int kSwaps = 60;
  std::atomic<bool> swapping{true};
  std::vector<std::future<std::string>> submitters;
  for (int s = 0; s < kSubmitters; ++s)
    submitters.push_back(std::async(std::launch::async, [&]() -> std::string {
      int sent = 0;
      while (swapping.load() || sent < 8) {
        std::vector<std::future<engine::ServingResult>> burst;
        for (int i = 0; i < 4; ++i, ++sent) {
          engine::Request request;
          request.model_id = "m";
          request.codes = codes;
          burst.push_back(registry.submit(std::move(request)));
        }
        for (auto& ticket : burst) {
          const engine::ServingResult result = ticket.get();
          if (result.status != RequestStatus::kOk)
            return std::string(engine::status_name(result.status)) + ": " +
                   result.error;
          if (result.result.logits != logits_a &&
              result.result.logits != logits_b)
            return "logits match neither generation";
        }
      }
      return {};
    }));
  for (int i = 0; i < kSwaps; ++i) {
    const std::string error =
        registry.load_network("m", i % 2 == 0 ? net_b : net_a);
    if (!error.empty()) {
      ADD_FAILURE() << error;
      break;
    }
  }
  swapping.store(false);
  for (auto& submitter : submitters) EXPECT_EQ(submitter.get(), std::string());
}

TEST(Registry, LoadModelValidatesIdsAndPaths) {
  ModelRegistry registry(small_registry_options());
  EXPECT_FALSE(registry.load_model("", "x.qsnn").empty());
  EXPECT_FALSE(registry.load_model("m", "no_such_file.qsnn").empty());
  EXPECT_FALSE(registry.load_model("m", "not_a_model.txt").empty());

  const std::string path = "test_serve_registry.qsnn";
  quant::save_quantized(make_qnet(11), path);
  EXPECT_TRUE(registry.load_model("m", path).empty());
  EXPECT_TRUE(registry.has_model("m"));
  std::remove(path.c_str());
}

// ------------------------------------------------- live server, loopback

/// Registry + started Server on an ephemeral port, torn down in order.
struct LiveServer {
  RegistryOptions options = small_registry_options();
  ModelRegistry registry;
  Server server;

  LiveServer() : registry(options), server(registry) {
    const std::string error = server.start();
    RSNN_REQUIRE(error.empty(), "test server failed to start: " << error);
  }
  ~LiveServer() { server.stop(); }
};

TEST(ServeEndToEnd, FullSessionAgainstLiveServer) {
  LiveServer live;
  const quant::QuantizedNetwork net_a = make_qnet(11);
  const quant::QuantizedNetwork net_b = make_qnet(22);
  const TensorI codes = encode_image(net_a, 5);
  const std::vector<std::int64_t> logits_a =
      reference_logits(net_a, live.options, codes);
  ASSERT_TRUE(live.registry.load_network("a", net_a).empty());

  Client client;
  ASSERT_TRUE(client.connect_loopback(live.server.port()).empty());

  // Health surfaces the model's input contract.
  HealthReply health;
  ASSERT_TRUE(client.health("", &health).empty());
  ASSERT_EQ(health.models.size(), 1u);
  EXPECT_EQ(health.models[0].model_id, "a");
  EXPECT_EQ(health.models[0].time_bits, 3);
  EXPECT_EQ(health.models[0].input_dims,
            (std::vector<std::int64_t>{1, 10, 10}));
  EXPECT_EQ(health.models[0].replicas, 1);
  EXPECT_EQ(health.models[0].active_replicas, 1);

  // Codes of the wrong shape are well-formed bytes, so they get a typed
  // kRejected reply naming the expected shape, not an Error frame, and the
  // connection keeps serving.
  InferRequest request;
  request.model_id = "a";
  request.codes = TensorI(Shape{1, 8, 8});
  InferReply reply;
  ASSERT_TRUE(client.infer(request, &reply).empty());
  EXPECT_EQ(reply.status, RequestStatus::kRejected);
  EXPECT_EQ(reply.attempts, 0);
  EXPECT_NE(reply.error.find("[1, 10, 10]"), std::string::npos) << reply.error;

  // Inference over the wire serves the same logits as in-process execution.
  request.codes = codes;
  ASSERT_TRUE(client.infer(request, &reply).empty());
  ASSERT_EQ(reply.status, RequestStatus::kOk) << reply.error;
  EXPECT_EQ(reply.logits, logits_a);
  EXPECT_GT(reply.total_cycles, 0);
  EXPECT_EQ(reply.attempts, 1);

  // Unknown model id is an application-level reply — typed kRejected with a
  // diagnostic — and the connection stays open.
  request.model_id = "nope";
  ASSERT_TRUE(client.infer(request, &reply).empty());
  EXPECT_EQ(reply.status, RequestStatus::kRejected);
  EXPECT_NE(reply.error.find("nope"), std::string::npos) << reply.error;
  ASSERT_TRUE(client.health("", &health).empty())
      << "the connection survives application errors";

  // Load a second model from a file, then hot-swap it over the same id.
  const std::string path = "test_serve_e2e.qsnn";
  quant::save_quantized(net_b, path);
  LoadModelReply load_reply;
  ASSERT_TRUE(client.load_model("b", path, &load_reply).empty());
  EXPECT_TRUE(load_reply.ok) << load_reply.detail;
  EXPECT_FALSE(load_reply.swapped);
  ASSERT_TRUE(client.load_model("b", path, &load_reply).empty());
  EXPECT_TRUE(load_reply.ok) << load_reply.detail;
  EXPECT_TRUE(load_reply.swapped);
  std::remove(path.c_str());

  ASSERT_TRUE(client.health("", &health).empty());
  EXPECT_EQ(health.models.size(), 2u);

  // Metrics carry the serving counters per model.
  MetricsReply metrics;
  ASSERT_TRUE(client.metrics("a", &metrics).empty());
  ASSERT_EQ(metrics.models.size(), 1u);
  EXPECT_EQ(metrics.models[0].completed, 1);
  EXPECT_DOUBLE_EQ(metrics.models[0].expected_attempts_per_image, 1.0);

  // Unload over the wire.
  UnloadModelReply unload_reply;
  ASSERT_TRUE(client.unload_model("b", &unload_reply).empty());
  EXPECT_TRUE(unload_reply.ok) << unload_reply.detail;
  ASSERT_TRUE(client.unload_model("b", &unload_reply).empty());
  EXPECT_FALSE(unload_reply.ok);

  // Shutdown frame: acknowledged, then the owner observes the request.
  ShutdownReply shutdown_reply;
  ASSERT_TRUE(client.shutdown_server(true, &shutdown_reply).empty());
  bool drain = false;
  live.server.wait_until_shutdown(&drain);
  EXPECT_TRUE(drain);
  EXPECT_GE(live.server.connections_accepted(), 1);
}

TEST(Socket, ClaimedPayloadLengthDoesNotPinMemory) {
  // A peer that sends a header claiming the largest legal payload, then
  // only 1 KiB and a close, must not make the receiver allocate the claim.
  Listener listener;
  ASSERT_TRUE(listener.listen_loopback(0).empty());
  std::string error;
  Socket peer = Socket::connect_loopback(listener.port(), &error);
  ASSERT_TRUE(error.empty()) << error;
  Socket receiver = listener.accept_connection(&error);
  ASSERT_TRUE(error.empty()) << error;

  std::uint8_t header[kHeaderBytes];
  encode_header(FrameType::kInfer, kMaxPayloadBytes, header);
  ASSERT_TRUE(peer.write_all(header, kHeaderBytes).empty());
  const std::vector<std::uint8_t> sent(1024, 0xAB);
  ASSERT_TRUE(peer.write_all(sent.data(), sent.size()).empty());
  peer.close();

  FrameType type = FrameType::kHealth;
  std::vector<std::uint8_t> payload;
  const std::string recv_error = receiver.recv_frame(&type, &payload);
  EXPECT_EQ(recv_error.rfind("truncated payload: ", 0), 0u) << recv_error;
  EXPECT_LT(payload.capacity(), std::size_t{1} << 20);
}

TEST(ServeEndToEnd, MalformedFramesAnswerOneErrorAndClose) {
  LiveServer live;
  ASSERT_TRUE(live.registry.load_network("a", make_qnet(11)).empty());

  // Bad magic: one Error frame naming the problem, then the connection is
  // closed by the server.
  {
    std::string error;
    Socket socket = Socket::connect_loopback(live.server.port(), &error);
    ASSERT_TRUE(error.empty()) << error;
    std::uint8_t header[kHeaderBytes];
    encode_header(FrameType::kHealth, 0, header);
    header[0] ^= 0xFF;
    ASSERT_TRUE(socket.write_all(header, kHeaderBytes).empty());
    FrameType type = FrameType::kInfer;
    std::vector<std::uint8_t> payload;
    ASSERT_TRUE(socket.recv_frame(&type, &payload).empty());
    EXPECT_EQ(type, FrameType::kError);
    ErrorReply error_reply;
    ASSERT_TRUE(decode(payload, &error_reply).empty());
    EXPECT_NE(error_reply.message.find("magic"), std::string::npos)
        << error_reply.message;
    bool clean_eof = false;
    EXPECT_FALSE(socket.recv_frame(&type, &payload, &clean_eof).empty());
    EXPECT_TRUE(clean_eof) << "the server closes after a protocol error";
  }

  // Truncated length prefix: a client that dies mid-header must not wedge
  // or crash the server.
  {
    std::string error;
    Socket socket = Socket::connect_loopback(live.server.port(), &error);
    ASSERT_TRUE(error.empty()) << error;
    std::uint8_t header[kHeaderBytes];
    encode_header(FrameType::kHealth, 0, header);
    ASSERT_TRUE(socket.write_all(header, 5).empty());
    socket.close();
  }

  // A header promising more payload than ever arrives: the server's read
  // sees EOF mid-frame and closes without replying.
  {
    std::string error;
    Socket socket = Socket::connect_loopback(live.server.port(), &error);
    ASSERT_TRUE(error.empty()) << error;
    std::uint8_t header[kHeaderBytes];
    encode_header(FrameType::kHealth, 64, header);
    ASSERT_TRUE(socket.write_all(header, kHeaderBytes).empty());
    ASSERT_TRUE(socket.write_all("short", 5).empty());
    socket.close();
  }

  // Garbage payload on a known frame type: Error frame, then close.
  {
    Client client;
    ASSERT_TRUE(client.connect_loopback(live.server.port()).empty());
    std::vector<std::uint8_t> reply_payload;
    const std::string error =
        client.round_trip(FrameType::kInfer, {0xDE, 0xAD, 0xBE, 0xEF},
                          FrameType::kInferReply, &reply_payload);
    EXPECT_NE(error.find("server error"), std::string::npos) << error;
  }

  // A reply-typed frame from a client is a protocol violation.
  {
    Client client;
    ASSERT_TRUE(client.connect_loopback(live.server.port()).empty());
    std::vector<std::uint8_t> reply_payload;
    const std::string error =
        client.round_trip(FrameType::kInferReply, encode(InferReply{}),
                          FrameType::kInferReply, &reply_payload);
    EXPECT_NE(error.find("server error"), std::string::npos) << error;
    EXPECT_NE(error.find("infer_reply"), std::string::npos) << error;
  }

  // A NaN deadline decodes as a malformed frame: one Error frame, then
  // close. It must never reach admission's precondition, which would throw
  // in the connection thread and stop the daemon.
  {
    Client client;
    ASSERT_TRUE(client.connect_loopback(live.server.port()).empty());
    InferRequest request;
    request.model_id = "a";
    request.codes = encode_image(make_qnet(11), 5);
    request.options.deadline_ms = std::numeric_limits<double>::quiet_NaN();
    InferReply reply;
    const std::string error = client.infer(request, &reply);
    EXPECT_NE(error.find("server error"), std::string::npos) << error;
    EXPECT_NE(error.find("deadline"), std::string::npos) << error;
  }

  // After all that abuse the server still serves new connections.
  Client client;
  ASSERT_TRUE(client.connect_loopback(live.server.port()).empty());
  HealthReply health;
  ASSERT_TRUE(client.health("", &health).empty());
  EXPECT_EQ(health.models.size(), 1u);
}

TEST(ServeEndToEnd, ConcurrentClientsShareTheFleet) {
  // Several connections pushing inference at once: every reply is kOk with
  // the model's bit-identical logits — the wire layer adds no nondeterminism
  // on top of the pool's equivalence guarantee.
  LiveServer live;
  const quant::QuantizedNetwork qnet = make_qnet(11);
  const TensorI codes = encode_image(qnet, 5);
  const std::vector<std::int64_t> logits =
      reference_logits(qnet, live.options, codes);
  ASSERT_TRUE(live.registry.load_network("a", qnet).empty());

  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::vector<std::future<std::string>> sessions;
  for (int c = 0; c < kClients; ++c)
    sessions.push_back(std::async(std::launch::async, [&]() -> std::string {
      Client client;
      std::string error = client.connect_loopback(live.server.port());
      if (!error.empty()) return error;
      for (int i = 0; i < kPerClient; ++i) {
        InferRequest request;
        request.model_id = "a";
        request.codes = codes;
        InferReply reply;
        error = client.infer(request, &reply);
        if (!error.empty()) return error;
        if (reply.status != RequestStatus::kOk) return reply.error;
        if (reply.logits != logits) return "logits diverged";
      }
      return {};
    }));
  for (auto& session : sessions) EXPECT_EQ(session.get(), std::string());

  const auto snapshot = live.registry.snapshot("a");
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].stats.completed, kClients * kPerClient);
}

TEST(ServeFlags, PolicyNamesAliasADispatchSizeAndAFullQueueChoice) {
  // fifo and reject dispatch one request at a time whatever --max-batch
  // says; only batch takes --max-batch. Only reject sheds on a full queue.
  struct Case {
    std::vector<std::string> tokens;
    std::size_t max_batch;
    engine::OnFull on_full;
    double max_wait_ms;
    std::size_t queue_capacity;
  };
  const std::vector<Case> cases = {
      {{}, 1, engine::OnFull::kBlock, 1.0, 64},
      {{"--policy", "fifo", "--max-batch", "8"}, 1, engine::OnFull::kBlock,
       1.0, 64},
      {{"--policy", "batch", "--max-batch", "4", "--max-wait-ms", "0.5",
        "--queue-depth", "16"},
       4, engine::OnFull::kBlock, 0.5, 16},
      {{"--policy", "batch"}, 8, engine::OnFull::kBlock, 1.0, 64},
      {{"--policy", "reject", "--max-batch", "8", "--queue-depth", "0"}, 1,
       engine::OnFull::kReject, 1.0, 0},
  };
  for (const Case& c : cases) {
    std::string label;
    for (const std::string& token : c.tokens) label += token + " ";
    SCOPED_TRACE(label);
    flags::FlagSet flag_set(serving_pool_flags());
    ASSERT_EQ(flag_set.parse(c.tokens), "");
    engine::ServingPoolOptions options;
    ASSERT_EQ(pool_options_from_flags(flag_set, &options), "");
    EXPECT_EQ(options.max_batch, c.max_batch);
    EXPECT_EQ(options.on_full, c.on_full);
    EXPECT_DOUBLE_EQ(options.max_wait_ms, c.max_wait_ms);
    EXPECT_EQ(options.queue_capacity, c.queue_capacity);
  }

  flags::FlagSet unknown(serving_pool_flags());
  ASSERT_EQ(unknown.parse({"--policy", "lifo"}), "");
  engine::ServingPoolOptions options;
  EXPECT_EQ(pool_options_from_flags(unknown, &options),
            "unknown admission policy 'lifo' (expected fifo, batch or reject)");
}

TEST(ServeFlags, PoolDurationsAreBoundedByTheDeadlineCap) {
  // The batch window and the retry backoff become steady_clock durations;
  // beyond kMaxDeadlineMs that conversion would overflow.
  for (const char* flag : {"--max-wait-ms", "--backoff-ms"}) {
    SCOPED_TRACE(flag);
    flags::FlagSet too_long(serving_pool_flags());
    EXPECT_NE(too_long.parse({flag, "1e300"}), "");
    flags::FlagSet at_cap(serving_pool_flags());
    ASSERT_EQ(at_cap.parse({flag, std::to_string(engine::kMaxDeadlineMs)}), "");
    engine::ServingPoolOptions options;
    EXPECT_EQ(pool_options_from_flags(at_cap, &options), "");
  }
}

}  // namespace
}  // namespace rsnn::serve
