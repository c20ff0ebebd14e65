#include "serve/server.hpp"

#include <utility>

#include "common/log.hpp"
#include "compiler/partition.hpp"

namespace rsnn::serve {
namespace {

InferReply reply_from(const engine::ServingResult& outcome) {
  InferReply reply;
  reply.status = outcome.status;
  reply.error = outcome.error;
  reply.attempts = outcome.attempts;
  reply.replica = outcome.replica;
  if (outcome.status == engine::RequestStatus::kOk) {
    reply.logits = outcome.result.logits;
    reply.predicted_class = outcome.result.predicted_class;
    reply.total_cycles = outcome.result.total_cycles;
    reply.latency_us = outcome.result.latency_us;
  }
  return reply;
}

ModelHealth health_from(const ModelInfo& info) {
  ModelHealth health;
  health.model_id = info.model_id;
  health.generation = info.generation;
  health.time_bits = info.time_bits;
  health.input_dims = info.input_shape.dims();
  health.replicas = info.replicas;
  health.active_replicas = info.stats.active_replicas;
  health.replica_health = info.stats.replica_health;
  return health;
}

ModelMetrics metrics_from(const ModelInfo& info) {
  const engine::ServingStats& s = info.stats;
  ModelMetrics m;
  m.model_id = info.model_id;
  m.submitted = s.submitted;
  m.rejected = s.rejected;
  m.completed = s.completed;
  m.failed = s.failed;
  m.deadline_exceeded = s.deadline_exceeded;
  m.cancelled = s.cancelled;
  m.retries = s.retries;
  m.replica_failures = s.replica_failures;
  m.stalls = s.stalls;
  m.rebuilds = s.rebuilds;
  m.latency_goodput = s.per_class[0].goodput;
  m.bulk_goodput = s.per_class[1].goodput;
  m.p50_latency_ms = s.p50_latency_ms;
  m.p99_latency_ms = s.p99_latency_ms;
  m.wall_images_per_sec = s.wall_images_per_sec;
  m.mean_batch = s.mean_batch;
  m.expected_attempts_per_image =
      compiler::expected_attempts_per_image(s.completed, s.retries, s.stalls);
  m.active_replicas = s.active_replicas;
  m.replica_health = s.replica_health;
  return m;
}

/// Best-effort protocol-error answer; the connection closes either way.
void send_error(Socket& socket, const std::string& message) {
  ErrorReply reply;
  reply.message = message;
  socket.send_frame(FrameType::kError, encode(reply));
}

}  // namespace

Server::Server(ModelRegistry& registry, ServerOptions options)
    : registry_(registry), options_(options) {}

Server::~Server() { stop(); }

std::string Server::start() {
  const std::string error = listener_.listen_loopback(options_.port);
  if (!error.empty()) return error;
  accept_thread_ = std::thread([this] { accept_main(); });
  return {};
}

void Server::accept_main() {
  while (!stopping_.load()) {
    std::string error;
    Socket socket = listener_.accept_connection(&error);
    if (!socket.valid()) {
      // stop() shut the listener down; anything else on a
      // closed-over loopback listener is equally terminal.
      break;
    }
    ++accepted_;
    // Reap finished connections so a long-lived daemon doesn't accumulate
    // one joinable thread per client ever served.
    std::vector<std::unique_ptr<Connection>> finished;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load()) {
          finished.push_back(std::move(*it));
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& connection : finished) connection->thread.join();

    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    Connection* raw = connection.get();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { connection_main(raw); });
  }
}

void Server::connection_main(Connection* connection) {
  Socket& socket = connection->socket;
  for (;;) {
    FrameType type;
    std::vector<std::uint8_t> payload;
    bool clean_eof = false;
    const std::string error = socket.recv_frame(&type, &payload, &clean_eof);
    if (!error.empty()) {
      // Clean EOF is the normal end of a session; everything else (bad
      // magic, unsupported version, oversized frame, truncated read) gets
      // one best-effort Error frame before the close.
      if (!clean_eof && !stopping_.load()) {
        RSNN_WARN("serve: dropping connection: " << error);
        send_error(socket, error);
      }
      break;
    }
    if (!handle_frame(socket, type, payload)) break;
  }
  socket.shutdown_rw();
  connection->done.store(true);
}

bool Server::handle_frame(Socket& socket, FrameType type,
                          const std::vector<std::uint8_t>& payload) {
  switch (type) {
    case FrameType::kInfer: {
      InferRequest request;
      const std::string error = decode(payload, &request);
      if (!error.empty()) {
        send_error(socket, error);
        return false;
      }
      engine::Request typed;
      typed.model_id = std::move(request.model_id);
      typed.codes = std::move(request.codes);
      typed.options = request.options;
      const engine::ServingResult outcome =
          registry_.submit(std::move(typed)).get();
      return socket
          .send_frame(FrameType::kInferReply, encode(reply_from(outcome)))
          .empty();
    }
    case FrameType::kLoadModel: {
      LoadModelRequest request;
      const std::string error = decode(payload, &request);
      if (!error.empty()) {
        send_error(socket, error);
        return false;
      }
      LoadModelReply reply;
      const std::string load_error =
          registry_.load_model(request.model_id, request.path, &reply.swapped);
      reply.ok = load_error.empty();
      reply.detail = reply.ok
                         ? (reply.swapped ? "hot-swapped '" : "loaded '") +
                               request.model_id + "' from " + request.path
                         : load_error;
      RSNN_INFO("serve: " << reply.detail);
      return socket.send_frame(FrameType::kLoadModelReply, encode(reply))
          .empty();
    }
    case FrameType::kUnloadModel: {
      UnloadModelRequest request;
      const std::string error = decode(payload, &request);
      if (!error.empty()) {
        send_error(socket, error);
        return false;
      }
      UnloadModelReply reply;
      const std::string unload_error = registry_.unload_model(request.model_id);
      reply.ok = unload_error.empty();
      reply.detail =
          reply.ok ? "unloaded '" + request.model_id + "'" : unload_error;
      RSNN_INFO("serve: " << reply.detail);
      return socket.send_frame(FrameType::kUnloadModelReply, encode(reply))
          .empty();
    }
    case FrameType::kHealth: {
      HealthRequest request;
      const std::string error = decode(payload, &request);
      if (!error.empty()) {
        send_error(socket, error);
        return false;
      }
      HealthReply reply;
      for (const ModelInfo& info : registry_.snapshot(request.model_id))
        reply.models.push_back(health_from(info));
      return socket.send_frame(FrameType::kHealthReply, encode(reply))
          .empty();
    }
    case FrameType::kMetrics: {
      MetricsRequest request;
      const std::string error = decode(payload, &request);
      if (!error.empty()) {
        send_error(socket, error);
        return false;
      }
      MetricsReply reply;
      for (const ModelInfo& info : registry_.snapshot(request.model_id))
        reply.models.push_back(metrics_from(info));
      return socket.send_frame(FrameType::kMetricsReply, encode(reply))
          .empty();
    }
    case FrameType::kShutdown: {
      ShutdownRequest request;
      const std::string error = decode(payload, &request);
      if (!error.empty()) {
        send_error(socket, error);
        return false;
      }
      ShutdownReply reply;
      reply.detail = request.drain
                         ? "shutting down: draining admitted work"
                         : "shutting down: cancelling undispatched work";
      RSNN_INFO("serve: " << reply.detail);
      socket.send_frame(FrameType::kShutdownReply, encode(reply));
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        drain_on_shutdown_ = request.drain;
        shutdown_requested_.store(true);
      }
      shutdown_cv_.notify_all();
      return false;
    }
    default:
      // A client must never send reply-typed or Error frames.
      send_error(socket, std::string("unexpected ") + frame_name(type) +
                             " frame from a client");
      return false;
  }
}

void Server::wait_until_shutdown(bool* drain_requested) {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_.load(); });
  if (drain_requested != nullptr) *drain_requested = drain_on_shutdown_;
}

void Server::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_requested_.store(true);
  }
  shutdown_cv_.notify_all();
}

void Server::stop() {
  if (stopping_.exchange(true)) return;
  request_stop();
  // Wake the blocked accept, and only once the accept thread is gone close
  // the descriptor: closing first would race its reads of the fd (and could
  // hand a recycled fd number to that accept).
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) connection->socket.shutdown_rw();
  for (auto& connection : connections) connection->thread.join();
}

}  // namespace rsnn::serve
