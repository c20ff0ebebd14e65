// serve::Server — the daemon's network front end: accept loop + one
// blocking connection thread per client, translating wire frames into
// ModelRegistry calls.
//
// Threading model: frame handling is synchronous per connection (a client
// wanting pipelined inferences opens several connections); concurrency
// comes from the per-model ServingPools behind the registry, exactly as for
// in-process callers. Infer blocks its connection thread on the typed
// future — admission, batching, deadlines and retries all apply unchanged,
// because the wire path funnels into the same ServingPool::submit(Request)
// core.
//
// Protocol errors (bad magic/version, malformed payload, a reply-typed
// frame from a client) answer with one Error frame and close the
// connection. Application errors (unknown model id, failed load) travel
// inside the typed reply and leave the connection open.
//
// A Shutdown frame acknowledges, then marks the server done —
// wait_until_shutdown() returns and the owner (rsnn_serve's main, or a
// test) calls stop(), which closes the listener, unblocks every
// connection, and joins all threads. request_stop() is the in-process
// equivalent for SIGINT handling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.hpp"
#include "serve/socket.hpp"
#include "serve/wire.hpp"

namespace rsnn::serve {

struct ServerOptions {
  /// 127.0.0.1 port to bind; 0 = kernel-assigned (tests read port()).
  int port = 0;
};

class Server {
 public:
  /// The registry must outlive the server.
  Server(ModelRegistry& registry, ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start the accept thread. Diagnostic, empty on success.
  std::string start();

  /// The bound port (valid after start()).
  int port() const { return listener_.port(); }

  /// Block until a Shutdown frame arrives or request_stop() is called.
  /// `drain_requested` reports the Shutdown frame's drain flag (true for
  /// request_stop).
  void wait_until_shutdown(bool* drain_requested = nullptr);

  bool shutdown_requested() const { return shutdown_requested_.load(); }

  /// Unblock wait_until_shutdown (the daemon's SIGINT path).
  void request_stop();

  /// Close the listener, unblock every connection read, join all threads.
  /// Idempotent. Does NOT shut down the registry — the owner decides how
  /// (drain vs cancel) after the server is quiet.
  void stop();

  /// Connections accepted so far (monotonic; for tests and reports).
  std::int64_t connections_accepted() const { return accepted_.load(); }

 private:
  /// A connection thread and the socket it reads, kept so stop() can
  /// shutdown_rw() the fd to unblock a blocked recv before joining.
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_main();
  void connection_main(Connection* connection);
  /// Dispatch one frame; returns false when the connection must close
  /// (protocol error already answered, or clean shutdown).
  bool handle_frame(Socket& socket, FrameType type,
                    const std::vector<std::uint8_t>& payload);

  ModelRegistry& registry_;
  ServerOptions options_;
  Listener listener_;
  std::thread accept_thread_;

  std::mutex mutex_;
  std::condition_variable shutdown_cv_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> stopping_{false};
  bool drain_on_shutdown_ = true;
  std::atomic<std::int64_t> accepted_{0};
};

}  // namespace rsnn::serve
