// Thin RAII layer over POSIX TCP sockets, scoped to what the serving
// daemon needs: loopback listeners (port 0 = kernel-assigned, for tests),
// blocking connections with exact-read/exact-write helpers, and frame-level
// send/receive built on the wire module.
//
// Error reporting follows the repo's front-end convention: operations
// return a friendly one-line diagnostic string (empty = success) instead of
// throwing — peers sending garbage is an expected runtime condition, not a
// contract violation. EINTR is retried; SIGPIPE is suppressed per-send.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace rsnn::serve {

/// One connected TCP stream. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Read exactly `n` bytes. `*clean_eof` (optional) is set when the peer
  /// closed before the first byte — the normal end of a connection, which
  /// returns a non-empty diagnostic but is not a protocol error.
  std::string read_exact(void* buffer, std::size_t n,
                         bool* clean_eof = nullptr);

  /// Write exactly `n` bytes.
  std::string write_all(const void* data, std::size_t n);

  /// Send one frame: header + payload.
  std::string send_frame(FrameType type,
                         const std::vector<std::uint8_t>& payload);

  /// Receive one frame: validates the header (magic, version, payload cap)
  /// and reads the payload in steps that grow with the bytes received, so
  /// the buffer never runs far ahead of what the peer actually sent.
  /// `*clean_eof` as in read_exact.
  std::string recv_frame(FrameType* type, std::vector<std::uint8_t>* payload,
                         bool* clean_eof = nullptr);

  /// Shut down both directions (unblocks a reader in another thread)
  /// without closing the descriptor.
  void shutdown_rw();
  void close();

  /// Blocking connect to 127.0.0.1:port.
  static Socket connect_loopback(int port, std::string* error);

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and listen.
  /// Returns a diagnostic, empty on success.
  std::string listen_loopback(int port);

  /// The actual bound port (resolves port-0 binds).
  int port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  /// Block until a client connects. Returns an invalid Socket (with a
  /// diagnostic) on failure — including when shutdown() woke the accept.
  Socket accept_connection(std::string* error);

  /// Shut the listening socket down without releasing the descriptor:
  /// wakes a thread blocked in accept_connection, which then fails. Safe to
  /// call while another thread is accepting; close() only after it returns.
  void shutdown();

  /// Shut down + close the listening socket. Must not race
  /// accept_connection (stop the accepting thread with shutdown() first).
  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

}  // namespace rsnn::serve
