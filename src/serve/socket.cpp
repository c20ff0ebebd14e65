#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace rsnn::serve {
namespace {

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// First payload read step; later steps match the bytes already received.
constexpr std::size_t kMinPayloadStep = std::size_t{64} << 10;

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::string Socket::read_exact(void* buffer, std::size_t n, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  if (!valid()) return "read on a closed socket";
  auto* bytes = static_cast<std::uint8_t*>(buffer);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd_, bytes + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0 && clean_eof != nullptr) *clean_eof = true;
      return "connection closed by peer (" + std::to_string(got) + " of " +
             std::to_string(n) + " byte(s) read)";
    }
    if (errno == EINTR) continue;
    return errno_message("recv failed");
  }
  return {};
}

std::string Socket::write_all(const void* data, std::size_t n) {
  if (!valid()) return "write on a closed socket";
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd_, bytes + sent, n - sent, kSendFlags);
    if (w >= 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    return errno_message("send failed");
  }
  return {};
}

std::string Socket::send_frame(FrameType type,
                               const std::vector<std::uint8_t>& payload) {
  std::uint8_t header[kHeaderBytes];
  encode_header(type, static_cast<std::uint32_t>(payload.size()), header);
  // One buffered write per frame, so a concurrent sender on another
  // connection never interleaves header and payload bytes mid-frame.
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.insert(frame.end(), header, header + kHeaderBytes);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return write_all(frame.data(), frame.size());
}

std::string Socket::recv_frame(FrameType* type,
                               std::vector<std::uint8_t>* payload,
                               bool* clean_eof) {
  std::uint8_t header_bytes[kHeaderBytes];
  std::string error = read_exact(header_bytes, kHeaderBytes, clean_eof);
  if (!error.empty()) return error;
  FrameHeader header;
  error = decode_header(header_bytes, &header);
  if (!error.empty()) return error;
  *type = header.type;
  // The buffer grows with the bytes that actually arrive, at most doubling
  // per step, so a header alone cannot make the receiver hold its claimed
  // length.
  payload->clear();
  std::size_t got = 0;
  while (got < header.payload_len) {
    const std::size_t step = std::min<std::size_t>(
        header.payload_len - got, std::max(kMinPayloadStep, got));
    payload->resize(got + step);
    error = read_exact(payload->data() + got, step);
    if (!error.empty()) return "truncated payload: " + error;
    got += step;
  }
  return {};
}

void Socket::shutdown_rw() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::connect_loopback(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errno_message("socket failed");
    return Socket();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    *error = errno_message(
        ("connect to 127.0.0.1:" + std::to_string(port)).c_str());
    ::close(fd);
    return Socket();
  }
  // Frames are request/response; never batch small writes behind Nagle.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  error->clear();
  return Socket(fd);
}

Listener::~Listener() { close(); }

std::string Listener::listen_loopback(int port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return errno_message("socket failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string error = errno_message(
        ("bind 127.0.0.1:" + std::to_string(port)).c_str());
    close();
    return error;
  }
  if (::listen(fd_, 16) < 0) {
    const std::string error = errno_message("listen failed");
    close();
    return error;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const std::string error = errno_message("getsockname failed");
    close();
    return error;
  }
  port_ = ntohs(bound.sin_port);
  return {};
}

Socket Listener::accept_connection(std::string* error) {
  if (!valid()) {
    *error = "listener is closed";
    return Socket();
  }
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    *error = errno_message("accept failed");
    return Socket();
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  error->clear();
  return Socket(fd);
}

void Listener::shutdown() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() {
  if (valid()) {
    shutdown();
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace rsnn::serve
