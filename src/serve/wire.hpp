// rsnn_serve wire protocol: length-prefixed binary frames over a byte
// stream (TCP). One frame = a fixed 12-byte header + a typed payload.
//
//   header (little-endian):
//     u32 magic        0x52534E56 ("RSNV")
//     u16 version      kProtocolVersion (currently 1)
//     u16 type         FrameType
//     u32 payload_len  bytes following the header (<= kMaxPayloadBytes)
//
// Request frames (client -> server) and their replies (server -> client):
//
//   | type | frame        | payload                                        |
//   |------|--------------|------------------------------------------------|
//   |    1 | Infer        | model_id, options(priority,admission,deadline),|
//   |      |              | codes tensor                                   |
//   |  129 | InferReply   | status, error, logits, predicted_class, cycles,|
//   |      |              | latency_us, attempts, replica                  |
//   |    2 | LoadModel    | model_id, qsnn path (server-side)              |
//   |  130 | LoadReply    | ok, swapped(hot-swap), detail                  |
//   |    3 | UnloadModel  | model_id                                       |
//   |  131 | UnloadReply  | ok, detail                                     |
//   |    4 | Health       | model_id ("" = all models)                     |
//   |  132 | HealthReply  | per model: id, generation, time_bits,          |
//   |      |              | input dims, replicas, active, health[]         |
//   |    5 | Metrics      | model_id ("" = all models)                     |
//   |  133 | MetricsReply | per model: ServingStats counters, goodput,     |
//   |      |              | percentiles, expected attempts/image, health[] |
//   |    6 | Shutdown     | drain flag                                     |
//   |  134 | ShutdownReply| detail                                         |
//   |  255 | Error        | message (protocol-level failure; the server    |
//   |      |              | closes the connection after sending one)       |
//
// Reply types are request | 0x80. Application-level failures (unknown model
// id on Infer, load failure) travel inside the typed reply — an Error frame
// means the *protocol* broke (bad magic, bad version, malformed payload,
// oversized frame) and the connection is done.
//
// Version policy: the version field is checked for exact equality. Any
// change to the header or to an existing payload layout bumps
// kProtocolVersion; adding a new frame type does not (old servers answer
// unknown types with an Error frame, which clients surface verbatim).
//
// Encoding primitives: integers little-endian; strings are u32 length +
// bytes (no terminator); tensors are u32 rank + u32 dims + i32 elements,
// row-major. Decoders are bounds-checked and never trust payload_len:
// truncated or trailing bytes fail with a one-line diagnostic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/serving_pool.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::serve {

inline constexpr std::uint32_t kMagic = 0x52534E56;  // "RSNV"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
inline constexpr std::size_t kHeaderBytes = 12;

enum class FrameType : std::uint16_t {
  kInfer = 1,
  kLoadModel = 2,
  kUnloadModel = 3,
  kHealth = 4,
  kMetrics = 5,
  kShutdown = 6,
  kInferReply = 129,
  kLoadModelReply = 130,
  kUnloadModelReply = 131,
  kHealthReply = 132,
  kMetricsReply = 133,
  kShutdownReply = 134,
  kError = 255,
};

/// Canonical frame name ("infer", "load_model", ...); "unknown" otherwise.
const char* frame_name(FrameType type);

struct FrameHeader {
  std::uint16_t version = 0;
  FrameType type = FrameType::kError;
  std::uint32_t payload_len = 0;
};

/// Serialize a header into `out[kHeaderBytes]`.
void encode_header(FrameType type, std::uint32_t payload_len,
                   std::uint8_t* out);

/// Parse and validate a header: magic, version, payload cap. Returns a
/// friendly one-line diagnostic, empty on success.
std::string decode_header(const std::uint8_t* bytes, FrameHeader* out);

// --------------------------------------------------------------- payloads

/// Append-only little-endian payload builder.
class Writer {
 public:
  void u8(std::uint8_t value);
  void u16(std::uint16_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i32(std::int32_t value);
  void i64(std::int64_t value);
  void f64(double value);
  void str(const std::string& value);
  void tensor(const TensorI& value);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian payload cursor. The first out-of-bounds or
/// malformed read latches a failure (`ok()` false, `error()` describes it);
/// subsequent reads return zero values. Decoders check ok() + exhausted()
/// once at the end instead of after every field.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& payload)
      : Reader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  std::string str();
  TensorI tensor();

  bool ok() const { return error_.empty(); }
  /// True when every payload byte was consumed (trailing garbage is a
  /// protocol error).
  bool exhausted() const { return ok() && pos_ == size_; }
  const std::string& error() const { return error_; }
  /// ok() && exhausted(), else the diagnostic (for decode_* returns).
  std::string finish() const;

 private:
  bool take(std::size_t n, const char* what);
  void fail(const std::string& message);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ----------------------------------------------------------------- frames
//
// Each frame is a plain struct with encode() -> payload bytes and
// decode_*(payload, out) -> diagnostic ("" on success).

struct InferRequest {
  std::string model_id;
  engine::RequestOptions options;
  TensorI codes;
};

struct InferReply {
  engine::RequestStatus status = engine::RequestStatus::kCancelled;
  std::string error;
  std::vector<std::int64_t> logits;
  std::int32_t predicted_class = -1;
  std::int64_t total_cycles = 0;
  double latency_us = 0.0;
  std::int32_t attempts = 0;
  std::int32_t replica = -1;
};

struct LoadModelRequest {
  std::string model_id;
  std::string path;  ///< .qsnn path resolved on the server's filesystem
};

struct LoadModelReply {
  bool ok = false;
  bool swapped = false;  ///< an existing model with this id was hot-swapped
  std::string detail;
};

struct UnloadModelRequest {
  std::string model_id;
};

struct UnloadModelReply {
  bool ok = false;
  std::string detail;
};

struct HealthRequest {
  std::string model_id;  ///< empty = all models
};

struct ModelHealth {
  std::string model_id;
  std::uint64_t generation = 0;  ///< bumped on every (re)load
  std::int32_t time_bits = 0;
  std::vector<std::int64_t> input_dims;  ///< CHW of the expected input
  std::int32_t replicas = 0;
  std::int32_t active_replicas = 0;
  std::vector<engine::ReplicaHealth> replica_health;
};

struct HealthReply {
  std::vector<ModelHealth> models;
};

struct MetricsRequest {
  std::string model_id;  ///< empty = all models
};

struct ModelMetrics {
  std::string model_id;
  std::int64_t submitted = 0;
  std::int64_t rejected = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t cancelled = 0;
  std::int64_t retries = 0;
  std::int64_t replica_failures = 0;
  std::int64_t stalls = 0;
  std::int64_t rebuilds = 0;
  double latency_goodput = 0.0;
  double bulk_goodput = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double wall_images_per_sec = 0.0;
  double mean_batch = 0.0;
  /// Measured dispatch attempts per served image
  /// (compiler::expected_attempts_per_image over the pool's counters): the
  /// fleet's retry and stall overhead, 1.0 when fault-free.
  double expected_attempts_per_image = 1.0;
  std::int32_t active_replicas = 0;
  std::vector<engine::ReplicaHealth> replica_health;
};

struct MetricsReply {
  std::vector<ModelMetrics> models;
};

struct ShutdownRequest {
  bool drain = true;
};

struct ShutdownReply {
  std::string detail;
};

struct ErrorReply {
  std::string message;
};

std::vector<std::uint8_t> encode(const InferRequest& frame);
std::vector<std::uint8_t> encode(const InferReply& frame);
std::vector<std::uint8_t> encode(const LoadModelRequest& frame);
std::vector<std::uint8_t> encode(const LoadModelReply& frame);
std::vector<std::uint8_t> encode(const UnloadModelRequest& frame);
std::vector<std::uint8_t> encode(const UnloadModelReply& frame);
std::vector<std::uint8_t> encode(const HealthRequest& frame);
std::vector<std::uint8_t> encode(const HealthReply& frame);
std::vector<std::uint8_t> encode(const MetricsRequest& frame);
std::vector<std::uint8_t> encode(const MetricsReply& frame);
std::vector<std::uint8_t> encode(const ShutdownRequest& frame);
std::vector<std::uint8_t> encode(const ShutdownReply& frame);
std::vector<std::uint8_t> encode(const ErrorReply& frame);

std::string decode(const std::vector<std::uint8_t>& payload,
                   InferRequest* out);
std::string decode(const std::vector<std::uint8_t>& payload, InferReply* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   LoadModelRequest* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   LoadModelReply* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   UnloadModelRequest* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   UnloadModelReply* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   HealthRequest* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   HealthReply* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   MetricsRequest* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   MetricsReply* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   ShutdownRequest* out);
std::string decode(const std::vector<std::uint8_t>& payload,
                   ShutdownReply* out);
std::string decode(const std::vector<std::uint8_t>& payload, ErrorReply* out);

}  // namespace rsnn::serve
