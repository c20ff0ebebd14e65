#include "serve/wire.hpp"

#include <cstdio>
#include <cstring>

namespace rsnn::serve {
namespace {

/// Decoded tensors must describe a sane shape before Shape's own contracts
/// see it — the wire is untrusted input, so malformed dims get a friendly
/// diagnostic, not a ContractViolation.
constexpr std::uint32_t kMaxTensorRank = 8;
constexpr std::int64_t kMaxTensorDim = 1 << 24;

void put_le(std::vector<std::uint8_t>* bytes, std::uint64_t value,
            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    bytes->push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xff));
}

std::uint64_t get_le(const std::uint8_t* bytes, std::size_t n) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < n; ++i)
    value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  return value;
}

/// Validate a wire byte as an enum with inclusive maximum `max_value`.
template <typename E>
bool enum_from_u8(std::uint8_t raw, std::uint8_t max_value, E* out) {
  if (raw > max_value) return false;
  *out = static_cast<E>(raw);
  return true;
}

std::string bad_enum(const char* what, std::uint8_t raw) {
  return std::string("malformed frame: bad ") + what + " value " +
         std::to_string(static_cast<int>(raw));
}

void write_health_vector(Writer* w,
                         const std::vector<engine::ReplicaHealth>& health) {
  w->u32(static_cast<std::uint32_t>(health.size()));
  for (const engine::ReplicaHealth h : health)
    w->u8(static_cast<std::uint8_t>(h));
}

std::string read_health_vector(Reader* r,
                               std::vector<engine::ReplicaHealth>* out) {
  const std::uint32_t count = r->u32();
  out->clear();
  for (std::uint32_t i = 0; i < count && r->ok(); ++i) {
    const std::uint8_t raw = r->u8();
    engine::ReplicaHealth health;
    if (!r->ok()) break;
    if (!enum_from_u8(raw, 2, &health)) return bad_enum("replica health", raw);
    out->push_back(health);
  }
  return {};
}

}  // namespace

const char* frame_name(FrameType type) {
  switch (type) {
    case FrameType::kInfer:
      return "infer";
    case FrameType::kLoadModel:
      return "load_model";
    case FrameType::kUnloadModel:
      return "unload_model";
    case FrameType::kHealth:
      return "health";
    case FrameType::kMetrics:
      return "metrics";
    case FrameType::kShutdown:
      return "shutdown";
    case FrameType::kInferReply:
      return "infer_reply";
    case FrameType::kLoadModelReply:
      return "load_model_reply";
    case FrameType::kUnloadModelReply:
      return "unload_model_reply";
    case FrameType::kHealthReply:
      return "health_reply";
    case FrameType::kMetricsReply:
      return "metrics_reply";
    case FrameType::kShutdownReply:
      return "shutdown_reply";
    case FrameType::kError:
      return "error";
  }
  return "unknown";
}

void encode_header(FrameType type, std::uint32_t payload_len,
                   std::uint8_t* out) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kHeaderBytes);
  put_le(&bytes, kMagic, 4);
  put_le(&bytes, kProtocolVersion, 2);
  put_le(&bytes, static_cast<std::uint16_t>(type), 2);
  put_le(&bytes, payload_len, 4);
  std::memcpy(out, bytes.data(), kHeaderBytes);
}

std::string decode_header(const std::uint8_t* bytes, FrameHeader* out) {
  const std::uint32_t magic = static_cast<std::uint32_t>(get_le(bytes, 4));
  if (magic != kMagic)
    return "bad magic 0x" + [magic] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }() + " (not an rsnn_serve frame)";
  out->version = static_cast<std::uint16_t>(get_le(bytes + 4, 2));
  if (out->version != kProtocolVersion)
    return "protocol version " + std::to_string(out->version) +
           " unsupported (this build speaks version " +
           std::to_string(kProtocolVersion) + ")";
  const std::uint16_t raw_type =
      static_cast<std::uint16_t>(get_le(bytes + 6, 2));
  out->type = static_cast<FrameType>(raw_type);
  if (std::string(frame_name(out->type)) == "unknown")
    return "unknown frame type " + std::to_string(raw_type);
  out->payload_len = static_cast<std::uint32_t>(get_le(bytes + 8, 4));
  if (out->payload_len > kMaxPayloadBytes)
    return "payload length " + std::to_string(out->payload_len) +
           " exceeds the " + std::to_string(kMaxPayloadBytes) + "-byte cap";
  return {};
}

// ----------------------------------------------------------------- Writer

void Writer::u8(std::uint8_t value) { put_le(&bytes_, value, 1); }
void Writer::u16(std::uint16_t value) { put_le(&bytes_, value, 2); }
void Writer::u32(std::uint32_t value) { put_le(&bytes_, value, 4); }
void Writer::u64(std::uint64_t value) { put_le(&bytes_, value, 8); }
void Writer::i32(std::int32_t value) {
  put_le(&bytes_, static_cast<std::uint32_t>(value), 4);
}
void Writer::i64(std::int64_t value) {
  put_le(&bytes_, static_cast<std::uint64_t>(value), 8);
}
void Writer::f64(double value) {
  std::uint64_t raw = 0;
  std::memcpy(&raw, &value, sizeof(raw));
  put_le(&bytes_, raw, 8);
}
void Writer::str(const std::string& value) {
  u32(static_cast<std::uint32_t>(value.size()));
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}
void Writer::tensor(const TensorI& value) {
  u32(static_cast<std::uint32_t>(value.shape().rank()));
  for (const std::int64_t dim : value.shape().dims()) i64(dim);
  for (std::int64_t i = 0; i < value.numel(); ++i) i32(value.data()[i]);
}

// ----------------------------------------------------------------- Reader

bool Reader::take(std::size_t n, const char* what) {
  if (!ok()) return false;
  if (size_ - pos_ < n) {
    fail(std::string("truncated frame: ") + what + " needs " +
         std::to_string(n) + " byte(s), " + std::to_string(size_ - pos_) +
         " left");
    return false;
  }
  return true;
}

void Reader::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
}

std::uint8_t Reader::u8() {
  if (!take(1, "u8")) return 0;
  return static_cast<std::uint8_t>(get_le(data_ + pos_++, 1));
}
std::uint16_t Reader::u16() {
  if (!take(2, "u16")) return 0;
  const auto value = static_cast<std::uint16_t>(get_le(data_ + pos_, 2));
  pos_ += 2;
  return value;
}
std::uint32_t Reader::u32() {
  if (!take(4, "u32")) return 0;
  const auto value = static_cast<std::uint32_t>(get_le(data_ + pos_, 4));
  pos_ += 4;
  return value;
}
std::uint64_t Reader::u64() {
  if (!take(8, "u64")) return 0;
  const std::uint64_t value = get_le(data_ + pos_, 8);
  pos_ += 8;
  return value;
}
std::int32_t Reader::i32() { return static_cast<std::int32_t>(u32()); }
std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }
double Reader::f64() {
  const std::uint64_t raw = u64();
  double value = 0.0;
  std::memcpy(&value, &raw, sizeof(value));
  return value;
}
std::string Reader::str() {
  const std::uint32_t len = u32();
  if (!take(len, "string body")) return {};
  std::string value(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return value;
}
TensorI Reader::tensor() {
  const std::uint32_t rank = u32();
  if (!ok()) return {};
  if (rank == 0 || rank > kMaxTensorRank) {
    fail("malformed frame: tensor rank " + std::to_string(rank) +
         " outside [1, " + std::to_string(kMaxTensorRank) + "]");
    return {};
  }
  std::vector<std::int64_t> dims;
  std::int64_t numel = 1;
  for (std::uint32_t d = 0; d < rank; ++d) {
    const std::int64_t dim = i64();
    if (!ok()) return {};
    if (dim < 1 || dim > kMaxTensorDim) {
      fail("malformed frame: tensor dim " + std::to_string(dim) +
           " outside [1, " + std::to_string(kMaxTensorDim) + "]");
      return {};
    }
    dims.push_back(dim);
    numel *= dim;
    if (numel > static_cast<std::int64_t>(kMaxPayloadBytes)) {
      fail("malformed frame: tensor larger than the payload cap");
      return {};
    }
  }
  // Size-check before allocating: the element bytes must actually be here.
  if (!take(static_cast<std::size_t>(numel) * 4, "tensor elements")) return {};
  std::vector<std::int32_t> data(static_cast<std::size_t>(numel));
  for (std::int64_t i = 0; i < numel; ++i) data[static_cast<std::size_t>(i)] = i32();
  return TensorI(Shape(std::move(dims)), std::move(data));
}

std::string Reader::finish() const {
  if (!ok()) return error_;
  if (!exhausted())
    return "malformed frame: " + std::to_string(size_ - pos_) +
           " trailing byte(s) after the payload";
  return {};
}

// ----------------------------------------------------------------- frames

std::vector<std::uint8_t> encode(const InferRequest& frame) {
  Writer w;
  w.str(frame.model_id);
  w.u8(static_cast<std::uint8_t>(frame.options.priority));
  w.u8(static_cast<std::uint8_t>(frame.options.admission));
  w.f64(frame.options.deadline_ms);
  w.tensor(frame.codes);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   InferRequest* out) {
  Reader r(payload);
  out->model_id = r.str();
  const std::uint8_t priority = r.u8();
  const std::uint8_t admission = r.u8();
  out->options.deadline_ms = r.f64();
  out->codes = r.tensor();
  std::string error = r.finish();
  if (!error.empty()) return error;
  if (!enum_from_u8(priority, 1, &out->options.priority))
    return bad_enum("priority class", priority);
  if (!enum_from_u8(admission, 1, &out->options.admission))
    return bad_enum("admission mode", admission);
  // Written so that NaN fails too.
  const double deadline_ms = out->options.deadline_ms;
  if (!(deadline_ms >= 0.0 && deadline_ms <= engine::kMaxDeadlineMs)) {
    char text[96];
    std::snprintf(text, sizeof text,
                  "malformed frame: deadline_ms %g is not in [0, %g]",
                  deadline_ms, engine::kMaxDeadlineMs);
    return text;
  }
  return {};
}

std::vector<std::uint8_t> encode(const InferReply& frame) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(frame.status));
  w.str(frame.error);
  w.u32(static_cast<std::uint32_t>(frame.logits.size()));
  for (const std::int64_t logit : frame.logits) w.i64(logit);
  w.i32(frame.predicted_class);
  w.i64(frame.total_cycles);
  w.f64(frame.latency_us);
  w.i32(frame.attempts);
  w.i32(frame.replica);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload, InferReply* out) {
  Reader r(payload);
  const std::uint8_t status = r.u8();
  out->error = r.str();
  const std::uint32_t num_logits = r.u32();
  out->logits.clear();
  for (std::uint32_t i = 0; i < num_logits && r.ok(); ++i)
    out->logits.push_back(r.i64());
  out->predicted_class = r.i32();
  out->total_cycles = r.i64();
  out->latency_us = r.f64();
  out->attempts = r.i32();
  out->replica = r.i32();
  std::string error = r.finish();
  if (!error.empty()) return error;
  if (!enum_from_u8(status, 4, &out->status))
    return bad_enum("request status", status);
  return {};
}

std::vector<std::uint8_t> encode(const LoadModelRequest& frame) {
  Writer w;
  w.str(frame.model_id);
  w.str(frame.path);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   LoadModelRequest* out) {
  Reader r(payload);
  out->model_id = r.str();
  out->path = r.str();
  return r.finish();
}

std::vector<std::uint8_t> encode(const LoadModelReply& frame) {
  Writer w;
  w.u8(frame.ok ? 1 : 0);
  w.u8(frame.swapped ? 1 : 0);
  w.str(frame.detail);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   LoadModelReply* out) {
  Reader r(payload);
  out->ok = r.u8() != 0;
  out->swapped = r.u8() != 0;
  out->detail = r.str();
  return r.finish();
}

std::vector<std::uint8_t> encode(const UnloadModelRequest& frame) {
  Writer w;
  w.str(frame.model_id);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   UnloadModelRequest* out) {
  Reader r(payload);
  out->model_id = r.str();
  return r.finish();
}

std::vector<std::uint8_t> encode(const UnloadModelReply& frame) {
  Writer w;
  w.u8(frame.ok ? 1 : 0);
  w.str(frame.detail);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   UnloadModelReply* out) {
  Reader r(payload);
  out->ok = r.u8() != 0;
  out->detail = r.str();
  return r.finish();
}

std::vector<std::uint8_t> encode(const HealthRequest& frame) {
  Writer w;
  w.str(frame.model_id);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   HealthRequest* out) {
  Reader r(payload);
  out->model_id = r.str();
  return r.finish();
}

std::vector<std::uint8_t> encode(const HealthReply& frame) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(frame.models.size()));
  for (const ModelHealth& model : frame.models) {
    w.str(model.model_id);
    w.u64(model.generation);
    w.i32(model.time_bits);
    w.u32(static_cast<std::uint32_t>(model.input_dims.size()));
    for (const std::int64_t dim : model.input_dims) w.i64(dim);
    w.i32(model.replicas);
    w.i32(model.active_replicas);
    write_health_vector(&w, model.replica_health);
  }
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   HealthReply* out) {
  Reader r(payload);
  const std::uint32_t count = r.u32();
  out->models.clear();
  for (std::uint32_t m = 0; m < count && r.ok(); ++m) {
    ModelHealth model;
    model.model_id = r.str();
    model.generation = r.u64();
    model.time_bits = r.i32();
    const std::uint32_t rank = r.u32();
    for (std::uint32_t d = 0; d < rank && r.ok(); ++d)
      model.input_dims.push_back(r.i64());
    model.replicas = r.i32();
    model.active_replicas = r.i32();
    const std::string error = read_health_vector(&r, &model.replica_health);
    if (!error.empty()) return error;
    out->models.push_back(std::move(model));
  }
  return r.finish();
}

std::vector<std::uint8_t> encode(const MetricsRequest& frame) {
  Writer w;
  w.str(frame.model_id);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   MetricsRequest* out) {
  Reader r(payload);
  out->model_id = r.str();
  return r.finish();
}

std::vector<std::uint8_t> encode(const MetricsReply& frame) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(frame.models.size()));
  for (const ModelMetrics& m : frame.models) {
    w.str(m.model_id);
    w.i64(m.submitted);
    w.i64(m.rejected);
    w.i64(m.completed);
    w.i64(m.failed);
    w.i64(m.deadline_exceeded);
    w.i64(m.cancelled);
    w.i64(m.retries);
    w.i64(m.replica_failures);
    w.i64(m.stalls);
    w.i64(m.rebuilds);
    w.f64(m.latency_goodput);
    w.f64(m.bulk_goodput);
    w.f64(m.p50_latency_ms);
    w.f64(m.p99_latency_ms);
    w.f64(m.wall_images_per_sec);
    w.f64(m.mean_batch);
    w.f64(m.expected_attempts_per_image);
    w.i32(m.active_replicas);
    write_health_vector(&w, m.replica_health);
  }
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   MetricsReply* out) {
  Reader r(payload);
  const std::uint32_t count = r.u32();
  out->models.clear();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    ModelMetrics m;
    m.model_id = r.str();
    m.submitted = r.i64();
    m.rejected = r.i64();
    m.completed = r.i64();
    m.failed = r.i64();
    m.deadline_exceeded = r.i64();
    m.cancelled = r.i64();
    m.retries = r.i64();
    m.replica_failures = r.i64();
    m.stalls = r.i64();
    m.rebuilds = r.i64();
    m.latency_goodput = r.f64();
    m.bulk_goodput = r.f64();
    m.p50_latency_ms = r.f64();
    m.p99_latency_ms = r.f64();
    m.wall_images_per_sec = r.f64();
    m.mean_batch = r.f64();
    m.expected_attempts_per_image = r.f64();
    m.active_replicas = r.i32();
    const std::string error = read_health_vector(&r, &m.replica_health);
    if (!error.empty()) return error;
    out->models.push_back(std::move(m));
  }
  return r.finish();
}

std::vector<std::uint8_t> encode(const ShutdownRequest& frame) {
  Writer w;
  w.u8(frame.drain ? 1 : 0);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   ShutdownRequest* out) {
  Reader r(payload);
  out->drain = r.u8() != 0;
  return r.finish();
}

std::vector<std::uint8_t> encode(const ShutdownReply& frame) {
  Writer w;
  w.str(frame.detail);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload,
                   ShutdownReply* out) {
  Reader r(payload);
  out->detail = r.str();
  return r.finish();
}

std::vector<std::uint8_t> encode(const ErrorReply& frame) {
  Writer w;
  w.str(frame.message);
  return w.take();
}

std::string decode(const std::vector<std::uint8_t>& payload, ErrorReply* out) {
  Reader r(payload);
  out->message = r.str();
  return r.finish();
}

}  // namespace rsnn::serve
