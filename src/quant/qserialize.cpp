#include "quant/qserialize.hpp"

#include <cstdint>
#include <fstream>

#include "common/assert.hpp"
#include "ir/layer_program.hpp"

namespace rsnn::quant {
namespace {

constexpr char kMagic[4] = {'Q', 'S', 'N', 'N'};
constexpr std::uint32_t kVersion = 2;  // v2 added per-channel requantizer shifts

enum class LayerTag : std::uint32_t {
  kConv = 1,
  kPool = 2,
  kLinear = 3,
  kFlatten = 4,
};

void write_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_i32(std::ostream& os, std::int32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
std::uint32_t read_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
std::int32_t read_i32(std::istream& is) {
  std::int32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
std::int64_t read_i64(std::istream& is) {
  std::int64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_shape(std::ostream& os, const Shape& shape) {
  write_u32(os, static_cast<std::uint32_t>(shape.rank()));
  for (int axis = 0; axis < shape.rank(); ++axis) write_i64(os, shape.dim(axis));
}

Shape read_shape(std::istream& is) {
  const std::uint32_t rank = read_u32(is);
  RSNN_REQUIRE(rank <= 8, "implausible tensor rank " << rank);
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) d = read_i64(is);
  return Shape{dims};
}

void write_tensor_i(std::ostream& os, const TensorI& t) {
  write_shape(os, t.shape());
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(std::int32_t)));
}

TensorI read_tensor_i(std::istream& is) {
  TensorI t(read_shape(is));
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(std::int32_t)));
  return t;
}

void write_tensor_i64(std::ostream& os, const TensorI64& t) {
  write_shape(os, t.shape());
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(std::int64_t)));
}

TensorI64 read_tensor_i64(std::istream& is) {
  TensorI64 t(read_shape(is));
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(std::int64_t)));
  return t;
}

}  // namespace

void save_quantized(const QuantizedNetwork& qnet, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  RSNN_REQUIRE(os.good(), "cannot open " << path << " for writing");

  os.write(kMagic, sizeof(kMagic));
  write_u32(os, kVersion);
  write_i32(os, qnet.time_bits);
  write_i32(os, qnet.weight_bits);
  write_shape(os, qnet.input_shape);
  write_u32(os, static_cast<std::uint32_t>(qnet.layers.size()));

  const ir::LayerProgram program = ir::lower(qnet);
  for (const ir::LayerOp& op : program.ops()) {
    switch (op.kind) {
      case ir::OpKind::kConv: {
        const QConv2d& conv = *op.conv;
        write_u32(os, static_cast<std::uint32_t>(LayerTag::kConv));
        write_i64(os, conv.in_channels);
        write_i64(os, conv.out_channels);
        write_i64(os, conv.kernel);
        write_i64(os, conv.stride);
        write_i64(os, conv.padding);
        write_i32(os, conv.frac_bits);
        write_i32(os, conv.requantize ? 1 : 0);
        write_i32(os, conv.channel_frac.numel() > 0 ? 1 : 0);
        write_tensor_i(os, conv.weight);
        write_tensor_i64(os, conv.bias);
        if (conv.channel_frac.numel() > 0) write_tensor_i(os, conv.channel_frac);
        break;
      }
      case ir::OpKind::kPool:
        write_u32(os, static_cast<std::uint32_t>(LayerTag::kPool));
        write_i64(os, op.pool->kernel);
        write_i32(os, op.pool->shift);
        break;
      case ir::OpKind::kLinear: {
        const QLinear& fc = *op.linear;
        write_u32(os, static_cast<std::uint32_t>(LayerTag::kLinear));
        write_i64(os, fc.in_features);
        write_i64(os, fc.out_features);
        write_i32(os, fc.frac_bits);
        write_i32(os, fc.requantize ? 1 : 0);
        write_i32(os, fc.channel_frac.numel() > 0 ? 1 : 0);
        write_tensor_i(os, fc.weight);
        write_tensor_i64(os, fc.bias);
        if (fc.channel_frac.numel() > 0) write_tensor_i(os, fc.channel_frac);
        break;
      }
      case ir::OpKind::kFlatten:
        write_u32(os, static_cast<std::uint32_t>(LayerTag::kFlatten));
        break;
    }
  }
  RSNN_REQUIRE(os.good(), "write failure on " << path);
}

QuantizedNetwork load_quantized(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  RSNN_REQUIRE(is.good(), "cannot open " << path << " for reading");

  char magic[4];
  is.read(magic, sizeof(magic));
  RSNN_REQUIRE(is.good() && std::equal(magic, magic + 4, kMagic),
               "bad magic in " << path);
  const std::uint32_t version = read_u32(is);
  RSNN_REQUIRE(version == kVersion, "unsupported .qsnn version " << version);

  QuantizedNetwork qnet;
  qnet.time_bits = read_i32(is);
  qnet.weight_bits = read_i32(is);
  // The fast path's 32-bit SIMD multiply relies on a T-bit code times an
  // int8 weight fitting in int32. The bounds are quantize's (weight_bits 1
  // holds no nonzero signed weight).
  RSNN_REQUIRE(qnet.time_bits >= 1 && qnet.time_bits <= 16,
               "corrupt header: time_bits " << qnet.time_bits
                                            << " outside 1..16 in " << path);
  RSNN_REQUIRE(qnet.weight_bits >= 2 && qnet.weight_bits <= 8,
               "corrupt header: weight_bits " << qnet.weight_bits
                                              << " outside 2..8 in " << path);
  qnet.input_shape = read_shape(is);
  const std::uint32_t layer_count = read_u32(is);
  RSNN_REQUIRE(layer_count <= 4096, "implausible layer count");

  for (std::uint32_t i = 0; i < layer_count; ++i) {
    const auto tag = static_cast<LayerTag>(read_u32(is));
    switch (tag) {
      case LayerTag::kConv: {
        QConv2d conv;
        conv.in_channels = read_i64(is);
        conv.out_channels = read_i64(is);
        conv.kernel = read_i64(is);
        conv.stride = read_i64(is);
        conv.padding = read_i64(is);
        conv.frac_bits = read_i32(is);
        conv.requantize = read_i32(is) != 0;
        const bool has_channel_frac = read_i32(is) != 0;
        conv.weight = read_tensor_i(is);
        conv.bias = read_tensor_i64(is);
        if (has_channel_frac) conv.channel_frac = read_tensor_i(is);
        qnet.layers.emplace_back(std::move(conv));
        break;
      }
      case LayerTag::kPool: {
        QPool2d pool;
        pool.kernel = read_i64(is);
        pool.shift = read_i32(is);
        qnet.layers.emplace_back(pool);
        break;
      }
      case LayerTag::kLinear: {
        QLinear fc;
        fc.in_features = read_i64(is);
        fc.out_features = read_i64(is);
        fc.frac_bits = read_i32(is);
        fc.requantize = read_i32(is) != 0;
        const bool has_channel_frac = read_i32(is) != 0;
        fc.weight = read_tensor_i(is);
        fc.bias = read_tensor_i64(is);
        if (has_channel_frac) fc.channel_frac = read_tensor_i(is);
        qnet.layers.emplace_back(std::move(fc));
        break;
      }
      case LayerTag::kFlatten:
        qnet.layers.emplace_back(QFlatten{});
        break;
      default:
        RSNN_REQUIRE(false, "unknown layer tag in " << path);
    }
    RSNN_REQUIRE(is.good(), "truncated file " << path);
  }
  return qnet;
}

bool is_quantized_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  char magic[4];
  is.read(magic, sizeof(magic));
  return is.good() && std::equal(magic, magic + 4, kMagic);
}

}  // namespace rsnn::quant
