#include "ir/layer_program.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "hw/pingpong.hpp"
#include "hw/weight_memory.hpp"

namespace rsnn::ir {

using quant::QConv2d;
using quant::QFlatten;
using quant::QLinear;
using quant::QPool2d;

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv:
      return "conv";
    case OpKind::kPool:
      return "pool";
    case OpKind::kLinear:
      return "linear";
    case OpKind::kFlatten:
      return "flatten";
  }
  return "unknown";
}

OpKind kind_of(const quant::QLayer& layer) {
  if (std::holds_alternative<QConv2d>(layer)) return OpKind::kConv;
  if (std::holds_alternative<QPool2d>(layer)) return OpKind::kPool;
  if (std::holds_alternative<QLinear>(layer)) return OpKind::kLinear;
  return OpKind::kFlatten;
}

std::int64_t layer_param_bits(const quant::QLayer& layer, int weight_bits,
                              int time_bits) {
  const int bias_bits = time_bits + weight_bits + 16;
  if (const auto* conv = std::get_if<QConv2d>(&layer))
    return conv->weight.numel() * weight_bits + conv->bias.numel() * bias_bits;
  if (const auto* fc = std::get_if<QLinear>(&layer))
    return fc->weight.numel() * weight_bits + fc->bias.numel() * bias_bits;
  return 0;
}

Shape op_output_shape(const quant::QLayer& layer, const Shape& input) {
  if (const auto* conv = std::get_if<QConv2d>(&layer)) {
    const std::int64_t oh =
        (input.dim(1) + 2 * conv->padding - conv->kernel) / conv->stride + 1;
    const std::int64_t ow =
        (input.dim(2) + 2 * conv->padding - conv->kernel) / conv->stride + 1;
    return Shape{conv->out_channels, oh, ow};
  }
  if (const auto* pool = std::get_if<QPool2d>(&layer))
    return Shape{input.dim(0), input.dim(1) / pool->kernel,
                 input.dim(2) / pool->kernel};
  if (const auto* fc = std::get_if<QLinear>(&layer))
    return Shape{fc->out_features};
  return Shape{input.numel()};
}

bool LayerProgram::uses_dram() const {
  return std::any_of(ops_.begin(), ops_.end(), [](const LayerOp& op) {
    return op.placement == hw::WeightPlacement::kDram;
  });
}

double LayerProgram::predicted_latency_us() const {
  return static_cast<double>(predicted_total_cycles_) * config().cycle_ns() /
         1000.0;
}

LayerProgram lower(const quant::QuantizedNetwork& qnet) {
  LayerProgram program;
  program.qnet_ = &qnet;
  program.ops_.reserve(qnet.layers.size());

  Shape shape = qnet.input_shape;
  bool flat = false;
  for (std::size_t li = 0; li < qnet.layers.size(); ++li) {
    const quant::QLayer& layer = qnet.layers[li];
    LayerOp op;
    op.kind = kind_of(layer);
    op.layer_index = static_cast<int>(li);
    op.in_shape = shape;
    op.out_shape = op_output_shape(layer, shape);
    op.param_bits = layer_param_bits(layer, qnet.weight_bits, qnet.time_bits);
    if (const auto* conv = std::get_if<QConv2d>(&layer)) {
      op.conv = conv;
      op.requantize = conv->requantize;
      RSNN_REQUIRE(shape.rank() == 3 && shape.dim(0) == conv->in_channels,
                   "conv layer " << li << " channel/rank mismatch");
    } else if (const auto* pool = std::get_if<QPool2d>(&layer)) {
      op.pool = pool;
      RSNN_REQUIRE(shape.rank() == 3, "pool layer " << li << " needs CHW input");
    } else if (const auto* fc = std::get_if<QLinear>(&layer)) {
      op.linear = fc;
      op.requantize = fc->requantize;
      RSNN_REQUIRE(shape.numel() == fc->in_features,
                   "linear layer " << li << " feature mismatch");
    } else {
      flat = true;
    }
    if (flat) op.is_1d = true;
    shape = op.out_shape;
    program.ops_.push_back(std::move(op));
  }
  return program;
}

void annotate_op(LayerOp& op, const hw::AcceleratorConfig& config,
                 int time_bits, int weight_bits,
                 hw::WeightPlacement placement) {
  op.placement = placement;
  switch (op.kind) {
    case OpKind::kConv: {
      const QConv2d& conv = *op.conv;
      RSNN_REQUIRE(conv.kernel <= config.conv.kernel_rows,
                   "conv kernel " << conv.kernel
                                  << " does not fit unit with Y = "
                                  << config.conv.kernel_rows);
      hw::ConvDims dims{conv.in_channels, conv.out_channels,
                        op.in_shape.dim(1), op.in_shape.dim(2),
                        conv.kernel,        conv.stride,
                        conv.padding};
      op.latency =
          hw::conv_latency(dims, config, time_bits, op.placement, weight_bits);
      op.contending_units = static_cast<int>(std::min<std::int64_t>(
          config.num_conv_units,
          ceil_div(conv.out_channels, op.latency.channels_per_unit)));
      op.unit = "conv_units[k=" + std::to_string(conv.kernel) + "]";
      break;
    }
    case OpKind::kPool: {
      RSNN_REQUIRE(op.pool->kernel <= config.pool.kernel_rows,
                   "pool kernel does not fit pooling unit");
      op.latency = hw::pool_latency(op.in_shape.dim(0), op.in_shape.dim(1),
                                    op.in_shape.dim(2), op.pool->kernel,
                                    config, time_bits);
      op.unit = "pool_unit";
      break;
    }
    case OpKind::kLinear: {
      op.latency =
          hw::linear_latency(op.linear->in_features, op.linear->out_features,
                             config, time_bits, op.placement, weight_bits);
      op.unit = "linear_unit";
      break;
    }
    case OpKind::kFlatten: {
      op.latency = hw::LayerLatency{};
      op.latency.total_cycles = hw::flatten_transfer_cycles(
          op.in_shape.numel(), time_bits, config.timing);
      op.latency.compute_cycles = op.latency.total_cycles;
      op.unit = "buffer transfer";
      break;
    }
  }
}

LayerProgram lower(const quant::QuantizedNetwork& qnet,
                   const hw::AcceleratorConfig& config) {
  return lower(qnet, 0, qnet.layers.size(), config);
}

namespace {

/// Annotate the fast-path execution plan: a requantizing conv followed by a
/// pool runs as one fused pass (the pool consumes the conv codes before they
/// round-trip through a buffer; the executor still emits both ops' stats
/// records). The plan only directs *how* the fast path iterates; the
/// accounting always comes from the latency annotations and the exact
/// activity rules, so a fused pair is bit-identical to the unfused ops a
/// segment cut between them runs.
void plan_fast_path(std::vector<LayerOp>& ops) {
  for (std::size_t i = 0; i + 1 < ops.size(); ++i)
    ops[i].fuse_with_next = ops[i].kind == OpKind::kConv &&
                            ops[i].requantize &&
                            ops[i + 1].kind == OpKind::kPool;
}

}  // namespace

LayerProgram lower(const quant::QuantizedNetwork& qnet, std::size_t begin,
                   std::size_t end, const hw::AcceleratorConfig& config) {
  const LayerProgram full = lower(qnet);
  RSNN_REQUIRE(begin < end && end <= full.size(),
               "op range [" << begin << ", " << end << ") outside [0, "
                            << full.size() << ")");

  LayerProgram program;
  program.qnet_ = &qnet;
  program.ops_.assign(full.ops_.begin() + static_cast<std::ptrdiff_t>(begin),
                      full.ops_.begin() + static_cast<std::ptrdiff_t>(end));
  program.entry_1d_ = entry_is_1d(full, begin);
  program.has_hw_ = true;
  program.config_ = config;

  // Placement is planned against this range's own parameter footprint: the
  // device runs only these ops, so only their parameters compete for BRAM.
  const std::vector<hw::WeightPlacement> placement =
      hw::plan_placement(qnet, begin, end, config.memory);

  // Ping-pong buffers sized to the range's own feature maps, seeded with the
  // activations entering the range (which land in the 1-D pair when the
  // range starts downstream of the flatten transfer).
  std::int64_t max2d = 0;
  std::int64_t max1d = 0;
  const std::int64_t entry_bits =
      hw::activation_bits(program.ops_.front().in_shape, qnet.time_bits);
  (program.entry_1d_ ? max1d : max2d) = entry_bits;

  for (std::size_t pos = 0; pos < program.ops_.size(); ++pos) {
    LayerOp& op = program.ops_[pos];
    annotate_op(op, config, qnet.time_bits, qnet.weight_bits, placement[pos]);
    program.predicted_total_cycles_ += op.latency.total_cycles;

    const std::int64_t bits =
        hw::activation_bits(op.out_shape, qnet.time_bits);
    if (op.is_1d)
      max1d = std::max(max1d, bits);
    else
      max2d = std::max(max2d, bits);
  }
  program.buffer_plan_.buffer2d_bits_each = std::max<std::int64_t>(max2d, 1);
  program.buffer_plan_.buffer1d_bits_each = std::max<std::int64_t>(max1d, 1);
  plan_fast_path(program.ops_);
  return program;
}

bool entry_is_1d(const LayerProgram& program, std::size_t begin) {
  RSNN_REQUIRE(begin < program.size(), "entry op outside the program");
  if (begin == 0) return program.entry_buffer_is_1d();
  return program.op(begin - 1).is_1d;
}

std::vector<ProgramSegment> make_segments(
    const LayerProgram& program, const std::vector<std::size_t>& cuts) {
  return make_segments(program, cuts, SegmentLowering::kInherit);
}

std::vector<ProgramSegment> make_segments(const LayerProgram& program,
                                          const std::vector<std::size_t>& cuts,
                                          SegmentLowering lowering) {
  RSNN_REQUIRE(program.size() > 0, "cannot segment an empty program");
  RSNN_REQUIRE(program.has_hw_annotations(),
               "segments need a hardware-lowered program (placement and "
               "latency aggregates)");
  RSNN_REQUIRE(lowering == SegmentLowering::kInherit ||
                   program.whole_network(),
               "per-device re-lowering partitions a whole-network program");
  const std::size_t n_ops = program.size();

  std::vector<std::size_t> bounds;
  bounds.reserve(cuts.size() + 2);
  bounds.push_back(0);
  for (const std::size_t cut : cuts) {
    RSNN_REQUIRE(cut > 0 && cut < n_ops,
                 "cut point " << cut << " outside interior (0, " << n_ops
                              << ")");
    RSNN_REQUIRE(cut > bounds.back(),
                 "cut points must be strictly increasing");
    bounds.push_back(cut);
  }
  bounds.push_back(n_ops);

  const int T = program.time_bits();
  std::vector<ProgramSegment> segments;
  segments.reserve(bounds.size() - 1);
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    ProgramSegment seg;
    seg.index = static_cast<int>(s);
    seg.begin = bounds[s];
    seg.end = bounds[s + 1];
    seg.in_shape = program.op(seg.begin).in_shape;
    seg.out_shape = program.op(seg.end - 1).out_shape;
    seg.in_is_1d = entry_is_1d(program, seg.begin);
    seg.final_segment = seg.end == n_ops;
    seg.in_cut_bits = hw::activation_bits(seg.in_shape, T);
    seg.out_cut_bits =
        seg.final_segment ? 0 : hw::activation_bits(seg.out_shape, T);
    if (lowering == SegmentLowering::kRelower)
      seg.relowered = std::make_shared<const LayerProgram>(
          relower_range(program, seg.begin, seg.end));
    // Aggregates come from whichever annotations the segment will execute
    // with: the monolithic program's (inherited) or its own (re-lowered).
    for (std::size_t li = seg.begin; li < seg.end; ++li) {
      const LayerOp& op = seg.relowered != nullptr
                              ? seg.relowered->op(li - seg.begin)
                              : program.op(li);
      seg.predicted_cycles += op.latency.total_cycles;
      seg.param_bits += op.param_bits;
      if (op.placement == hw::WeightPlacement::kOnChip)
        seg.onchip_param_bits += op.param_bits;
    }
    segments.push_back(std::move(seg));
  }
  return segments;
}

LayerProgram relower_range(const LayerProgram& program, std::size_t begin,
                           std::size_t end) {
  RSNN_REQUIRE(program.has_hw_annotations(),
               "re-lowering needs a hardware-lowered source program");
  RSNN_REQUIRE(program.whole_network(),
               "re-lowering slices a whole-network program");
  return lower(program.network(), begin, end, program.config());
}

ProgramSegment full_segment(const LayerProgram& program) {
  return make_segments(program, {}).front();
}

GeometryRequirements scan_geometry(const quant::QuantizedNetwork& qnet) {
  GeometryRequirements req;
  Shape shape = qnet.input_shape;
  for (const quant::QLayer& layer : qnet.layers) {
    const Shape out = op_output_shape(layer, shape);
    if (const auto* conv = std::get_if<QConv2d>(&layer)) {
      req.has_conv = true;
      req.max_conv_kernel = std::max(req.max_conv_kernel, conv->kernel);
      req.max_conv_out_width = std::max(req.max_conv_out_width, out.dim(2));
    } else if (const auto* pool = std::get_if<QPool2d>(&layer)) {
      req.has_pool = true;
      req.max_pool_kernel = std::max(req.max_pool_kernel, pool->kernel);
      req.max_pool_out_width = std::max(req.max_pool_out_width, out.dim(2));
    }
    shape = out;
  }
  return req;
}

std::int64_t axis_coverage(std::int64_t pos, std::int64_t k, std::int64_t str,
                           std::int64_t pad, std::int64_t out_extent) {
  std::int64_t n = 0;
  for (std::int64_t j = 0; j < k; ++j) {
    const std::int64_t num = pos + pad - j;
    if (num < 0 || num % str != 0) continue;
    if (num / str >= out_extent) continue;
    ++n;
  }
  return n;
}

std::int64_t exact_adder_ops(const LayerOp& op, const TensorI64& input_codes) {
  RSNN_REQUIRE(input_codes.shape().numel() == op.in_shape.numel(),
               "input codes do not match op input shape");
  const std::int64_t* codes = input_codes.data();
  switch (op.kind) {
    case OpKind::kConv: {
      const QConv2d& conv = *op.conv;
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
      // Coverage is separable: a spike at (iy, ix) feeds
      // county(iy) * countx(ix) windows, each across all output channels.
      std::vector<std::int64_t> county(static_cast<std::size_t>(ih));
      std::vector<std::int64_t> countx(static_cast<std::size_t>(iw));
      for (std::int64_t iy = 0; iy < ih; ++iy)
        county[static_cast<std::size_t>(iy)] =
            axis_coverage(iy, conv.kernel, conv.stride, conv.padding, oh);
      for (std::int64_t ix = 0; ix < iw; ++ix)
        countx[static_cast<std::size_t>(ix)] =
            axis_coverage(ix, conv.kernel, conv.stride, conv.padding, ow);
      std::int64_t ops = 0;
      std::int64_t i = 0;
      for (std::int64_t c = 0; c < conv.in_channels; ++c)
        for (std::int64_t iy = 0; iy < ih; ++iy) {
          const std::int64_t cy = county[static_cast<std::size_t>(iy)];
          for (std::int64_t ix = 0; ix < iw; ++ix, ++i)
            ops += std::popcount(static_cast<std::uint64_t>(codes[i])) * cy *
                   countx[static_cast<std::size_t>(ix)];
        }
      return ops * conv.out_channels;
    }
    case OpKind::kPool: {
      const std::int64_t k = op.pool->kernel;
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
      std::int64_t ops = 0;
      std::int64_t i = 0;
      for (std::int64_t c = 0; c < op.in_shape.dim(0); ++c)
        for (std::int64_t iy = 0; iy < ih; ++iy) {
          const bool y_in = iy / k < oh;
          for (std::int64_t ix = 0; ix < iw; ++ix, ++i)
            if (y_in && ix / k < ow)
              ops += std::popcount(static_cast<std::uint64_t>(codes[i]));
        }
      return ops;
    }
    case OpKind::kLinear: {
      std::int64_t spikes = 0;
      for (std::int64_t i = 0; i < input_codes.numel(); ++i)
        spikes += std::popcount(static_cast<std::uint64_t>(codes[i]));
      return spikes * op.linear->out_features;
    }
    case OpKind::kFlatten:
      return 0;
  }
  return 0;
}

}  // namespace rsnn::ir
