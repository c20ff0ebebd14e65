#include "hw/fast_path.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <tuple>

#include "common/assert.hpp"
#include "common/simd.hpp"
#include "quant/qnetwork.hpp"

namespace rsnn::hw {
namespace {

using common::simd::Kernels;
using common::simd::kGemmCols;
using common::simd::kGemmGroup;
using common::simd::kGemmRows;
using quant::QConv2d;
using quant::QLinear;
using quant::QPool2d;

/// Zeroed bytes after each digit plane: the last K group of the last pixel
/// may overhang its kernel row by up to kGemmGroup - 1 bytes.
constexpr std::int64_t kPlaneSlack = 64;

/// The GEMM view of a conv or linear op. A linear layer is a 1x1 conv over
/// a 1x1 image whose channels are the input features, so both kinds share
/// the pack, the digit staging, the adder-op rule and the kernel.
struct GemmOp {
  std::int64_t cin = 0, cout = 0, k = 1, stride = 1, pad = 0;
  std::int64_t ih = 1, iw = 1, oh = 1, ow = 1;
  const std::int32_t* weight = nullptr;  ///< [cout][cin][k][k]
  const std::int64_t* bias = nullptr;
  const std::int32_t* channel_frac = nullptr;  ///< per-channel shifts or null
  int frac_bits = 0;
  bool requantize = true;

  int frac_for(std::int64_t oc) const {
    return channel_frac != nullptr ? channel_frac[oc] : frac_bits;
  }
};

GemmOp gemm_op(const ir::LayerOp& op) {
  GemmOp g;
  if (op.kind == ir::OpKind::kConv) {
    const QConv2d& conv = *op.conv;
    g.cin = conv.in_channels;
    g.cout = conv.out_channels;
    g.k = conv.kernel;
    g.stride = conv.stride;
    g.pad = conv.padding;
    g.ih = op.in_shape.dim(1);
    g.iw = op.in_shape.dim(2);
    g.oh = op.out_shape.dim(1);
    g.ow = op.out_shape.dim(2);
    g.weight = conv.weight.data();
    g.bias = conv.bias.data();
    g.channel_frac =
        conv.channel_frac.numel() > 0 ? conv.channel_frac.data() : nullptr;
    g.frac_bits = conv.frac_bits;
    g.requantize = conv.requantize;
  } else {
    const QLinear& fc = *op.linear;
    g.cin = fc.in_features;
    g.cout = fc.out_features;
    g.weight = fc.weight.data();
    g.bias = fc.bias.data();
    g.channel_frac =
        fc.channel_frac.numel() > 0 ? fc.channel_frac.data() : nullptr;
    g.frac_bits = fc.frac_bits;
    g.requantize = fc.requantize;
  }
  return g;
}

/// Calls fn(chw, nhwc) for every element of `shape`: its index in CHW order
/// (the TensorI cut contract) and in the fast path's NHWC order. A 1-D
/// shape has one order.
template <typename Fn>
void for_each_chw_nhwc(const Shape& shape, Fn&& fn) {
  if (shape.rank() != 3) {
    for (std::int64_t i = 0; i < shape.numel(); ++i) fn(i, i);
    return;
  }
  const std::int64_t ch = shape.dim(0), h = shape.dim(1), w = shape.dim(2);
  for (std::int64_t c = 0; c < ch; ++c)
    for (std::int64_t y = 0; y < h; ++y)
      for (std::int64_t x = 0; x < w; ++x)
        fn((c * h + y) * w + x, (y * w + x) * ch + c);
}

/// Input spikes of each image: the popcount of its codes.
void popcount_per_image(const std::uint16_t* codes, std::int64_t n,
                        std::int64_t batch, std::int64_t* out) {
  for (std::int64_t b = 0; b < batch; ++b) {
    std::int64_t total = 0;
    for (std::int64_t i = 0; i < n; ++i)
      total += std::popcount(codes[b * n + i]);
    out[b] = total;
  }
}

/// NHWC codes of `shape` as CHW-ordered flat codes (the flatten transfer's
/// order, and the K order of a linear pack). A 1-D shape is returned as is.
const std::uint16_t* flat_chw(const std::uint16_t* in, const Shape& shape,
                              std::int64_t batch, common::Arena& arena) {
  if (shape.rank() != 3) return in;
  const std::int64_t n = shape.numel();
  std::uint16_t* out = arena.alloc<std::uint16_t>(batch * n);
  for (std::int64_t b = 0; b < batch; ++b)
    for_each_chw_nhwc(shape, [&](std::int64_t chw, std::int64_t nhwc) {
      out[b * n + chw] = in[b * n + nhwc];
    });
  return out;
}

/// The op's input as D zero-padded digit planes of u8, each laid out
/// [B][ih + 2 pad][(iw + 2 pad) * cin]: the (kx, cin) bytes one kernel row
/// reads for one output pixel are contiguous, starting at `offset(m)`.
struct DigitPlanes {
  const std::uint8_t* data = nullptr;
  std::int64_t plane = 0;      ///< bytes between consecutive digits' planes
  std::int64_t row_bytes = 0;  ///< bytes per padded input row
  std::int64_t rows = 0;       ///< padded input rows per image
};

/// Split NHWC codes into the op's digit planes, and count each image's
/// input spikes and exact adder ops on the way: a spike at (y, x) feeds
/// county[y] * countx[x] windows of each of the cout kernels.
DigitPlanes stage_digits(const std::uint16_t* in, const GemmOp& g,
                         const FastPrepared::OpPrep& p, std::int64_t batch,
                         common::Arena& arena, std::int64_t* spikes,
                         std::int64_t* adder) {
  DigitPlanes planes;
  planes.rows = g.ih + 2 * g.pad;
  planes.row_bytes = (g.iw + 2 * g.pad) * g.cin;
  planes.plane = batch * planes.rows * planes.row_bytes + kPlaneSlack;
  std::uint8_t* data = arena.alloc<std::uint8_t>(planes.plane * p.digits);
  std::memset(data, 0, static_cast<std::size_t>(planes.plane * p.digits));
  planes.data = data;
  const int d = p.digit_bits;
  const unsigned mask = (1u << d) - 1;
  for (std::int64_t b = 0; b < batch; ++b) {
    std::int64_t image_spikes = 0, image_adder = 0;
    for (std::int64_t y = 0; y < g.ih; ++y) {
      for (std::int64_t x = 0; x < g.iw; ++x) {
        const std::uint16_t* px = in + ((b * g.ih + y) * g.iw + x) * g.cin;
        std::uint8_t* dst = data +
                            (b * planes.rows + y + g.pad) * planes.row_bytes +
                            (x + g.pad) * g.cin;
        std::int64_t pixel_spikes = 0;
        for (std::int64_t c = 0; c < g.cin; ++c) {
          const unsigned v = px[c];
          pixel_spikes += std::popcount(v);
          for (int i = 0; i < p.digits; ++i)
            dst[i * planes.plane + c] =
                static_cast<std::uint8_t>((v >> (d * i)) & mask);
        }
        image_spikes += pixel_spikes;
        image_adder += pixel_spikes * p.county[static_cast<std::size_t>(y)] *
                       p.countx[static_cast<std::size_t>(x)];
      }
    }
    spikes[b] = image_spikes;
    adder[b] = image_adder * g.cout;
  }
  return planes;
}

/// Run a conv or linear op as an implicit GEMM over its digit planes:
/// M = B * oh * ow output pixels by N = cout channels, with K = k kernel
/// rows of `groups` 4-byte groups each. Every finished register tile goes to
/// store(m0, mr, n0, nv, tile), tile[p * kGemmCols + n] holding the int64
/// sum of pixel m0 + p and channel n0 + n. Weight tiles are the outer loop,
/// so each tile's pack streams once per op while every pixel reuses it.
template <typename Store>
void run_gemm(const Kernels& K, const FastPrepared::OpPrep& p,
              const GemmOp& g, const DigitPlanes& planes, std::int64_t batch,
              common::Arena& arena, Store&& store) {
  const std::int64_t m_total = batch * g.oh * g.ow;
  std::int64_t* offset = arena.alloc<std::int64_t>(m_total);
  for (std::int64_t b = 0, m = 0; b < batch; ++b)
    for (std::int64_t oy = 0; oy < g.oh; ++oy)
      for (std::int64_t ox = 0; ox < g.ow; ++ox)
        offset[m++] = (b * planes.rows + oy * g.stride) * planes.row_bytes +
                      ox * g.stride * g.cin;

  const std::int64_t tile_bytes = p.rows * p.groups * kGemmCols * kGemmGroup;
  std::int64_t tile[kGemmRows * kGemmCols];
  const std::uint8_t* a[kGemmRows] = {};
  for (std::int64_t n0 = 0; n0 < g.cout; n0 += kGemmCols) {
    const std::int8_t* w = p.weights.data() + (n0 / kGemmCols) * tile_bytes;
    const int nv =
        static_cast<int>(std::min<std::int64_t>(kGemmCols, g.cout - n0));
    for (std::int64_t m0 = 0; m0 < m_total; m0 += kGemmRows) {
      const int mr =
          static_cast<int>(std::min<std::int64_t>(kGemmRows, m_total - m0));
      std::fill(std::begin(tile), std::end(tile), std::int64_t{0});
      for (int i = 0; i < p.digits; ++i) {
        for (int q = 0; q < mr; ++q)
          a[q] = planes.data + i * planes.plane + offset[m0 + q];
        K.gemm_tile(a, planes.row_bytes, p.rows, p.groups, w, p.flush_groups,
                    i * p.digit_bits, mr, tile);
      }
      store(m0, mr, n0, nv, tile);
    }
  }
}

/// Average-pool NHWC codes ([B][ih][iw][ch] -> [B][oh][ow][ch]) as quant
/// pool_forward does (window sum, then an arithmetic right shift), counting
/// each image's input spikes and the spikes inside the pooled region, which
/// fire one adder each.
void pool_nhwc(const std::uint16_t* in, std::int64_t batch, std::int64_t ih,
               std::int64_t iw, std::int64_t ch, const QPool2d& pool,
               std::int64_t oh, std::int64_t ow, common::Arena& arena,
               std::uint16_t* out, std::int64_t* spikes,
               std::int64_t* covered) {
  const std::int64_t k = pool.kernel;
  std::uint32_t* acc = arena.alloc<std::uint32_t>(ch);
  for (std::int64_t b = 0; b < batch; ++b) {
    const std::uint16_t* image = in + b * ih * iw * ch;
    std::int64_t image_spikes = 0, image_covered = 0;
    for (std::int64_t y = 0; y < ih; ++y)
      for (std::int64_t x = 0; x < iw; ++x) {
        std::int64_t n = 0;
        const std::uint16_t* px = image + (y * iw + x) * ch;
        for (std::int64_t c = 0; c < ch; ++c) n += std::popcount(px[c]);
        image_spikes += n;
        if (y < oh * k && x < ow * k) image_covered += n;
      }
    spikes[b] = image_spikes;
    covered[b] = image_covered;
    for (std::int64_t py = 0; py < oh; ++py)
      for (std::int64_t px = 0; px < ow; ++px) {
        std::fill(acc, acc + ch, 0u);
        for (std::int64_t dy = 0; dy < k; ++dy)
          for (std::int64_t dx = 0; dx < k; ++dx) {
            const std::uint16_t* src =
                image + ((py * k + dy) * iw + px * k + dx) * ch;
            for (std::int64_t c = 0; c < ch; ++c) acc[c] += src[c];
          }
        std::uint16_t* dst = out + ((b * oh + py) * ow + px) * ch;
        for (std::int64_t c = 0; c < ch; ++c)
          dst[c] = static_cast<std::uint16_t>(acc[c] >> pool.shift);
      }
  }
}

/// Annotation-derived skeleton of one op's stats (name, cycles, traffic);
/// adder_ops and input_spikes are filled by the caller.
LayerStats annotated_stats(const ir::LayerOp& op) {
  LayerStats stats;
  stats.name = op.name();
  stats.cycles = op.latency.total_cycles;
  stats.dram_cycles = op.latency.dram_cycles;
  stats.traffic = op.latency.traffic;
  return stats;
}

/// Append one op's stats record to every image's result. `adder` may be
/// null (no adders fire).
void record(const ir::LayerOp& op, std::int64_t batch,
            const std::int64_t* spikes, const std::int64_t* adder,
            AccelRunResult* results) {
  for (std::int64_t b = 0; b < batch; ++b) {
    LayerStats stats = annotated_stats(op);
    stats.input_spikes = spikes[b];
    stats.adder_ops = adder != nullptr ? adder[b] : 0;
    accumulate_layer(results[b], std::move(stats));
  }
}

/// Pack one conv or linear op's int32 weights for the GEMM in one pass,
/// refusing any value outside int8: [ceil(cout / 16)][k][groups][16][4],
/// where K byte kk = kx * cin + c of kernel row ky sits in group kk / 4,
/// lane kk % 4. Padding (channels past cout, bytes past k * cin) is zero.
/// Then pick the digit width, the digit count and the int32 flush interval
/// from the weights' range (common/simd.hpp's exactness contract).
void pack_gemm(const GemmOp& g, int time_bits, std::size_t op_index,
               FastPrepared::OpPrep& p) {
  p.rows = g.k;
  p.groups = (g.k * g.cin + kGemmGroup - 1) / kGemmGroup;
  const std::int64_t tile_bytes = p.rows * p.groups * kGemmCols * kGemmGroup;
  const std::int64_t tiles = (g.cout + kGemmCols - 1) / kGemmCols;
  p.weights.assign(static_cast<std::size_t>(tiles * tile_bytes), 0);
  // Walk the destination front to back: per (tile, kernel row), K byte kk
  // of all 16 channels is one 64-byte group's column, read from 16 source
  // rows at [oc][c][ky][kx] with (kx, c) advanced alongside kk.
  std::int32_t lo = 0, hi = 0;
  const std::int64_t taps = g.k * g.k;
  const std::int32_t* src[kGemmCols] = {};
  for (std::int64_t oc0 = 0; oc0 < g.cout; oc0 += kGemmCols) {
    const int nv =
        static_cast<int>(std::min<std::int64_t>(kGemmCols, g.cout - oc0));
    for (std::int64_t ky = 0; ky < g.k; ++ky) {
      std::int8_t* dst = p.weights.data() + (oc0 / kGemmCols) * tile_bytes +
                         ky * p.groups * kGemmCols * kGemmGroup;
      for (int n = 0; n < nv; ++n)
        src[n] = g.weight + (oc0 + n) * g.cin * taps + ky * g.k;
      std::int64_t kx = 0, c = 0;
      for (std::int64_t kk = 0; kk < g.k * g.cin; ++kk) {
        std::int8_t* lane = dst + (kk / kGemmGroup) * kGemmCols * kGemmGroup +
                            kk % kGemmGroup;
        const std::int64_t at = c * taps + kx;
        for (int n = 0; n < nv; ++n) {
          const std::int32_t w = src[n][at];
          lo = std::min(lo, w);
          hi = std::max(hi, w);
          lane[n * kGemmGroup] = static_cast<std::int8_t>(w);
        }
        if (++c == g.cin) {
          c = 0;
          ++kx;
        }
      }
    }
  }
  RSNN_REQUIRE(lo >= INT8_MIN && hi <= INT8_MAX,
               "op " << op_index << " has weights in [" << lo << ", " << hi
                     << "], outside the int8 prepared pack");
  const std::int64_t max_w = std::max(-std::int64_t{lo}, std::int64_t{hi});
  p.digit_bits = max_w <= 64 ? 8 : 7;
  p.digits = (time_bits + p.digit_bits - 1) / p.digit_bits;
  const std::int64_t group_bound =
      kGemmGroup * ((std::int64_t{1} << p.digit_bits) - 1) * max_w;
  const bool fits =
      group_bound == 0 || p.rows * p.groups <= INT32_MAX / group_bound;
  p.flush_groups = fits ? 0 : INT32_MAX / group_bound;
}

}  // namespace

FastPrepared prepare_fast_path(const ir::LayerProgram& program) {
  // Codes travel as uint16 and split into at most three radix digits.
  const int T = program.time_bits();
  RSNN_REQUIRE(T >= 1 && T <= 16,
               "time_bits " << T << " outside 1..16 for the fast path");
  const std::int64_t max_code = (std::int64_t{1} << T) - 1;
  FastPrepared prep;
  prep.ops.resize(program.size());
  for (std::size_t i = 0; i < program.size(); ++i) {
    const ir::LayerOp& op = program.op(i);
    FastPrepared::OpPrep& p = prep.ops[i];
    if (op.kind == ir::OpKind::kPool) {
      // A pooled window must come back as a T-bit code, as the next op's
      // digits cover only T bits.
      const QPool2d& pool = *op.pool;
      RSNN_REQUIRE(pool.shift >= 0 && pool.shift < 32 &&
                       ((pool.kernel * pool.kernel * max_code) >> pool.shift) <=
                           max_code,
                   "pool op " << i << " shift " << pool.shift
                              << " does not map a " << pool.kernel << "x"
                              << pool.kernel << " window of " << T
                              << "-bit codes back to " << T << " bits");
      continue;
    }
    if (op.kind != ir::OpKind::kConv && op.kind != ir::OpKind::kLinear)
      continue;
    const GemmOp g = gemm_op(op);
    p.county.resize(static_cast<std::size_t>(g.ih));
    for (std::int64_t y = 0; y < g.ih; ++y)
      p.county[static_cast<std::size_t>(y)] =
          ir::axis_coverage(y, g.k, g.stride, g.pad, g.oh);
    p.countx.resize(static_cast<std::size_t>(g.iw));
    for (std::int64_t x = 0; x < g.iw; ++x)
      p.countx[static_cast<std::size_t>(x)] =
          ir::axis_coverage(x, g.k, g.stride, g.pad, g.ow);
    pack_gemm(g, T, i, p);
  }
  return prep;
}

// --- Batched execution -------------------------------------------------------
namespace {

/// The state of one run_fast_path() call: its arena, the batch's results and
/// boundary outputs, the current activations and per-image counter scratch.
/// A single image is a batch of one.
struct BatchRun {
  common::Arena* arena = nullptr;
  std::int64_t B = 0;                 ///< images in the batch
  AccelRunResult* results = nullptr;  ///< B caller-reset results
  TensorI* boundary = nullptr;        ///< B boundary tensors, or nullptr
  /// Activation codes [B][H][W][C] (or [B][n] for 1-D shapes).
  const std::uint16_t* cur = nullptr;
  /// Raw accumulators of a non-requantizing final op, same layout; null
  /// while the activations are codes.
  const std::int64_t* raw = nullptr;
  std::int64_t* spikes = nullptr;  ///< per-image counter scratch (4x B)
  std::int64_t* adder = nullptr;
  std::int64_t* pool_spikes = nullptr;
  std::int64_t* pool_covered = nullptr;
};

/// Ops consumed by the step starting at `li`: 2 for a fused conv+pool pair
/// lying entirely inside the executed range, else 1.
std::size_t ops_consumed(const ir::LayerProgram& program, std::size_t li,
                         std::size_t end) {
  const ir::LayerOp& op = program.op(li);
  const bool fuse =
      op.kind == ir::OpKind::kConv && op.fuse_with_next && li + 1 < end;
  return fuse ? 2 : 1;
}

/// A conv or linear op (fused with the following pool when `pool_op` is
/// non-null), from digit staging through the GEMM to the stats records.
void run_gemm_step(const ir::LayerProgram& program, const FastPrepared& prep,
                   const Kernels& K, int T, std::size_t li,
                   const ir::LayerOp* pool_op, BatchRun& s) {
  common::Arena& arena = *s.arena;
  const std::int64_t B = s.B;
  const ir::LayerOp& op = program.op(li);
  const FastPrepared::OpPrep& p = prep.ops[li];
  const GemmOp g = gemm_op(op);
  const std::uint16_t* in = op.kind == ir::OpKind::kLinear
                                ? flat_chw(s.cur, op.in_shape, B, arena)
                                : s.cur;
  const DigitPlanes planes =
      stage_digits(in, g, p, B, arena, s.spikes, s.adder);
  const std::int64_t pixels = g.oh * g.ow;
  const auto code = [&](const std::int64_t* tile, int q, std::int64_t oc) {
    return static_cast<std::uint16_t>(quant::requantize_value(
        tile[q * kGemmCols + (oc % kGemmCols)], g.bias[oc], g.frac_for(oc), T));
  };

  if (pool_op != nullptr) {
    // Fused conv+pool: each finished tile's codes go straight into their
    // pool windows' sums; the conv activation is never stored.
    const QPool2d& pool = *pool_op->pool;
    const std::int64_t k = pool.kernel;
    const std::int64_t poh = pool_op->out_shape.dim(1);
    const std::int64_t pw = pool_op->out_shape.dim(2);
    const std::int64_t pooled = B * poh * pw * g.cout;
    std::uint32_t* sums = arena.alloc<std::uint32_t>(pooled);
    std::fill(sums, sums + pooled, 0u);
    // Per conv pixel: its pool window's offset in `sums` (-1 outside the
    // pooled region) and its spike count, so the epilogue does no division.
    const std::int64_t m_total = B * pixels;
    std::int64_t* window = arena.alloc<std::int64_t>(m_total);
    std::int64_t* pixel_spikes = arena.alloc<std::int64_t>(m_total);
    for (std::int64_t b = 0, m = 0; b < B; ++b)
      for (std::int64_t oy = 0; oy < g.oh; ++oy)
        for (std::int64_t ox = 0; ox < g.ow; ++ox, ++m) {
          const bool covered = oy < poh * k && ox < pw * k;
          window[m] =
              covered ? ((b * poh + oy / k) * pw + ox / k) * g.cout : -1;
          pixel_spikes[m] = 0;
        }
    run_gemm(K, p, g, planes, B, arena,
             [&](std::int64_t m0, int mr, std::int64_t n0, int nv,
                 const std::int64_t* tile) {
               for (int q = 0; q < mr; ++q) {
                 std::int64_t n = 0;
                 const std::int64_t at = window[m0 + q];
                 for (std::int64_t oc = n0; oc < n0 + nv; ++oc) {
                   const std::uint16_t v = code(tile, q, oc);
                   n += std::popcount(v);
                   if (at >= 0) sums[at + oc] += v;
                 }
                 pixel_spikes[m0 + q] += n;
               }
             });
    for (std::int64_t b = 0; b < B; ++b) {
      s.pool_spikes[b] = s.pool_covered[b] = 0;
      for (std::int64_t m = b * pixels; m < (b + 1) * pixels; ++m) {
        s.pool_spikes[b] += pixel_spikes[m];
        if (window[m] >= 0) s.pool_covered[b] += pixel_spikes[m];
      }
    }
    std::uint16_t* out = arena.alloc<std::uint16_t>(pooled);
    for (std::int64_t i = 0; i < pooled; ++i)
      out[i] = static_cast<std::uint16_t>(sums[i] >> pool.shift);
    record(op, B, s.spikes, s.adder, s.results);
    record(*pool_op, B, s.pool_spikes, s.pool_covered, s.results);
    s.cur = out;
    return;
  }

  const std::int64_t n_out = B * pixels * g.cout;
  if (g.requantize) {
    std::uint16_t* out = arena.alloc<std::uint16_t>(n_out);
    run_gemm(K, p, g, planes, B, arena,
             [&](std::int64_t m0, int mr, std::int64_t n0, int nv,
                 const std::int64_t* tile) {
               for (int q = 0; q < mr; ++q)
                 for (std::int64_t oc = n0; oc < n0 + nv; ++oc)
                   out[(m0 + q) * g.cout + oc] = code(tile, q, oc);
             });
    s.cur = out;
  } else {
    std::int64_t* out = arena.alloc<std::int64_t>(n_out);
    run_gemm(K, p, g, planes, B, arena,
             [&](std::int64_t m0, int mr, std::int64_t n0, int nv,
                 const std::int64_t* tile) {
               for (int q = 0; q < mr; ++q)
                 for (std::int64_t oc = n0; oc < n0 + nv; ++oc)
                   out[(m0 + q) * g.cout + oc] =
                       tile[q * kGemmCols + (oc - n0)] + g.bias[oc];
             });
    s.raw = out;
  }
  record(op, B, s.spikes, s.adder, s.results);
}

/// Execute the step starting at op `li` (one op, or a fused conv+pool pair),
/// including the end-of-range logit / boundary emission.
void run_step(const ir::LayerProgram& program, const FastPrepared& prep,
              const Kernels& K, int T, std::size_t n_layers, std::size_t li,
              std::size_t end, BatchRun& s) {
  common::Arena& arena = *s.arena;
  const std::int64_t B = s.B;
  const ir::LayerOp& op = program.op(li);
  const bool network_final =
      static_cast<std::size_t>(op.layer_index) + 1 == n_layers;
  RSNN_ENSURE(op.requantize || network_final || op.kind == ir::OpKind::kPool ||
                  op.kind == ir::OpKind::kFlatten,
              "non-final layer must requantize");
  const std::size_t consumed = ops_consumed(program, li, end);

  switch (op.kind) {
    case ir::OpKind::kFlatten:
      popcount_per_image(s.cur, op.in_shape.numel(), B, s.spikes);
      record(op, B, s.spikes, nullptr, s.results);
      s.cur = flat_chw(s.cur, op.in_shape, B, arena);
      break;
    case ir::OpKind::kPool: {
      const std::int64_t ch = op.in_shape.dim(0);
      std::uint16_t* out = arena.alloc<std::uint16_t>(B * op.out_shape.numel());
      pool_nhwc(s.cur, B, op.in_shape.dim(1), op.in_shape.dim(2), ch, *op.pool,
                op.out_shape.dim(1), op.out_shape.dim(2), arena, out, s.spikes,
                s.adder);
      record(op, B, s.spikes, s.adder, s.results);
      s.cur = out;
      break;
    }
    case ir::OpKind::kConv:
    case ir::OpKind::kLinear:
      run_gemm_step(program, prep, K, T, li,
                    consumed == 2 ? &program.op(li + 1) : nullptr, s);
      break;
  }

  const ir::LayerOp& last_op = program.op(li + consumed - 1);
  const Shape& shape = last_op.out_shape;
  const std::int64_t n = shape.numel();
  if (static_cast<std::size_t>(last_op.layer_index) + 1 == n_layers) {
    for (std::int64_t b = 0; b < B; ++b) {
      auto& logits = s.results[b].logits;
      logits.resize(static_cast<std::size_t>(n));
      for_each_chw_nhwc(shape, [&](std::int64_t chw, std::int64_t nhwc) {
        logits[static_cast<std::size_t>(chw)] =
            s.raw != nullptr ? s.raw[b * n + nhwc] : s.cur[b * n + nhwc];
      });
    }
  } else if (li + consumed == end && s.boundary) {
    for (std::int64_t b = 0; b < B; ++b) {
      TensorI boundary(shape);
      std::int32_t* bp = boundary.data();
      for_each_chw_nhwc(shape, [&](std::int64_t chw, std::int64_t nhwc) {
        bp[chw] = s.cur[b * n + nhwc];
      });
      s.boundary[b] = std::move(boundary);
    }
  }
}

}  // namespace

void run_fast_path(const ir::LayerProgram& program, const FastPrepared& prep,
                   common::Arena& arena, const TensorI* codes,
                   std::size_t batch, std::size_t begin, std::size_t end,
                   TensorI* boundary_codes, AccelRunResult* results) {
  RSNN_REQUIRE(batch >= 1, "a fast-path run needs at least one image");
  const Kernels& K = common::simd::kernels();
  const int T = program.time_bits();
  const std::size_t n_layers = program.network().layers.size();
  const std::int64_t B = static_cast<std::int64_t>(batch);

  // Stage the inputs in a rewound arena: counter scratch first (so the arena
  // round is stable), then the entry codes as NHWC uint16.
  arena.reset();
  for (std::size_t b = 0; b < batch; ++b)
    results[b].layers.reserve(end - begin);
  BatchRun s;
  s.arena = &arena;
  s.B = B;
  s.results = results;
  s.boundary = boundary_codes;
  s.spikes = arena.alloc<std::int64_t>(B);
  s.adder = arena.alloc<std::int64_t>(B);
  s.pool_spikes = arena.alloc<std::int64_t>(B);
  s.pool_covered = arena.alloc<std::int64_t>(B);
  const Shape& shape = program.op(begin).in_shape;
  const std::int64_t n_in = shape.numel();
  std::uint16_t* staged = arena.alloc<std::uint16_t>(n_in * B);
  const std::int32_t limit = std::int32_t{1} << T;
  for (std::int64_t b = 0; b < B; ++b) {
    RSNN_REQUIRE(codes[b].numel() == n_in,
                 "batched input codes must share one shape");
    const std::int32_t* cp = codes[b].data();
    std::int32_t lo = 0, hi = 0;
    for_each_chw_nhwc(shape, [&](std::int64_t chw, std::int64_t nhwc) {
      lo = std::min(lo, cp[chw]);
      hi = std::max(hi, cp[chw]);
      staged[b * n_in + nhwc] = static_cast<std::uint16_t>(cp[chw]);
    });
    RSNN_REQUIRE(lo >= 0 && hi < limit, "input codes in [" << lo << ", " << hi
                                            << "] outside [0, " << limit
                                            << ") for T=" << T);
  }
  s.cur = staged;

  for (std::size_t li = begin; li < end; li += ops_consumed(program, li, end))
    run_step(program, prep, K, T, n_layers, li, end, s);

  const double cycle_ns = program.config().cycle_ns();
  for (std::size_t b = 0; b < batch; ++b) finalize_run(results[b], cycle_ns);
}

// --- Process-wide prepared-pack cache ---------------------------------------

namespace {

/// Identity of a prepared pack. The program borrows its QuantizedNetwork (a
/// lifetime contract the Accelerator already documents), so the network
/// address plus every op's parameter-struct address pins the weights — a
/// recycled network address with different content would also have recycled
/// each heap-allocated layer, which the per-op pointers catch — while the op
/// range and per-op kinds pin the pack shapes.
struct PrepKey {
  const void* network;
  std::size_t begin;
  std::size_t n_ops;
  std::uint64_t ops_hash;

  friend bool operator<(const PrepKey& a, const PrepKey& b) {
    return std::tie(a.network, a.begin, a.n_ops, a.ops_hash) <
           std::tie(b.network, b.begin, b.n_ops, b.ops_hash);
  }
};

PrepKey prep_key(const ir::LayerProgram& program) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the op sequence
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (std::size_t i = 0; i < program.size(); ++i) {
    const ir::LayerOp& op = program.op(i);
    mix(static_cast<std::uint64_t>(op.kind));
    mix(static_cast<std::uint64_t>(op.layer_index));
    mix(reinterpret_cast<std::uintptr_t>(op.conv));
    mix(reinterpret_cast<std::uintptr_t>(op.pool));
    mix(reinterpret_cast<std::uintptr_t>(op.linear));
  }
  return PrepKey{&program.network(), program.network_begin(), program.size(),
                 h};
}

struct PrepRegistry {
  std::mutex mu;
  std::map<PrepKey, std::weak_ptr<const FastPrepared>> cache;
  std::atomic<std::uint64_t> builds{0};
};

PrepRegistry& prep_registry() {
  static PrepRegistry registry;
  return registry;
}

}  // namespace

std::shared_ptr<const FastPrepared> shared_fast_prepared(
    const ir::LayerProgram& program) {
  PrepRegistry& registry = prep_registry();
  const PrepKey key = prep_key(program);
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto it = registry.cache.begin(); it != registry.cache.end();)
    it = it->second.expired() ? registry.cache.erase(it) : std::next(it);
  if (auto it = registry.cache.find(key); it != registry.cache.end())
    if (auto live = it->second.lock()) return live;
  // Built under the lock: N replicas spinning up concurrently perform
  // exactly one repack — the rest wait here and share it.
  auto built = std::make_shared<const FastPrepared>(prepare_fast_path(program));
  registry.cache[key] = built;
  registry.builds.fetch_add(1, std::memory_order_relaxed);
  return built;
}

std::uint64_t fast_prepared_build_count() {
  return prep_registry().builds.load(std::memory_order_relaxed);
}

}  // namespace rsnn::hw
