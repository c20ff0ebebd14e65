#include "hw/fast_path.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
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
using quant::QConv2d;
using quant::QLinear;
using quant::QPool2d;

/// Read-only software prefetch into all cache levels. A pure hint: never
/// faults (prefetching past the end of an array is fine) and never changes
/// results, so none of the bit-identity sweeps care about placement.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// How many weight rows ahead the streaming inner loops prefetch. Tuned with
/// `microbench` on an AVX2 Xeon (see README "Threading model"): the win
/// plateaus at 2 rows — the axpy over one row takes long enough to cover one
/// row of load latency, and further distance only risks eviction before use.
/// Smaller than the hardware stride prefetcher's window, but these loops
/// *skip* rows (zero codes, zero weights), which is exactly where the
/// hardware predictor loses the stream.
constexpr std::int64_t kPrefetchRows = 2;

std::int64_t popcount_sum(const std::int64_t* values, std::int64_t count) {
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < count; ++i)
    total += std::popcount(static_cast<std::uint64_t>(values[i]));
  return total;
}

/// Output positions [lo, hi) reached by kernel offset `j` along one axis:
/// those o with 0 <= o*str + j - pad < in_extent. Hoisting the bound out of
/// the inner loops removes every per-tap validity branch.
struct AxisBounds {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

AxisBounds out_bounds(std::int64_t j, std::int64_t pad, std::int64_t str,
                      std::int64_t in_extent, std::int64_t out_extent) {
  const std::int64_t lo_num = pad - j;
  std::int64_t lo = lo_num <= 0 ? 0 : (lo_num + str - 1) / str;
  const std::int64_t hi_num = in_extent - 1 + pad - j;
  std::int64_t hi = hi_num < 0 ? 0 : hi_num / str + 1;
  hi = std::min(hi, out_extent);
  lo = std::min(lo, hi);
  return {lo, hi};
}

// --- Per-image counters over an interleaved batch ---------------------------
// Activations are stored image-minor (buf[idx * B + b]); each counter is
// accumulated into a per-image slot, so every image's stats match its solo
// run exactly.

/// Input spikes: the popcount of each image's codes.
void popcount_per_image(const std::int64_t* buf, std::int64_t n,
                        std::int64_t batch, std::int64_t* out) {
  std::fill(out, out + batch, std::int64_t{0});
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t* px = buf + i * batch;
    for (std::int64_t b = 0; b < batch; ++b)
      out[b] += std::popcount(static_cast<std::uint64_t>(px[b]));
  }
}

/// exact_adder_ops for a conv op, via the prepared coverage tables: a spike
/// at (ic, iy, ix) fires county[iy] * countx[ix] adders in each of the Cout
/// output planes.
void conv_adder_ops_per_image(const std::int64_t* in, std::int64_t cin,
                              std::int64_t ih, std::int64_t iw,
                              const std::int64_t* county,
                              const std::int64_t* countx, std::int64_t cout,
                              std::int64_t batch, std::int64_t* out) {
  std::fill(out, out + batch, std::int64_t{0});
  const std::int64_t* p = in;
  for (std::int64_t c = 0; c < cin; ++c) {
    for (std::int64_t y = 0; y < ih; ++y) {
      const std::int64_t cy = county[y];
      for (std::int64_t x = 0; x < iw; ++x, p += batch) {
        const std::int64_t f = cy * countx[x];
        if (f == 0) continue;
        for (std::int64_t b = 0; b < batch; ++b)
          out[b] += std::popcount(static_cast<std::uint64_t>(p[b])) * f;
      }
    }
  }
  for (std::int64_t b = 0; b < batch; ++b) out[b] *= cout;
}

/// exact_adder_ops for a pool op: spikes within the covered region
/// (iy / k < oh, ix / k < ow) each fire one adder.
void pool_covered_per_image(const std::int64_t* in, std::int64_t channels,
                            std::int64_t ih, std::int64_t iw, std::int64_t k,
                            std::int64_t oh, std::int64_t ow,
                            std::int64_t batch, std::int64_t* out) {
  std::fill(out, out + batch, std::int64_t{0});
  const std::int64_t* p = in;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t y = 0; y < ih; ++y) {
      const bool y_covered = y / k < oh;
      for (std::int64_t x = 0; x < iw; ++x, p += batch) {
        if (!y_covered || x / k >= ow) continue;
        for (std::int64_t b = 0; b < batch; ++b)
          out[b] += std::popcount(static_cast<std::uint64_t>(p[b]));
      }
    }
  }
}

// --- Conv kernels, CHW -----------------------------------------------------

/// One conv output channel in CHW order over image-minor interleaved
/// activations: accumulate into acc[oh*ow*B] (finish_channel requantizes).
/// Taps iterate (ic, ky, kx)-outer so the inner loop is a contiguous row
/// axpy handed to the SIMD dispatch table; zero weights (common at 3-bit
/// resolution) skip their whole plane pass. With stride 1 consecutive output
/// pixels read consecutive interleaved input pixels, so a row segment of all
/// B images is ONE contiguous axpy of length (hi-lo)*B.
void conv_channel_chw_batched(const QConv2d& conv, const std::int64_t* in,
                              std::int64_t ih, std::int64_t iw, std::int64_t oh,
                              std::int64_t ow, std::int64_t oc,
                              std::int64_t batch, const Kernels& K,
                              std::int64_t* acc) {
  std::fill(acc, acc + oh * ow * batch, std::int64_t{0});
  const std::int64_t k = conv.kernel, str = conv.stride, pad = conv.padding;
  const std::int32_t* wbase =
      conv.weight.data() + oc * conv.in_channels * k * k;
  for (std::int64_t ic = 0; ic < conv.in_channels; ++ic) {
    const std::int64_t* plane = in + ic * ih * iw * batch;
    const std::int32_t* wch = wbase + ic * k * k;
    for (std::int64_t ky = 0; ky < k; ++ky) {
      const AxisBounds by = out_bounds(ky, pad, str, ih, oh);
      for (std::int64_t kx = 0; kx < k; ++kx) {
        const std::int64_t w = wch[ky * k + kx];
        if (w == 0) continue;
        const AxisBounds bx = out_bounds(kx, pad, str, iw, ow);
        const std::int64_t x0 = kx - pad;
        for (std::int64_t oy = by.lo; oy < by.hi; ++oy) {
          const std::int64_t iy = oy * str + ky - pad;
          std::int64_t* arow = acc + (oy * ow + bx.lo) * batch;
          if (str == 1) {
            const std::int64_t* src = plane + (iy * iw + x0 + bx.lo) * batch;
            prefetch_ro(src + str * iw * batch);  // next oy's input row
            K.axpy_code_i64(arow, src, w, (bx.hi - bx.lo) * batch);
          } else {
            for (std::int64_t ox = bx.lo; ox < bx.hi; ++ox, arow += batch) {
              const std::int64_t* src =
                  plane + (iy * iw + x0 + ox * str) * batch;
              for (std::int64_t b = 0; b < batch; ++b) arow[b] += w * src[b];
            }
          }
        }
      }
    }
  }
}

/// Requantize (or bias-add, for the raw final layer) one output channel's
/// accumulator plane in place. Works unchanged on interleaved batch planes:
/// the transform is elementwise and identical for every image.
void finish_channel(const QConv2d& conv, std::int64_t oc, int time_bits,
                    std::int64_t* acc, std::int64_t count) {
  const std::int64_t bias = conv.bias.data()[oc];
  if (!conv.requantize) {
    for (std::int64_t i = 0; i < count; ++i) acc[i] += bias;
    return;
  }
  const int frac = conv.channel_frac.numel() > 0
                       ? conv.channel_frac.data()[oc]
                       : conv.frac_bits;
  for (std::int64_t i = 0; i < count; ++i)
    acc[i] = quant::requantize_value(acc[i], bias, frac, time_bits);
}

// --- Conv kernels, HWC -----------------------------------------------------

/// Byte budget for one repacked HWC input strip. Sized to sit inside L2 so
/// the repack is written once and every kernel-window read after it hits
/// cache; VGG-scale inputs (e.g. 64ch × 224² ≈ 26 MB as int64) are repacked
/// strip by strip instead of whole.
constexpr std::int64_t kHwcTileBytes = 256 * 1024;

/// Output rows per HWC strip: as many as keep the strip's input rows
/// ((strip-1)*stride + k of them) under the tile budget, at least 1.
std::int64_t hwc_strip_height(std::int64_t iw, std::int64_t cin,
                              std::int64_t batch, std::int64_t k,
                              std::int64_t str, std::int64_t oh) {
  const std::int64_t row_bytes =
      iw * cin * batch * static_cast<std::int64_t>(sizeof(std::int64_t));
  std::int64_t rows = kHwcTileBytes / std::max<std::int64_t>(row_bytes, 1);
  if (rows < k) rows = k;
  const std::int64_t strip = (rows - k) / str + 1;
  return std::clamp<std::int64_t>(strip, 1, oh);
}

/// Whole conv layer in HWC order, writing finished codes to
/// out_hwcb[oh*ow][B][Cout]. The input is repacked CHW -> HWC one output-row
/// strip at a time ([row][x][Cin][B]; the strip stays cache-resident and
/// halo rows between strips are repacked twice). Per output pixel an
/// acc[B][Cout] block accumulates with the prepared [ky][kx][Cin][Cout]
/// weights, so each weight row is applied to every image while it is hot in
/// cache, with the contiguous output-channel inner loop handed to the SIMD
/// dispatch table. Rows whose activation is zero in every image (spike
/// sparsity) are skipped before their prefetch. The body is compiled for a
/// fixed kBatch of 1 and for a runtime batch (kBatch == 0), so a single
/// image runs with its batch loops folded away.
template <std::int64_t kBatch>
void conv_hwc_impl(const QConv2d& conv, const std::int64_t* in,
                   std::int64_t ih, std::int64_t iw, std::int64_t oh,
                   std::int64_t ow, const std::int8_t* whwc, int time_bits,
                   std::int64_t runtime_batch, const Kernels& K,
                   common::Arena& arena, std::int64_t* out_hwcb) {
  const std::int64_t batch = kBatch > 0 ? kBatch : runtime_batch;
  const std::int64_t cin = conv.in_channels, cout = conv.out_channels;
  const std::int64_t k = conv.kernel, str = conv.stride, pad = conv.padding;

  const std::int64_t strip_oh = hwc_strip_height(iw, cin, batch, k, str, oh);
  const std::int64_t rows_cap = std::min(ih, (strip_oh - 1) * str + k);
  std::int64_t* tile = arena.alloc<std::int64_t>(rows_cap * iw * cin * batch);
  std::int64_t* acc = arena.alloc<std::int64_t>(batch * cout);
  const std::int64_t* bias = conv.bias.data();
  const std::int32_t* cf =
      conv.channel_frac.numel() > 0 ? conv.channel_frac.data() : nullptr;

  for (std::int64_t oy0 = 0; oy0 < oh; oy0 += strip_oh) {
    const std::int64_t oy1 = std::min(oh, oy0 + strip_oh);
    const std::int64_t ty0 = std::max<std::int64_t>(0, oy0 * str - pad);
    const std::int64_t ty1 =
        std::max(ty0, std::min(ih, (oy1 - 1) * str + k - pad));
    for (std::int64_t c = 0; c < cin; ++c) {
      for (std::int64_t iy = ty0; iy < ty1; ++iy) {
        const std::int64_t* srow = in + ((c * ih + iy) * iw) * batch;
        for (std::int64_t ix = 0; ix < iw; ++ix) {
          const std::int64_t* src = srow + ix * batch;
          std::int64_t* dst = tile + (((iy - ty0) * iw + ix) * cin + c) * batch;
          for (std::int64_t b = 0; b < batch; ++b) dst[b] = src[b];
        }
      }
    }
    for (std::int64_t oy = oy0; oy < oy1; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        std::fill(acc, acc + batch * cout, std::int64_t{0});
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy * str + ky - pad;
          if (iy < 0 || iy >= ih) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox * str + kx - pad;
            if (ix < 0 || ix >= iw) continue;
            const std::int64_t* px =
                tile + ((iy - ty0) * iw + ix) * cin * batch;
            const std::int8_t* wk = whwc + (ky * k + kx) * cin * cout;
            for (std::int64_t ic = 0; ic < cin; ++ic) {
              const std::int64_t* a_b = px + ic * batch;
              std::int64_t live = 0;
              for (std::int64_t b = 0; b < batch; ++b) live |= a_b[b];
              if (live == 0) continue;
              const std::int8_t* wrow = wk + ic * cout;
              // [cin][cout] rows are contiguous across taps, so the
              // prefetch rolls into the next tap's tile at block ends.
              prefetch_ro(wrow + kPrefetchRows * cout);
              for (std::int64_t b = 0; b < batch; ++b) {
                const std::int64_t a = a_b[b];
                if (a == 0) continue;
                K.axpy_w8(acc + b * cout, wrow, a, cout);
              }
            }
          }
        }
        std::int64_t* dst = out_hwcb + (oy * ow + ox) * batch * cout;
        for (std::int64_t b = 0; b < batch; ++b) {
          const std::int64_t* arow = acc + b * cout;
          std::int64_t* drow = dst + b * cout;
          if (conv.requantize) {
            for (std::int64_t oc = 0; oc < cout; ++oc)
              drow[oc] = quant::requantize_value(
                  arow[oc], bias[oc], cf ? cf[oc] : conv.frac_bits, time_bits);
          } else {
            for (std::int64_t oc = 0; oc < cout; ++oc)
              drow[oc] = arow[oc] + bias[oc];
          }
        }
      }
    }
  }
}

void conv_hwc_batched(const QConv2d& conv, const std::int64_t* in,
                      std::int64_t ih, std::int64_t iw, std::int64_t oh,
                      std::int64_t ow, const std::int8_t* whwc, int time_bits,
                      std::int64_t batch, const Kernels& K,
                      common::Arena& arena, std::int64_t* out_hwcb) {
  if (batch == 1)
    conv_hwc_impl<1>(conv, in, ih, iw, oh, ow, whwc, time_bits, 1, K, arena,
                     out_hwcb);
  else
    conv_hwc_impl<0>(conv, in, ih, iw, oh, ow, whwc, time_bits, batch, K,
                     arena, out_hwcb);
}

// --- Pool kernels ----------------------------------------------------------

/// Average-pool one interleaved CHW plane, mirroring quant pool_forward:
/// each image's window sum accumulates in a local, then an arithmetic right
/// shift.
void pool_plane_batched(const std::int64_t* plane, std::int64_t iw,
                        std::int64_t k, int shift, std::int64_t oh,
                        std::int64_t ow, std::int64_t batch,
                        std::int64_t* out) {
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const std::int64_t* win = plane + (oy * k * iw + ox * k) * batch;
      std::int64_t* o = out + (oy * ow + ox) * batch;
      for (std::int64_t b = 0; b < batch; ++b) {
        std::int64_t acc = 0;
        for (std::int64_t ky = 0; ky < k; ++ky)
          for (std::int64_t kx = 0; kx < k; ++kx)
            acc += win[(ky * iw + kx) * batch + b];
        o[b] = acc >> shift;
      }
    }
  }
}

// --- Linear kernels --------------------------------------------------------

/// Linear layer with the prepared transposed weights [in][out]: per-image
/// contiguous accumulator rows ([B][nout] in `scratch`), with each weight
/// row applied to all images while resident, so the matrix streams once per
/// batch. A row whose input code is zero in every image (no spikes) is
/// skipped; live rows are contiguous SIMD axpys over the output features.
/// Output is re-interleaved image-minor into `out`.
void linear_fast_batched(const QLinear& fc, const std::int64_t* in,
                         const std::int8_t* wt, int time_bits,
                         std::int64_t batch, const Kernels& K,
                         std::int64_t* scratch, std::int64_t* out) {
  const std::int64_t nin = fc.in_features, nout = fc.out_features;
  std::fill(scratch, scratch + batch * nout, std::int64_t{0});
  for (std::int64_t i = 0; i < nin; ++i) {
    const std::int64_t* px = in + i * batch;
    std::int64_t live = 0;
    for (std::int64_t b = 0; b < batch; ++b) live |= px[b];
    if (live == 0) continue;
    const std::int8_t* wrow = wt + i * nout;
    prefetch_ro(wrow + kPrefetchRows * nout);
    for (std::int64_t b = 0; b < batch; ++b) {
      const std::int64_t a = px[b];
      if (a == 0) continue;
      K.axpy_w8(scratch + b * nout, wrow, a, nout);
    }
  }
  const std::int64_t* bias = fc.bias.data();
  const std::int32_t* cf =
      fc.channel_frac.numel() > 0 ? fc.channel_frac.data() : nullptr;
  for (std::int64_t b = 0; b < batch; ++b) {
    std::int64_t* row = scratch + b * nout;
    if (!fc.requantize) {
      for (std::int64_t o = 0; o < nout; ++o) row[o] += bias[o];
    } else {
      for (std::int64_t o = 0; o < nout; ++o)
        row[o] = quant::requantize_value(row[o], bias[o],
                                         cf ? cf[o] : fc.frac_bits, time_bits);
    }
    for (std::int64_t o = 0; o < nout; ++o) out[o * batch + b] = row[o];
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

/// Narrows weights into the int8 prepared pack while tracking their range;
/// require() then refuses the layer if any value fell outside int8.
/// Quantized weights are `weight_bits` <= 8 signed values, so this only
/// fails on a network built or loaded around those bounds — and then
/// prepare throws instead of keeping a truncated pack. Tracking min/max
/// instead of branching per weight keeps the repack loops branch-free.
class Int8Narrower {
 public:
  /// dst[j] = src[j * stride] for j < n. Locals carry the range: the int8
  /// stores may alias the members, which would pin them to memory.
  void copy(const std::int32_t* src, std::int64_t stride, std::int8_t* dst,
            std::int64_t n) {
    std::int32_t lo = lo_, hi = hi_;
    for (std::int64_t j = 0; j < n; ++j) {
      const std::int32_t w = src[j * stride];
      lo = std::min(lo, w);
      hi = std::max(hi, w);
      dst[j] = static_cast<std::int8_t>(w);
    }
    lo_ = lo;
    hi_ = hi;
  }
  void require(std::size_t op_index) const {
    RSNN_REQUIRE(lo_ >= INT8_MIN && hi_ <= INT8_MAX,
                 "op " << op_index << " has weights in [" << lo_ << ", "
                       << hi_ << "], outside the int8 prepared pack");
  }

 private:
  std::int32_t lo_ = 0;
  std::int32_t hi_ = 0;
};

/// Side of the square blocks the transposing repacks walk (rows x columns of
/// the destination, i.e. cin x cout or in x out). A block's source reads
/// (one strided run per destination column) stay cache-resident while its
/// destination rows are written front to back.
constexpr std::int64_t kRepackBlock = 64;

/// Visit a rows x cols transpose in kRepackBlock-square blocks:
/// fn(row, col_begin, col_end) once per destination row segment.
template <typename Fn>
void for_each_repack_block(std::int64_t rows, std::int64_t cols, Fn&& fn) {
  for (std::int64_t r0 = 0; r0 < rows; r0 += kRepackBlock)
    for (std::int64_t c0 = 0; c0 < cols; c0 += kRepackBlock) {
      const std::int64_t r1 = std::min(rows, r0 + kRepackBlock);
      const std::int64_t c1 = std::min(cols, c0 + kRepackBlock);
      for (std::int64_t r = r0; r < r1; ++r) fn(r, c0, c1);
    }
}

}  // namespace

FastPrepared prepare_fast_path(const ir::LayerProgram& program) {
  // With int8 weights this keeps every code x weight product inside the
  // kernels' 32-bit multiply, also for networks built around the quantizer.
  RSNN_REQUIRE(program.time_bits() >= 1 && program.time_bits() <= 16,
               "time_bits " << program.time_bits()
                            << " outside 1..16 for the fast path");
  FastPrepared prep;
  prep.ops.resize(program.size());
  for (std::size_t i = 0; i < program.size(); ++i) {
    const ir::LayerOp& op = program.op(i);
    FastPrepared::OpPrep& p = prep.ops[i];
    if (op.kind == ir::OpKind::kConv) {
      const QConv2d& conv = *op.conv;
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
      p.county.resize(static_cast<std::size_t>(ih));
      for (std::int64_t y = 0; y < ih; ++y)
        p.county[static_cast<std::size_t>(y)] = ir::axis_coverage(
            y, conv.kernel, conv.stride, conv.padding, oh);
      p.countx.resize(static_cast<std::size_t>(iw));
      for (std::int64_t x = 0; x < iw; ++x)
        p.countx[static_cast<std::size_t>(x)] = ir::axis_coverage(
            x, conv.kernel, conv.stride, conv.padding, ow);
      if (op.fast_layout == DataLayout::kHwc) {
        const std::int64_t k = conv.kernel;
        const std::int64_t cin = conv.in_channels, cout = conv.out_channels;
        p.weights.resize(static_cast<std::size_t>(k * k * cin * cout));
        const std::int32_t* w = conv.weight.data();
        Int8Narrower narrow;
        for_each_repack_block(cin, cout, [&](std::int64_t ic, std::int64_t o0,
                                             std::int64_t o1) {
          for (std::int64_t tap = 0; tap < k * k; ++tap)
            narrow.copy(w + (o0 * cin + ic) * k * k + tap, cin * k * k,
                        p.weights.data() + (tap * cin + ic) * cout + o0,
                        o1 - o0);
        });
        narrow.require(i);
      }
    } else if (op.kind == ir::OpKind::kLinear) {
      const QLinear& fc = *op.linear;
      const std::int64_t nin = fc.in_features, nout = fc.out_features;
      p.weights.resize(static_cast<std::size_t>(nin * nout));
      const std::int32_t* w = fc.weight.data();
      Int8Narrower narrow;
      for_each_repack_block(nin, nout, [&](std::int64_t in, std::int64_t o0,
                                           std::int64_t o1) {
        narrow.copy(w + o0 * nin + in, nin, p.weights.data() + in * nout + o0,
                    o1 - o0);
      });
      narrow.require(i);
    }
  }
  return prep;
}

// --- Batched execution -------------------------------------------------------
namespace {

/// The state of one run_fast_path() call: its arena, the batch's results and
/// boundary outputs, the image-minor interleaved activation buffer and
/// per-image counter scratch. A single image is a batch of one.
struct BatchRun {
  common::Arena* arena = nullptr;
  std::int64_t B = 0;                 ///< images in the batch
  AccelRunResult* results = nullptr;  ///< B caller-reset results
  TensorI* boundary = nullptr;        ///< B boundary tensors, or nullptr
  std::int64_t* cur = nullptr;        ///< interleaved activations cur[i*B+b]
  std::int64_t* spikes = nullptr;     ///< per-image counter scratch (4x B)
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

/// Execute the step starting at op `li` (one op, or a fused conv+pool pair),
/// including the end-of-range logit / boundary emission.
void run_step(const ir::LayerProgram& program, const FastPrepared& prep,
              const Kernels& K, int T, std::size_t n_layers, std::size_t li,
              std::size_t end, BatchRun& s) {
  common::Arena& arena = *s.arena;
  const std::int64_t B = s.B;
  AccelRunResult* results = s.results;
  std::int64_t* spikes = s.spikes;
  std::int64_t* adder = s.adder;
  std::int64_t* pool_spikes = s.pool_spikes;
  std::int64_t* pool_covered = s.pool_covered;
  std::int64_t* cur = s.cur;

  const ir::LayerOp& op = program.op(li);
  const bool network_final =
      static_cast<std::size_t>(op.layer_index) + 1 == n_layers;
  RSNN_ENSURE(op.requantize || network_final || op.kind == ir::OpKind::kPool ||
                  op.kind == ir::OpKind::kFlatten,
              "non-final layer must requantize");
  popcount_per_image(cur, op.in_shape.numel(), B, spikes);
  const FastPrepared::OpPrep& p = prep.ops[li];
  const std::size_t consumed = ops_consumed(program, li, end);

  switch (op.kind) {
    case ir::OpKind::kFlatten: {
      for (std::int64_t b = 0; b < B; ++b) {
        LayerStats stats = annotated_stats(op);
        stats.input_spikes = spikes[b];
        stats.adder_ops = 0;
        accumulate_layer(results[b], std::move(stats));
      }
      break;
    }
    case ir::OpKind::kConv: {
      const QConv2d& conv = *op.conv;
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
      const std::int64_t cout = conv.out_channels;
      conv_adder_ops_per_image(cur, conv.in_channels, ih, iw, p.county.data(),
                               p.countx.data(), cout, B, adder);
      if (consumed == 1) {  // unfused
        std::int64_t* out = arena.alloc<std::int64_t>(cout * oh * ow * B);
        if (op.fast_layout == DataLayout::kHwc) {
          std::int64_t* out_hwcb = arena.alloc<std::int64_t>(oh * ow * B * cout);
          conv_hwc_batched(conv, cur, ih, iw, oh, ow, p.weights.data(), T, B, K,
                           arena, out_hwcb);
          for (std::int64_t i = 0; i < oh * ow; ++i)
            for (std::int64_t b = 0; b < B; ++b) {
              const std::int64_t* src = out_hwcb + (i * B + b) * cout;
              for (std::int64_t oc = 0; oc < cout; ++oc)
                out[(oc * oh * ow + i) * B + b] = src[oc];
            }
        } else {
          for (std::int64_t oc = 0; oc < cout; ++oc) {
            std::int64_t* plane = out + oc * oh * ow * B;
            conv_channel_chw_batched(conv, cur, ih, iw, oh, ow, oc, B, K,
                                     plane);
            finish_channel(conv, oc, T, plane, oh * ow * B);
          }
        }
        for (std::int64_t b = 0; b < B; ++b) {
          LayerStats stats = annotated_stats(op);
          stats.input_spikes = spikes[b];
          stats.adder_ops = adder[b];
          accumulate_layer(results[b], std::move(stats));
        }
        cur = out;
        break;
      }

      // Fused conv+pool: the pool consumes conv codes straight from scratch,
      // skipping the intermediate CHW activation tensor.
      const ir::LayerOp& pool_op = program.op(li + 1);
      const QPool2d& pool = *pool_op.pool;
      const std::int64_t k = pool.kernel;
      const std::int64_t poh = pool_op.out_shape.dim(1);
      const std::int64_t pow_ = pool_op.out_shape.dim(2);
      std::int64_t* out = arena.alloc<std::int64_t>(cout * poh * pow_ * B);
      if (op.fast_layout == DataLayout::kHwc) {
        std::int64_t* out_hwcb = arena.alloc<std::int64_t>(oh * ow * B * cout);
        conv_hwc_batched(conv, cur, ih, iw, oh, ow, p.weights.data(), T, B, K,
                         arena, out_hwcb);
        std::fill(pool_spikes, pool_spikes + B, std::int64_t{0});
        std::fill(pool_covered, pool_covered + B, std::int64_t{0});
        for (std::int64_t y = 0; y < oh; ++y) {
          const bool y_covered = y / k < poh;
          for (std::int64_t x = 0; x < ow; ++x) {
            const bool covered = y_covered && x / k < pow_;
            const std::int64_t* base = out_hwcb + ((y * ow + x) * B) * cout;
            for (std::int64_t b = 0; b < B; ++b) {
              const std::int64_t n = popcount_sum(base + b * cout, cout);
              pool_spikes[b] += n;
              if (covered) pool_covered[b] += n;
            }
          }
        }
        std::int64_t* pacc = arena.alloc<std::int64_t>(B * cout);
        for (std::int64_t py = 0; py < poh; ++py) {
          for (std::int64_t px = 0; px < pow_; ++px) {
            std::fill(pacc, pacc + B * cout, std::int64_t{0});
            for (std::int64_t ky = 0; ky < k; ++ky)
              for (std::int64_t kx = 0; kx < k; ++kx)
                K.add_i64(pacc,
                          out_hwcb +
                              (((py * k + ky) * ow + px * k + kx) * B) * cout,
                          B * cout);
            for (std::int64_t b = 0; b < B; ++b)
              for (std::int64_t oc = 0; oc < cout; ++oc)
                out[((oc * poh + py) * pow_ + px) * B + b] =
                    pacc[b * cout + oc] >> pool.shift;
          }
        }
      } else {
        std::int64_t* plane = arena.alloc<std::int64_t>(oh * ow * B);
        std::fill(pool_spikes, pool_spikes + B, std::int64_t{0});
        std::fill(pool_covered, pool_covered + B, std::int64_t{0});
        for (std::int64_t oc = 0; oc < cout; ++oc) {
          conv_channel_chw_batched(conv, cur, ih, iw, oh, ow, oc, B, K, plane);
          finish_channel(conv, oc, T, plane, oh * ow * B);
          const std::int64_t* q = plane;
          for (std::int64_t y = 0; y < oh; ++y) {
            const bool y_covered = y / k < poh;
            for (std::int64_t x = 0; x < ow; ++x, q += B) {
              const bool covered = y_covered && x / k < pow_;
              for (std::int64_t b = 0; b < B; ++b) {
                const std::int64_t n =
                    std::popcount(static_cast<std::uint64_t>(q[b]));
                pool_spikes[b] += n;
                if (covered) pool_covered[b] += n;
              }
            }
          }
          pool_plane_batched(plane, ow, k, pool.shift, poh, pow_, B,
                             out + oc * poh * pow_ * B);
        }
      }
      for (std::int64_t b = 0; b < B; ++b) {
        LayerStats stats = annotated_stats(op);
        stats.input_spikes = spikes[b];
        stats.adder_ops = adder[b];
        accumulate_layer(results[b], std::move(stats));
        LayerStats pstats = annotated_stats(pool_op);
        pstats.input_spikes = pool_spikes[b];
        pstats.adder_ops = pool_covered[b];
        accumulate_layer(results[b], std::move(pstats));
      }
      cur = out;
      break;
    }
    case ir::OpKind::kPool: {
      const QPool2d& pool = *op.pool;
      const std::int64_t ch = op.in_shape.dim(0);
      const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
      const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
      pool_covered_per_image(cur, ch, ih, iw, pool.kernel, oh, ow, B, adder);
      std::int64_t* out = arena.alloc<std::int64_t>(ch * oh * ow * B);
      for (std::int64_t c = 0; c < ch; ++c)
        pool_plane_batched(cur + c * ih * iw * B, iw, pool.kernel, pool.shift,
                           oh, ow, B, out + c * oh * ow * B);
      for (std::int64_t b = 0; b < B; ++b) {
        LayerStats stats = annotated_stats(op);
        stats.input_spikes = spikes[b];
        stats.adder_ops = adder[b];
        accumulate_layer(results[b], std::move(stats));
      }
      cur = out;
      break;
    }
    case ir::OpKind::kLinear: {
      const QLinear& fc = *op.linear;
      std::int64_t* out = arena.alloc<std::int64_t>(fc.out_features * B);
      std::int64_t* scratch = arena.alloc<std::int64_t>(B * fc.out_features);
      linear_fast_batched(fc, cur, p.weights.data(), T, B, K, scratch, out);
      for (std::int64_t b = 0; b < B; ++b) {
        LayerStats stats = annotated_stats(op);
        stats.input_spikes = spikes[b];
        stats.adder_ops = spikes[b] * fc.out_features;
        accumulate_layer(results[b], std::move(stats));
      }
      cur = out;
      break;
    }
  }

  const ir::LayerOp& last_op = program.op(li + consumed - 1);
  const std::int64_t out_numel = last_op.out_shape.numel();
  if (static_cast<std::size_t>(last_op.layer_index) + 1 == n_layers) {
    for (std::int64_t b = 0; b < B; ++b) {
      auto& logits = results[b].logits;
      logits.resize(static_cast<std::size_t>(out_numel));
      for (std::int64_t i = 0; i < out_numel; ++i)
        logits[static_cast<std::size_t>(i)] = cur[i * B + b];
    }
  } else if (li + consumed == end && s.boundary) {
    for (std::int64_t b = 0; b < B; ++b) {
      TensorI boundary(last_op.out_shape);
      std::int32_t* bp = boundary.data();
      for (std::int64_t i = 0; i < out_numel; ++i)
        bp[i] = static_cast<std::int32_t>(cur[i * B + b]);
      s.boundary[b] = std::move(boundary);
    }
  }
  s.cur = cur;
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
  // round is stable), then the interleaved activation buffer, where
  // cur[i*B + b] is element i (CHW order) of image b.
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
  const std::int64_t n_in = codes[0].numel();
  s.cur = arena.alloc<std::int64_t>(n_in * B);
  for (std::int64_t b = 0; b < B; ++b) {
    RSNN_REQUIRE(codes[b].numel() == n_in,
                 "batched input codes must share one shape");
    const std::int32_t* cp = codes[b].data();
    for (std::int64_t i = 0; i < n_in; ++i) s.cur[i * B + b] = cp[i];
  }

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
/// range and per-op kinds/layouts pin the repack shapes.
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
    mix(static_cast<std::uint64_t>(op.fast_layout));
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
