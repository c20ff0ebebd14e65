// Runtime-dispatched GEMM micro-kernel for the fast path. See simd.hpp for
// the tile contract and the exactness bounds.
//
// The library builds with plain -O2 (no -mavx2), so the AVX2 body is
// compiled per-function with __attribute__((target("avx2"))) and only ever
// called after __builtin_cpu_supports("avx2") confirms the ISA.

#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define RSNN_SIMD_X86 1
#endif

namespace rsnn::common::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar body (always available; the forced-dispatch target). It sums in
// int64, so it is exact for any digits and weights.
// ---------------------------------------------------------------------------

void gemm_tile_scalar(const std::uint8_t* const* a, std::int64_t row_stride,
                      std::int64_t rows, std::int64_t groups,
                      const std::int8_t* w, std::int64_t /*flush_groups*/,
                      int shift, int mr, std::int64_t* out) {
  for (int p = 0; p < mr; ++p) {
    std::int64_t acc[kGemmCols] = {};
    const std::int8_t* wg = w;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::uint8_t* ap = a[p] + r * row_stride;
      for (std::int64_t g = 0; g < groups; ++g, ap += kGemmGroup) {
        for (int n = 0; n < kGemmCols; ++n, wg += kGemmGroup)
          acc[n] += ap[0] * wg[0] + ap[1] * wg[1] + ap[2] * wg[2] +
                    ap[3] * wg[3];
      }
    }
    const std::int64_t scale = std::int64_t{1} << shift;
    for (int n = 0; n < kGemmCols; ++n)
      out[p * kGemmCols + n] += acc[n] * scale;
  }
}

constexpr Kernels kScalarKernels{gemm_tile_scalar, "scalar"};

// ---------------------------------------------------------------------------
// AVX2 body. A 64-byte weight group holds 16 channels x 4 K bytes; each half
// (8 channels) is one ymm. Per pixel, the group's 4 digit bytes are broadcast
// to every 32-bit lane, so maddubs + madd(ones) leaves channel c's 4-term dot
// product in int32 lane c.
// ---------------------------------------------------------------------------

#if RSNN_SIMD_X86

template <int MR>
__attribute__((target("avx2"))) inline void flush_avx2(__m256i (&acc)[MR][2],
                                                       int shift,
                                                       std::int64_t* out) {
  const __m128i count = _mm_cvtsi32_si128(shift);
#pragma GCC unroll 4
  for (int p = 0; p < MR; ++p) {
#pragma GCC unroll 2
    for (int h = 0; h < 2; ++h) {
      std::int64_t* o = out + p * kGemmCols + h * 8;
      const __m256i lo = _mm256_sll_epi64(
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[p][h])), count);
      const __m256i hi = _mm256_sll_epi64(
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc[p][h], 1)),
          count);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(o),
          _mm256_add_epi64(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o)), lo));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(o + 4),
          _mm256_add_epi64(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(o + 4)),
              hi));
      acc[p][h] = _mm256_setzero_si256();
    }
  }
}

template <int MR>
__attribute__((target("avx2"))) void gemm_tile_avx2_mr(
    const std::uint8_t* const* a, std::int64_t row_stride, std::int64_t rows,
    std::int64_t groups, const std::int8_t* w, std::int64_t flush_groups,
    int shift, std::int64_t* out) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc[MR][2];
#pragma GCC unroll 4
  for (int p = 0; p < MR; ++p) acc[p][0] = acc[p][1] = _mm256_setzero_si256();
  std::int64_t left = flush_groups > 0 ? flush_groups : -1;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::uint8_t* ap[MR] = {};
#pragma GCC unroll 4
    for (int p = 0; p < MR; ++p) ap[p] = a[p] + r * row_stride;
    for (std::int64_t g = 0; g < groups; ++g, w += kGemmCols * kGemmGroup) {
      const __m256i w0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
      const __m256i w1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 32));
#pragma GCC unroll 4
      for (int p = 0; p < MR; ++p) {
        std::int32_t digits = 0;
        std::memcpy(&digits, ap[p] + g * kGemmGroup, sizeof digits);
        const __m256i x = _mm256_set1_epi32(digits);
        acc[p][0] = _mm256_add_epi32(
            acc[p][0], _mm256_madd_epi16(_mm256_maddubs_epi16(x, w0), ones));
        acc[p][1] = _mm256_add_epi32(
            acc[p][1], _mm256_madd_epi16(_mm256_maddubs_epi16(x, w1), ones));
      }
      if (--left == 0) {
        flush_avx2<MR>(acc, shift, out);
        left = flush_groups;
      }
    }
  }
  flush_avx2<MR>(acc, shift, out);
}

void gemm_tile_avx2(const std::uint8_t* const* a, std::int64_t row_stride,
                    std::int64_t rows, std::int64_t groups,
                    const std::int8_t* w, std::int64_t flush_groups, int shift,
                    int mr, std::int64_t* out) {
  switch (mr) {
    case 1:
      return gemm_tile_avx2_mr<1>(a, row_stride, rows, groups, w,
                                  flush_groups, shift, out);
    case 2:
      return gemm_tile_avx2_mr<2>(a, row_stride, rows, groups, w,
                                  flush_groups, shift, out);
    case 3:
      return gemm_tile_avx2_mr<3>(a, row_stride, rows, groups, w,
                                  flush_groups, shift, out);
    default:
      return gemm_tile_avx2_mr<4>(a, row_stride, rows, groups, w,
                                  flush_groups, shift, out);
  }
}

constexpr Kernels kAvx2Kernels{gemm_tile_avx2, "avx2"};

#endif  // RSNN_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

const Kernels& best_kernels() {
#if RSNN_SIMD_X86
  static const Kernels* best = [] {
    return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : &kScalarKernels;
  }();
  return *best;
#else
  return kScalarKernels;
#endif
}

// Depth of force-scalar requests: the env knob contributes one permanent
// increment; each live ScopedForceScalar(true) contributes one more.
std::atomic<int>& force_scalar_depth() {
  static std::atomic<int> depth = [] {
    const char* env = std::getenv("RSNN_FORCE_SCALAR");
    return (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
  }();
  return depth;
}

}  // namespace

const Kernels& kernels() {
  return force_scalar_depth().load(std::memory_order_relaxed) > 0
             ? kScalarKernels
             : best_kernels();
}

const Kernels& scalar_kernels() { return kScalarKernels; }

const char* detected_isa() { return best_kernels().isa; }

bool force_scalar_active() {
  return force_scalar_depth().load(std::memory_order_relaxed) > 0;
}

ScopedForceScalar::ScopedForceScalar(bool force) : previous_(force) {
  if (force) force_scalar_depth().fetch_add(1, std::memory_order_relaxed);
}

ScopedForceScalar::~ScopedForceScalar() {
  if (previous_) force_scalar_depth().fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace rsnn::common::simd
