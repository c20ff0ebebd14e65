// Runtime-dispatched SIMD kernels for the fast path. See simd.hpp for the
// exactness contract and value-range requirements.
//
// The library builds with plain -O2 (no -mavx2), so the AVX2 bodies are
// compiled per-function with __attribute__((target("avx2"))) and only ever
// called after __builtin_cpu_supports("avx2") confirms the ISA. NEON is part
// of the AArch64 baseline, so that variant needs no runtime check.

#include "common/simd.hpp"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define RSNN_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define RSNN_SIMD_NEON 1
#endif

namespace rsnn::common::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels (always available; the forced-dispatch target).
// ---------------------------------------------------------------------------

void axpy_code_i64_scalar(std::int64_t* acc, const std::int64_t* src,
                          std::int64_t w, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += w * src[i];
}

void axpy_w8_scalar(std::int64_t* acc, const std::int8_t* w, std::int64_t a,
                    std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += a * w[i];
}

void add_i64_scalar(std::int64_t* acc, const std::int64_t* src,
                    std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc[i] += src[i];
}

constexpr Kernels kScalarKernels{axpy_code_i64_scalar, axpy_w8_scalar,
                                 add_i64_scalar, "scalar"};

// ---------------------------------------------------------------------------
// AVX2 kernels. AVX2 has no 64x64 multiply, but every multiplier here fits in
// int32 (see simd.hpp), so _mm256_mul_epi32 — which multiplies the low 32
// bits of each 64-bit lane with sign extension — computes the exact product.
// ---------------------------------------------------------------------------

#if RSNN_SIMD_X86

__attribute__((target("avx2"))) void axpy_code_i64_avx2(
    std::int64_t* acc, const std::int64_t* src, std::int64_t w,
    std::int64_t n) {
  // src[i] is a nonnegative activation code < 2^31 and w fits int32, so the
  // low-32 multiply of each 64-bit lane is the full product.
  const __m256i vw = _mm256_set1_epi64x(w);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 4));
    a0 = _mm256_add_epi64(a0, _mm256_mul_epi32(s0, vw));
    a1 = _mm256_add_epi64(a1, _mm256_mul_epi32(s1, vw));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 4), a1);
  }
  for (; i + 4 <= n; i += 4) {
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    a = _mm256_add_epi64(a, _mm256_mul_epi32(s, vw));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a);
  }
  for (; i < n; ++i) acc[i] += w * src[i];
}

__attribute__((target("avx2"))) void axpy_w8_avx2(std::int64_t* acc,
                                                  const std::int8_t* w,
                                                  std::int64_t a,
                                                  std::int64_t n) {
  // Eight weights per step: sign-extend the bytes to int32 lanes, multiply
  // by the code in 32 bits (exact: |a * w[i]| < 2^31), then widen each half
  // to int64 lanes before accumulating.
  const __m256i va = _mm256_set1_epi32(static_cast<std::int32_t>(a));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i w8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + i));
    const __m256i p = _mm256_mullo_epi32(_mm256_cvtepi8_epi32(w8), va);
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 4));
    const __m128i p_lo = _mm256_castsi256_si128(p);
    const __m128i p_hi = _mm256_extracti128_si256(p, 1);
    a0 = _mm256_add_epi64(a0, _mm256_cvtepi32_epi64(p_lo));
    a1 = _mm256_add_epi64(a1, _mm256_cvtepi32_epi64(p_hi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i + 4), a1);
  }
  for (; i < n; ++i) acc[i] += a * w[i];
}

__attribute__((target("avx2"))) void add_i64_avx2(std::int64_t* acc,
                                                  const std::int64_t* src,
                                                  std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_add_epi64(a, s));
  }
  for (; i < n; ++i) acc[i] += src[i];
}

constexpr Kernels kAvx2Kernels{axpy_code_i64_avx2, axpy_w8_avx2, add_i64_avx2,
                               "avx2"};

#endif  // RSNN_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernels (AArch64 baseline ISA — no runtime detection needed).
// ---------------------------------------------------------------------------

#if RSNN_SIMD_NEON

void axpy_code_i64_neon(std::int64_t* acc, const std::int64_t* src,
                        std::int64_t w, std::int64_t n) {
  // Codes are nonnegative < 2^31 and w fits int32: narrow the 64-bit source
  // lanes to 32 bits, do a widening 32x32 multiply-accumulate.
  const std::int32_t w32 = static_cast<std::int32_t>(w);
  const int32x2_t vw = vdup_n_s32(w32);
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    int64x2_t s = vld1q_s64(src + i);
    int64x2_t a = vld1q_s64(acc + i);
    int32x2_t s32 = vmovn_s64(s);
    a = vmlal_s32(a, s32, vw);
    vst1q_s64(acc + i, a);
  }
  for (; i < n; ++i) acc[i] += w * src[i];
}

void axpy_w8_neon(std::int64_t* acc, const std::int8_t* w, std::int64_t a,
                  std::int64_t n) {
  // Eight weights per step: widen the bytes to int16 then int32 lanes and
  // do widening 32x32 multiply-accumulates into four int64x2 accumulators.
  const int32x2_t va = vdup_n_s32(static_cast<std::int32_t>(a));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t w16 = vmovl_s8(vld1_s8(w + i));
    const int32x4_t lo = vmovl_s16(vget_low_s16(w16));
    const int32x4_t hi = vmovl_s16(vget_high_s16(w16));
    vst1q_s64(acc + i, vmlal_s32(vld1q_s64(acc + i), vget_low_s32(lo), va));
    vst1q_s64(acc + i + 2,
              vmlal_s32(vld1q_s64(acc + i + 2), vget_high_s32(lo), va));
    vst1q_s64(acc + i + 4,
              vmlal_s32(vld1q_s64(acc + i + 4), vget_low_s32(hi), va));
    vst1q_s64(acc + i + 6,
              vmlal_s32(vld1q_s64(acc + i + 6), vget_high_s32(hi), va));
  }
  for (; i < n; ++i) acc[i] += a * w[i];
}

void add_i64_neon(std::int64_t* acc, const std::int64_t* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_s64(acc + i, vaddq_s64(vld1q_s64(acc + i), vld1q_s64(src + i)));
  }
  for (; i < n; ++i) acc[i] += src[i];
}

constexpr Kernels kNeonKernels{axpy_code_i64_neon, axpy_w8_neon, add_i64_neon,
                               "neon"};

#endif  // RSNN_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

const Kernels& best_kernels() {
#if RSNN_SIMD_X86
  static const Kernels* best = [] {
    return __builtin_cpu_supports("avx2") ? &kAvx2Kernels : &kScalarKernels;
  }();
  return *best;
#elif RSNN_SIMD_NEON
  return kNeonKernels;
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
