// SIMD dispatch for the simulator fast path's integer inner loops.
//
// The fast-path kernels (hw/fast_path) spend their time in three tiny
// integer primitives: saxpy over int64 activation codes, saxpy with int8
// prepared weights widened into int64 accumulators, and elementwise int64
// accumulation. This module provides hand-vectorized implementations of
// those primitives (AVX2 on x86-64, NEON on AArch64) behind one function-
// pointer table resolved at runtime from CPUID, with a portable scalar
// fallback that is always available.
//
// Exactness contract: every implementation computes the same full-precision
// integer arithmetic — SIMD lanes only reorder independent element updates,
// and int64 addition of in-range products is exact — so scalar and vector
// kernels are bit-identical (tests/test_fastpath.cpp asserts this under
// forced dispatch).
//
// Value ranges: `axpy_code_i64` requires the source elements and the scalar
// multiplier to fit in int32 (activation codes are unsigned T-bit values and
// weights are `weight_bits`-bit signed — both orders of magnitude inside
// that bound); `axpy_w8` requires |a * w[i]| to fit in int32, because the
// vector bodies multiply in 32-bit lanes. Nothing checks that per call; the
// bound is established once, upstream: `quant::quantize` and
// `quant::load_quantized` reject T outside 1..16 and weight_bits outside
// 1..8, and `hw::prepare_fast_path` refuses T outside 1..16 and any weight
// outside int8 (so a hand-built network cannot slip past either). A code
// is therefore at most 2^16 - 1 and |w| at most 128, and
// (2^16 - 1) * 128 < 2^31.
//
// Dispatch control:
//   * RSNN_FORCE_SCALAR=1 in the environment forces the scalar kernels for
//     the whole process (the CI fallback job runs the suite this way);
//   * ScopedForceScalar flips dispatch from a test, restoring it on scope
//     exit, so one process can compare vector vs scalar results.
#pragma once

#include <cstdint>

namespace rsnn::common::simd {

/// The three fast-path primitives, as one dispatch table.
struct Kernels {
  /// acc[i] += w * src[i]. Requires src[i] and w to fit in int32 (the
  /// product is computed exactly in int64).
  void (*axpy_code_i64)(std::int64_t* acc, const std::int64_t* src,
                        std::int64_t w, std::int64_t n);
  /// acc[i] += a * w[i] with int8 weights. Requires |a * w[i]| < 2^31.
  void (*axpy_w8)(std::int64_t* acc, const std::int8_t* w, std::int64_t a,
                  std::int64_t n);
  /// acc[i] += src[i] (exact int64 addition).
  void (*add_i64)(std::int64_t* acc, const std::int64_t* src, std::int64_t n);
  /// Name of the instruction set these kernels use: "avx2", "neon", "scalar".
  const char* isa;
};

/// The kernel table the fast path should use right now: the best ISA the
/// CPU supports, unless scalar dispatch is forced (env or scope guard).
const Kernels& kernels();

/// The portable scalar table (always valid; what forced dispatch selects).
const Kernels& scalar_kernels();

/// ISA of the table kernels() currently returns.
inline const char* active_isa() { return kernels().isa; }

/// ISA of the best vector kernels this CPU supports, ignoring any forced-
/// scalar override ("avx2", "neon", or "scalar" when none apply). What the
/// bench metadata records as "detected".
const char* detected_isa();

/// True when dispatch is currently forced to the scalar kernels (the
/// RSNN_FORCE_SCALAR=1 environment knob, or an active ScopedForceScalar).
bool force_scalar_active();

/// RAII override of the dispatch decision, for in-process vector-vs-scalar
/// equivalence tests. Nestable; restores the previous state on destruction.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool force);
  ~ScopedForceScalar();
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool previous_;
};

}  // namespace rsnn::common::simd
