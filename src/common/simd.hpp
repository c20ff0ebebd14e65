// SIMD dispatch for the simulator fast path's integer GEMM micro-kernel.
//
// Every conv and linear op of the fast path (hw/fast_path) runs as one exact
// integer GEMM: activation codes are split into unsigned d-bit radix digits
// (the paper's radix decomposition, at base 2^d instead of 2) and multiplied
// against the int8 prepared weights. This module provides the GEMM's
// register tile — kGemmRows output pixels x kGemmCols output channels —
// hand-vectorized for AVX2 behind a function pointer resolved at runtime
// from CPUID, with a portable scalar body that is always available. Other
// targets (aarch64 included) run the scalar body.
//
// Exactness contract. The AVX2 body multiplies with `maddubs` (u8 x s8, each
// adjacent pair summed in saturating int16), sums the pairs of a 4-byte group
// into int32 with `madd`, and accumulates groups in int32. It is exact when
//   * 2 * max_digit * max|w| <= 32767 (no int16 saturation), and
//   * the int32 sum of `flush_groups` groups cannot overflow, i.e.
//     flush_groups * 4 * max_digit * max|w| < 2^31; the kernel adds its
//     int32 sums into the int64 output every `flush_groups` groups.
// hw::prepare_fast_path picks the digit width and flush interval per op from
// the op's weight range so both hold (d = 8 when max|w| <= 64, else d = 7).
// The scalar body accumulates in int64 and is exact for any inputs, so
// tests/test_fastpath.cpp's vector-vs-scalar comparisons also check that
// prepare's bounds hold.
//
// Dispatch control:
//   * RSNN_FORCE_SCALAR=1 in the environment forces the scalar kernel for
//     the whole process (the CI fallback job runs the suite this way);
//   * ScopedForceScalar flips dispatch from a test, restoring it on scope
//     exit, so one process can compare vector vs scalar results.
#pragma once

#include <cstdint>

namespace rsnn::common::simd {

/// Output pixels (GEMM rows) per register tile.
inline constexpr int kGemmRows = 4;
/// Output channels (GEMM columns) per register tile.
inline constexpr int kGemmCols = 16;
/// K bytes per group: one `maddubs` + `madd` reduces a group of 4.
inline constexpr int kGemmGroup = 4;

/// The fast path's kernel, as a dispatch table.
struct Kernels {
  /// One register tile of the GEMM. For p < mr (1..kGemmRows) and
  /// n < kGemmCols:
  ///   out[p * kGemmCols + n] += (sum over r < rows, g < groups, j < 4 of
  ///       a[p][r * row_stride + g * 4 + j] * w[((r * groups + g) *
  ///       kGemmCols + n) * 4 + j]) << shift
  /// `a[p]` points at pixel p's digit bytes; `w` is one tile's packed
  /// weights. `flush_groups` > 0 bounds how many groups accumulate in int32
  /// before they are added to `out`; 0 means the whole K fits (see above).
  void (*gemm_tile)(const std::uint8_t* const* a, std::int64_t row_stride,
                    std::int64_t rows, std::int64_t groups,
                    const std::int8_t* w, std::int64_t flush_groups,
                    int shift, int mr, std::int64_t* out);
  /// Name of the instruction set the kernel uses: "avx2" or "scalar".
  const char* isa;
};

/// The kernel table the fast path should use right now: the best ISA the
/// CPU supports, unless scalar dispatch is forced (env or scope guard).
const Kernels& kernels();

/// The portable scalar table (always valid; what forced dispatch selects).
const Kernels& scalar_kernels();

/// ISA of the table kernels() currently returns.
inline const char* active_isa() { return kernels().isa; }

/// ISA of the best vector kernel this CPU supports, ignoring any forced-
/// scalar override ("avx2", or "scalar" when none applies). What the bench
/// metadata records as "detected".
const char* detected_isa();

/// True when dispatch is currently forced to the scalar kernel (the
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
