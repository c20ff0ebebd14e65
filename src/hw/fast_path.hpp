// Code-domain fast path of the cycle-accurate simulator.
//
// Radix-encoded layers are *linear over activation codes*: integrating a
// T-step spike train with the left-shift between steps computes exactly
// sum(code * w) (README "Invariants", invariant 1), so the whole temporal
// loop of a layer collapses to a single integer pass over the codes. The
// fast path exploits that: every conv and linear op runs as one exact
// integer GEMM over radix digits of the codes (common/simd's micro-kernel),
// and the accounting comes from sources that are already proven
// bit-identical to the stepped dataflow:
//
//   * cycles / dram_cycles / memory traffic — the program's latency
//     annotations (invariant 4, enforced per-op by the equivalence suite
//     against the stepped units);
//   * adder ops — the exact activity rule of ir::exact_adder_ops, evaluated
//     through prepared per-op coverage tables;
//   * input spikes — popcount of the input codes (== the spike-train count).
//
// The fast path therefore changes *how* the simulator iterates, never *what*
// it counts: logits, cycles, adder ops and traffic are bit-identical to
// SimMode::kStepped, fused or unfused, which tests/test_fastpath.cpp and
// the property sweep check.
//
// The GEMM. Activations travel between ops as NHWC uint16 codes. A conv is
// an implicit GEMM with M = B * oh * ow output pixels, N = cout and K = the
// k kernel rows of contiguous (kx, cin) bytes; a linear is the same GEMM
// with M = B. Each code is split into D = ceil(T / d) unsigned d-bit digits
// (the paper's radix decomposition at base 2^d), each digit's product sum is
// exact in the kernel's int32 lanes, and the digits recombine in int64
// (sum_i acc_i << d * i) before requantization. prepare_fast_path() fixes
// d, D and the kernel's int32 flush interval per op from the weights' range.
//
// There is one driver, run_fast_path(): it executes a batch of B images
// through one traversal of the prepared weights on the calling thread, and
// a single image is a batch of one.
//
// Memory model: all intermediate activation buffers are bump-allocated from
// a per-worker common::Arena that is rewound per inference — a warm worker
// performs zero heap allocation (tested). Weight packs and coverage tables
// live in a FastPrepared built once per program and shared read-only by
// every accelerator over it.
#pragma once

#include <cstdint>
#include <vector>

#include <cstddef>
#include <memory>

#include "common/arena.hpp"
#include "hw/run_result.hpp"
#include "ir/layer_program.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::hw {

/// Immutable per-program preparation: the GEMM weight packs plus the
/// adder-op coverage tables. Indexed by op position.
struct FastPrepared {
  struct OpPrep {
    /// GEMM weight pack (conv and linear ops; empty otherwise), one byte per
    /// weight: [ceil(cout / 16)][rows][groups][16][4]. Kernel row ky's K
    /// byte kk = kx * cin + c sits in group kk / 4, lane kk % 4; output
    /// channels past cout and bytes past k * cin are zero. Quantized weights
    /// are at most 8-bit signed, and prepare_fast_path() throws on any value
    /// outside int8 rather than truncating it.
    std::vector<std::int8_t> weights;
    std::int64_t rows = 0;    ///< K rows: the kernel height (1 for linear)
    std::int64_t groups = 0;  ///< 4-byte K groups per row: ceil(k * cin / 4)
    int digit_bits = 8;       ///< d: 8 when max|w| <= 64, else 7
    int digits = 1;           ///< D = ceil(T / d)
    /// Groups the kernel may sum in int32 before flushing into int64; 0
    /// when the whole K fits (both shipped models).
    std::int64_t flush_groups = 0;
    /// Separable adder-op coverage per input row / column (conv ops; {1}
    /// for linear ops): a spike at (iy, ix) feeds county[iy] * countx[ix]
    /// kernel windows.
    std::vector<std::int64_t> county;
    std::vector<std::int64_t> countx;
  };
  std::vector<OpPrep> ops;
};

/// Build the prepared state for a hardware-lowered program.
FastPrepared prepare_fast_path(const ir::LayerProgram& program);

/// Process-wide keyed cache over prepare_fast_path(): every Accelerator —
/// and therefore every ServingPool replica — executing the same lowered
/// program receives one shared immutable pack instead of building a private
/// copy (replicas of a VGG-scale model would otherwise each hold megabytes
/// of identical repacked weights and pay the repack on spin-up). Keyed by
/// program identity: the borrowed QuantizedNetwork, the op range and each
/// op's parameters. Entries are weak; a pack dies with its last user and is
/// rebuilt on the next request.
std::shared_ptr<const FastPrepared> shared_fast_prepared(
    const ir::LayerProgram& program);

/// Number of prepare_fast_path() builds performed through the shared cache
/// since process start — an observability hook that lets tests assert the
/// replica-sharing guarantee ("N replicas, one build") by accounting.
std::uint64_t fast_prepared_build_count();

/// Execute ops [begin, end) of `program` on the fast path for `batch` images
/// in one prepared-weight traversal: every weight tile is loaded once and
/// applied to all images before moving on. A single image is a batch of
/// one; there is no separate single-image driver. Inside the call the batch
/// is extra GEMM rows: activations travel as [B][H][W][C] uint16 codes.
///
/// `codes` points at `batch` equally-shaped tensors of codes in [0, 2^T)
/// (a code outside that range throws); `results` at `batch`
/// caller-reset results, each receiving that image's per-op stats exactly
/// as a batch of one would (bit-identical logits and counters: the batch
/// only reorders independent integer updates). `results[b].logits` is
/// filled when the range contains the network's final layer; otherwise the
/// activation codes crossing the downstream cut go to `boundary_codes[b]`
/// when `boundary_codes` is non-null. Scratch comes from `arena` (rewound
/// here, per call), so a warm arena makes the call allocation-free.
void run_fast_path(const ir::LayerProgram& program, const FastPrepared& prep,
                   common::Arena& arena, const TensorI* codes,
                   std::size_t batch, std::size_t begin, std::size_t end,
                   TensorI* boundary_codes, AccelRunResult* results);

}  // namespace rsnn::hw
