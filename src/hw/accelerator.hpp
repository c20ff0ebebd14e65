// Accelerator: top-level model of the proposed design (paper Fig. 1).
//
// Owns the processing units (N convolution units, one pooling unit, one
// linear unit), the ping-pong activation buffers, and the weight memory, and
// plays the controller's role: layers execute in sequence, each reading the
// active buffer and writing the inactive one, with the flatten transfer
// moving data from the 2-D to the 1-D pair.
//
// The accelerator executes a lowered ir::LayerProgram — the compiler's one
// mapping of the network onto the design — rather than re-deriving layer
// semantics from the QLayer variant. Two simulation modes:
//   * kCycleAccurate — the default: the code-domain fast path
//     (hw/fast_path). Logits come from code-domain arithmetic (invariants
//     1/2), cycles and traffic from the program's latency annotations, adder
//     ops from the exact activity rule — bit-identical to kStepped and an
//     order of magnitude faster. One image runs as a batch of one through
//     the same driver that runs a batch.
//   * kStepped — the golden stepped dataflow: every op runs on the bit-true
//     unit simulators and cycle counts come from stepping. The anchor the
//     fast path and the latency annotations (invariant 4) are pinned to.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "encoding/spike_train.hpp"
#include "hw/arch.hpp"
#include "hw/conv_unit.hpp"
#include "hw/fast_path.hpp"
#include "hw/latency_model.hpp"
#include "hw/linear_unit.hpp"
#include "hw/pingpong.hpp"
#include "hw/pool_unit.hpp"
#include "hw/run_result.hpp"
#include "hw/weight_memory.hpp"
#include "ir/layer_program.hpp"
#include "quant/qnetwork.hpp"

namespace rsnn::hw {

enum class SimMode {
  kCycleAccurate,
  kStepped,
  /// Former name of the fast-path mode, kept as an alias for old callers.
  kAnalytic = kCycleAccurate,
};

class Accelerator {
 public:
  /// Binds a design instance to a compiled network: lowers the network onto
  /// the config (validating that the units can execute it, planning weight
  /// placement and buffer sizes).
  Accelerator(AcceleratorConfig config, const quant::QuantizedNetwork& qnet);

  /// Adopts an already-lowered program (must carry hardware annotations).
  explicit Accelerator(ir::LayerProgram program);

  /// Pre-allocated per-worker execution state: the unit simulators,
  /// ping-pong bookkeeping and per-op scratch tensors are created once and
  /// reused across inferences, so a warm worker's cycle-accurate hot path
  /// performs no per-inference allocation. Each worker thread owns one.
  class WorkerState {
   private:
    friend class Accelerator;
    explicit WorkerState(const ir::LayerProgram& program);
    const ir::LayerProgram* owner;  ///< the program this state was sized for
    ConvUnit conv_unit;
    PoolUnit pool_unit;
    LinearUnit linear_unit;
    PingPongPair buffer2d;
    PingPongPair buffer1d;
    std::vector<TensorI64> layer_out;    ///< one scratch per op
    encoding::SpikeTrain train_a;        ///< alternating spike-train scratch
    encoding::SpikeTrain train_b;
    common::Arena fast_arena;            ///< fast-path activation scratch
  };
  WorkerState make_worker_state() const { return WorkerState(program_); }

  /// Run one image (float values in [0,1), encoded internally).
  AccelRunResult run_image(const TensorF& image,
                           SimMode mode = SimMode::kCycleAccurate) const;

  /// Run pre-encoded activation codes.
  AccelRunResult run_codes(const TensorI& codes,
                           SimMode mode = SimMode::kCycleAccurate) const;

  /// As run_codes(), reusing a worker's pre-allocated state — the streaming
  /// scheduler's entry point. Results are identical to run_codes().
  AccelRunResult run_codes(WorkerState& state, const TensorI& codes,
                           SimMode mode = SimMode::kCycleAccurate) const;

  /// As run_codes(), additionally reusing `out`'s storage for the result.
  /// On the fast path a warm (state, out) pair makes the whole inference
  /// allocation-free; kStepped assigns a fresh result.
  void run_codes_into(WorkerState& state, const TensorI& codes,
                      AccelRunResult& out,
                      SimMode mode = SimMode::kCycleAccurate) const;

  /// Run `batch` whole-program inferences through one prepared-weight
  /// traversal of the fast path (hw/fast_path): each weight tile is loaded
  /// once and applied to every image, amortizing the cache misses that
  /// dominate per-image runs. `codes` and `results` point at `batch`
  /// elements; every results[b] is bit-identical to run_codes_into(state,
  /// codes[b], results[b], mode). kStepped runs the images one by one. A
  /// warm (state, results) pair keeps the whole call allocation-free. The
  /// whole batch runs on the calling thread: host cores are spent by running
  /// more accelerators side by side (engine::ServingPool replicas).
  void run_codes_batched_into(WorkerState& state, const TensorI* codes,
                              std::size_t batch, AccelRunResult* results,
                              SimMode mode = SimMode::kCycleAccurate) const;

  /// Run only the op range [begin, end) — a stage engine's entry point.
  /// `codes` must be shaped as op `begin`'s input (the requantized
  /// activation codes crossing the upstream cut). When `end` stops short of
  /// the program's final op the result carries no logits and
  /// `boundary_codes` (if non-null) receives the activation codes crossing
  /// the downstream cut. Executing every segment of a partition in sequence
  /// is bit-identical, op for op, to one whole-program run.
  AccelRunResult run_codes_range(WorkerState& state, const TensorI& codes,
                                 std::size_t begin, std::size_t end,
                                 SimMode mode = SimMode::kCycleAccurate,
                                 TensorI* boundary_codes = nullptr) const;

  /// As run_codes_range(), with transient scratch: the fast path needs only
  /// an arena, kStepped a fresh WorkerState.
  AccelRunResult run_codes_range(const TensorI& codes, std::size_t begin,
                                 std::size_t end,
                                 SimMode mode = SimMode::kCycleAccurate,
                                 TensorI* boundary_codes = nullptr) const;

  const AcceleratorConfig& config() const { return program_.config(); }
  const quant::QuantizedNetwork& network() const { return program_.network(); }
  const ir::LayerProgram& program() const { return program_; }
  const BufferPlan& buffer_plan() const { return program_.buffer_plan(); }

  /// True if any layer streams weights from DRAM.
  bool uses_dram() const { return program_.uses_dram(); }

  /// Analytic latency of the whole network in cycles (no data needed).
  std::int64_t predict_total_cycles() const {
    return program_.predicted_total_cycles();
  }

  /// Analytic latency in microseconds at the configured clock.
  double predict_latency_us() const {
    return program_.predicted_latency_us();
  }

  /// The fast-path preparation (weight repacks, coverage tables) this
  /// accelerator executes with — resolved lazily through the process-wide
  /// shared_fast_prepared() cache, so every Accelerator (and therefore every
  /// ServingPool replica) lowered from the same network holds the SAME
  /// immutable pack: pointer-equal across instances, built once. Exposed
  /// for observability and the sharing tests.
  std::shared_ptr<const FastPrepared> fast_prepared_shared() const;

 private:
  ir::LayerProgram program_;

  /// Lazily-resolved handle on the shared prepared pack. Held behind a
  /// shared_ptr so the Accelerator stays copyable/movable; copies share the
  /// resolved handle (they execute the same program).
  struct FastCache {
    std::once_flag once;
    std::shared_ptr<const FastPrepared> prepared;
  };
  mutable std::shared_ptr<FastCache> fast_cache_ = std::make_shared<FastCache>();
  const FastPrepared& fast_prepared() const;

  /// Checks shared by every run_codes_range() entry.
  void require_range(const TensorI& codes, std::size_t begin,
                     std::size_t end) const;
  /// The code-domain fast path (hw/fast_path) on one image, with scratch
  /// from `arena`.
  AccelRunResult run_fast(common::Arena& arena, const TensorI& codes,
                          std::size_t begin, std::size_t end,
                          TensorI* boundary_codes) const;
  /// The golden stepped dataflow (bit-true unit simulators).
  AccelRunResult run_stepped(WorkerState& state, const TensorI& codes,
                             std::size_t begin, std::size_t end,
                             TensorI* boundary_codes) const;
};

}  // namespace rsnn::hw
