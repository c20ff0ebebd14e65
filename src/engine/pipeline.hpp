// PipelineExecutor: pipeline-parallel execution of a partitioned program
// across multiple simulated accelerator instances.
//
// The accelerator is a layer-wise dataflow machine, so a LayerProgram cuts
// cleanly at op boundaries (ir::ProgramSegment). This executor models one
// device per segment: each stage is a persistent worker thread owning its
// own stage engine — and therefore its own pre-allocated execution state
// (the cycle-accurate stage owns an Accelerator::WorkerState) — and stages
// are connected by bounded queues carrying the activation codes that cross
// each cut. Images stream through the stages concurrently: stage 0 works on
// image i+1 while stage 1 finishes image i, as a multi-FPGA deployment of
// the paper's design would. It backs the `rsnn_cli run --pipeline` report
// and the pipelined microbench entries; serving (engine::ServingPool)
// replicates whole-program engines instead.
//
// Results are index-aligned with the submitted batch. Logits are always
// bit-identical to monolithic execution. Timing depends on the segments'
// lowering mode (ir::ProgramSegment):
//   * inherited segments — per-op stats merge to exactly the monolithic
//     cycles / adder ops / traffic (tests/test_pipeline.cpp enforces this
//     for all four engines);
//   * re-lowered segments — each worker runs its stage's own per-device
//     program, so stage cycles reflect the device-local placement and are
//     allowed (and expected) to beat the inherited plan
//     (tests/test_relower.cpp).
//
// Not reentrant: one run_pipeline() at a time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "hw/accelerator.hpp"
#include "ir/layer_program.hpp"

namespace rsnn::engine {

/// Throughput record of the most recent run_pipeline() call.
struct PipelineStats {
  std::int64_t images = 0;
  int stages = 0;
  double wall_ms = 0.0;
  double images_per_sec = 0.0;
  double ns_per_inference = 0.0;  ///< wall time / images (aggregate)
};

class PipelineExecutor {
 public:
  /// Spawns one persistent worker per segment, each constructing its own
  /// stage engine of `kind` on its own thread. `segments` must be a
  /// contiguous partition of `program` (as produced by ir::make_segments or
  /// the compiler partitioners). Adjacent stages exchange work through
  /// bounded queues of `queue_capacity` in-flight images. A stage that
  /// throws aborts the batch; the error surfaces from run_pipeline(). The
  /// program (and its network) must outlive the executor.
  PipelineExecutor(const ir::LayerProgram& program,
                   std::vector<ir::ProgramSegment> segments, EngineKind kind,
                   std::size_t queue_capacity = 4);
  ~PipelineExecutor();
  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Stream a batch of pre-encoded activation codes through the stages;
  /// results are index-aligned with `codes` and carry the merged per-op
  /// stats of every stage plus the final stage's logits.
  std::vector<hw::AccelRunResult> run_pipeline(
      const std::vector<TensorI>& codes);

  /// Encode float images (values in [0,1)) and run them.
  std::vector<hw::AccelRunResult> run_pipeline_images(
      const std::vector<TensorF>& images);

  const PipelineStats& last_stats() const { return stats_; }
  int stages() const { return static_cast<int>(segments_.size()); }
  EngineKind kind() const { return kind_; }
  const std::vector<ir::ProgramSegment>& segments() const { return segments_; }
  /// True when the stages run re-lowered per-device programs.
  bool relowered() const { return segments_.front().is_relowered(); }

 private:
  /// One image in flight between stages: its batch index, the activation
  /// codes entering the next stage, and the upstream stages' merged stats.
  struct Token {
    std::size_t index = 0;
    TensorI codes;
    hw::AccelRunResult partial;
  };

  /// Bounded SPSC queue between adjacent stages. Push blocks on a full
  /// queue, pop on an empty one; both return false once the executor aborts
  /// (batch failure or shutdown) so stages can drain promptly.
  class BoundedQueue {
   public:
    BoundedQueue(std::size_t capacity, const std::atomic<bool>* abort)
        : capacity_(capacity), abort_(abort) {}
    bool push(Token&& token);
    bool pop(Token& token);
    void clear();
    /// Wake waiters after the abort flag was set. Passes through the queue
    /// mutex first: a waiter that read abort_ == false inside its wait
    /// predicate still holds the mutex, so acquiring it here orders this
    /// notification after that waiter blocks — without it the wakeup could
    /// land in the gap and be lost, deadlocking the stage.
    void notify_abort() {
      { const std::lock_guard<std::mutex> lock(mutex_); }
      cv_.notify_all();
    }

   private:
    const std::size_t capacity_;
    const std::atomic<bool>* abort_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Token> items_;
  };

  void stage_main(std::size_t stage);
  void record_error();
  void abort_batch();

  const ir::LayerProgram& program_;
  const std::vector<ir::ProgramSegment> segments_;
  EngineKind kind_;

  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::vector<TensorI>* batch_ = nullptr;
  std::vector<hw::AccelRunResult>* results_ = nullptr;
  std::size_t active_ = 0;          ///< stages yet to finish this batch
  std::uint64_t generation_ = 0;    ///< bumped per submitted batch
  bool shutdown_ = false;
  std::exception_ptr error_;
  std::atomic<bool> abort_{false};

  std::vector<std::unique_ptr<BoundedQueue>> queues_;  ///< stage s -> s+1
  PipelineStats stats_;
  std::vector<std::thread> threads_;
};

}  // namespace rsnn::engine
