// Engine: uniform execution interface over a lowered ir::LayerProgram.
//
// Four engines run the same program and must agree bit-identically on LeNet
// (logits, cycles, adder ops, traffic — enforced by
// tests/test_equivalence_packed.cpp):
//   * cycle_accurate — the simulator's default exact mode: the code-domain
//     fast path (hw::Accelerator, SimMode::kCycleAccurate). Exact logits
//     from code-domain arithmetic; cycles and traffic from the program's
//     latency annotations, adder ops from the exact activity rule. The name
//     "analytic" parses to this engine.
//   * stepped        — the bit-true golden: the stepped dataflow on the
//     unit simulators (SimMode::kStepped), cycles counted by stepping. The
//     anchor the fast path and the latency annotations are pinned against.
//   * behavioral     — the functional radix-SNN simulator (snn::RadixSnn):
//     event-driven spikes, no dataflow stepping; timing and traffic come
//     from the program annotations.
//   * reference      — the QuantizedNetwork integer reference model walked
//     directly over the program; timing and traffic from the annotations.
//
// Engines are not thread-safe: each one owns pre-allocated execution state
// (the cycle-accurate engine owns an Accelerator::WorkerState), so create
// one per thread — each engine::ServingPool replica owns one engine, run by
// that replica's dispatcher thread.
//
// Segment scope: an engine executes one ir::ProgramSegment — by default the
// whole program, but make_engine(kind, program, segment) builds a stage
// engine over a sub-program, one simulated device of a partitioned
// deployment. run_segment() is the uniform entry point: it consumes the
// activation codes entering the segment and yields per-op stats plus either
// logits (final segment) or the boundary codes crossing the downstream cut.
// make_stage_engines() and run_stages() chain one stage engine per segment
// on the calling thread.
//
// Lifetime: an engine borrows the program (and, through it, the network);
// both must outlive the engine.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/accelerator.hpp"
#include "ir/layer_program.hpp"

namespace rsnn::engine {

enum class EngineKind { kCycleAccurate, kStepped, kBehavioral, kReference };

/// Canonical engine name: "cycle_accurate" / "stepped" / "behavioral" /
/// "reference".
const char* engine_name(EngineKind kind);

/// Parse an engine name: the canonical names, the shorthand "cycle", and
/// "analytic" (the fast path's former engine, now cycle_accurate). Throws
/// ContractViolation on unknown names.
EngineKind parse_engine(const std::string& name);

/// All four engine kinds, for parameterized tests and sweeps.
std::vector<EngineKind> all_engines();

/// What one segment-scoped run produces: the executed ops' stats, and the
/// activation codes crossing the downstream cut (empty on the final
/// segment, whose stats carry the logits instead).
struct SegmentRunResult {
  hw::AccelRunResult stats;
  TensorI boundary_codes;
};

class Engine {
 public:
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  virtual EngineKind kind() const = 0;
  const char* name() const { return engine_name(kind()); }
  const ir::LayerProgram& program() const { return program_; }
  const ir::ProgramSegment& segment() const { return segment_; }

  /// Run the activation codes entering this engine's segment through its op
  /// range (shaped as segment().in_shape).
  virtual SegmentRunResult run_segment(const TensorI& codes) = 0;

  /// Run pre-encoded activation codes through the program. Whole-program
  /// engines only (a stage engine cannot produce logits on its own).
  hw::AccelRunResult run_codes(const TensorI& codes);

  /// As run_codes(), reusing `out`'s storage. The cycle_accurate engine
  /// forwards to the zero-allocation fast path; the default delegates to
  /// run_codes().
  virtual void run_codes_into(const TensorI& codes, hw::AccelRunResult& out);

  /// Run `count` images through the engine, reusing the results' storage.
  /// The cycle_accurate engine runs them through the fast path as one batch
  /// (one prepared-weight traversal for all of them); the default loops
  /// run_codes_into(). Results are bit-identical to the sequential loop
  /// either way.
  virtual void run_codes_batched_into(const TensorI* codes, std::size_t count,
                                      hw::AccelRunResult* results);

  /// Encode a float image (values in [0,1)) and run it.
  hw::AccelRunResult run_image(const TensorF& image);

 protected:
  Engine(const ir::LayerProgram& program, ir::ProgramSegment segment)
      : program_(program), segment_(std::move(segment)) {}
  const ir::LayerProgram& program_;
  const ir::ProgramSegment segment_;
};

/// Create an engine of `kind` over a hardware-lowered program.
std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const ir::LayerProgram& program);

/// Create a stage engine of `kind` scoped to `segment` of `program`.
std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const ir::LayerProgram& program,
                                    const ir::ProgramSegment& segment);

/// One stage engine of `kind` per segment of a partition of `program` (as
/// produced by ir::make_segments or the compiler partitioners). Throws
/// ContractViolation unless the segments start at op 0, end at
/// program.size(), meet without gaps or overlaps, and are all inherited or
/// all re-lowered.
std::vector<std::unique_ptr<Engine>> make_stage_engines(
    EngineKind kind, const ir::LayerProgram& program,
    const std::vector<ir::ProgramSegment>& segments);

/// Run one image's codes through `stages` in order on the calling thread:
/// each stage's boundary codes enter the next, and the per-op stats merge
/// into one result. Logits are bit-identical to monolithic execution; with
/// inherited segments so are the cycles, adder ops and traffic, while
/// re-lowered segments report their per-device cycles.
hw::AccelRunResult run_stages(
    const std::vector<std::unique_ptr<Engine>>& stages, const TensorI& codes);

}  // namespace rsnn::engine
