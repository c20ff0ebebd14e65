// Program partitioning: choose the cut points that split a lowered
// LayerProgram into ir::ProgramSegments, one per accelerator instance of a
// multi-device pipeline. The CLI reports the modeled stages and runs them as
// stage engines chained on one thread (engine::make_stage_engines).
//
// Two strategies:
//   * balance_latency — equalize predicted per-segment cycles. The pipeline's
//     steady-state throughput is bounded by its slowest stage, so the
//     partitioner minimizes the bottleneck: it picks, among all ways to cut
//     the program into N contiguous segments, one whose maximum segment
//     latency is smallest. Exact dynamic program — op counts are tiny
//     (LeNet 8, VGG-11 17).
//   * fit_resources — pack ops greedily into the fewest segments that fit a
//     per-device resource budget, so each pipeline device can hold its
//     stage's weights on chip. An op that alone exceeds the on-chip weight
//     budget gets its own segment (that device streams from DRAM, the
//     monolithic VGG-11 policy).
//
// Each strategy exists in two forms:
//   * the legacy two/three-argument entry points partition by the monolithic
//     program's annotations (inherited-mode segments, bit-identical cycles —
//     what the PR 3 equivalence tests pin down);
//   * the PartitionOptions overloads use the *per-device cost model*:
//     segment latencies are re-lowered against the device config (so a stage
//     whose weights fit its own BRAM is costed with on-chip latency),
//     balance_latency adds a cut-tensor bits/sec communication term for the
//     inter-device stream links, and fit_resources evaluates the full
//     per-device resource estimate — activation ping-pong buffers and the
//     DRAM subsystem folded in, not just parameter bits. These produce
//     re-lowered segments (ir::SegmentLowering::kRelower).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/layer_program.hpp"

namespace rsnn::compiler {

enum class PartitionStrategy { kBalanceLatency, kFitResources };

/// Canonical strategy name: "balance_latency" / "fit_resources".
const char* partition_name(PartitionStrategy strategy);

/// Parse a strategy name (plus the shorthands "balance" and "fit"); throws
/// ContractViolation on unknown names.
PartitionStrategy parse_partition(const std::string& name);

/// Friendly one-line diagnostic for a strategy name the CLI cannot parse;
/// empty when `name` is valid. Lets front ends reject bad input without
/// surfacing a contract-violation stack.
std::string partition_parse_error(const std::string& name);

/// Friendly one-line diagnostic for an invalid pipeline stage request
/// (`stages` outside [1, program.size()]); empty when the request is valid.
std::string pipeline_request_error(const ir::LayerProgram& program,
                                   int stages);

/// One-stop validation of a CLI pipeline request: parses `stages_text` as an
/// integer and checks it against the program, then checks the partition
/// strategy name. On success returns empty and stores the stage count in
/// `*stages`; otherwise returns the first friendly one-line diagnostic
/// (never throws — front ends print it and exit). The single copy of the
/// validation every front end (rsnn_cli run / emit-rtl, examples) shares.
std::string validate_pipeline_request(const ir::LayerProgram& program,
                                      const std::string& stages_text,
                                      const std::string& partition_name,
                                      int* stages);

/// Per-device cost model for the communication-aware, re-lowering
/// partitioner entry points.
struct PartitionOptions {
  /// Emit re-lowered segments (each carrying its own per-device program).
  /// When false the cost model still re-lowers internally for costing, but
  /// the returned segments inherit the monolithic annotations.
  bool relower = true;
  /// Inter-device stream link width: bits of cut-tensor activations a stage
  /// can send/receive per cycle (the communication term's denominator).
  std::int64_t link_bits_per_cycle = 64;
  /// Fixed per-image handshake cost of one inter-device transfer.
  std::int64_t link_setup_cycles = 32;
  /// fit_resources: per-device BRAM budget in bits (on-chip parameters plus
  /// both activation ping-pong pairs). 0 derives it from the program config:
  /// weight_bram_bits + the monolithic activation-buffer BRAM.
  std::int64_t device_bram_bits = 0;
  /// fit_resources: per-device LUT cap (0 = unconstrained). Streaming stages
  /// pay the DRAM subsystem's LUTs against this cap.
  std::int64_t device_luts = 0;
  /// fit_resources: maximum devices available (0 = unlimited). When the
  /// smallest feasible packing needs more, the partitioner throws an error
  /// naming that count.
  int max_devices = 0;
};

/// The measured serving-overhead factor of a serving window: each of
/// `completed` served images consumed one successful dispatch, each of
/// `retries` re-queued a full image of replica work (inference is pure, so
/// a retry recomputes the image), and each of `stalls` held a replica for
/// roughly one extra image — so the fleet delivered `completed` images for
/// (completed + retries + stalls) images of occupancy. Returns 1.0 for an
/// empty window; throws ContractViolation on negative counters.
double expected_attempts_per_image(std::int64_t completed,
                                   std::int64_t retries, std::int64_t stalls);

/// Cut `program` into exactly `num_segments` contiguous segments minimizing
/// the maximum per-segment predicted cycles (the pipeline bottleneck) of the
/// monolithic annotations. Requires 1 <= num_segments <= program.size().
/// Produces inherited-mode segments (bit-identical to monolithic execution).
std::vector<ir::ProgramSegment> partition_balance_latency(
    const ir::LayerProgram& program, int num_segments);

/// Communication-aware bottleneck partition: segment cost is its *re-lowered*
/// per-device latency (on-chip placement wherever the stage's parameters fit
/// the device BRAM budget) plus the cycles to stream the stage's entry and
/// exit cut tensors across the inter-device links. Minimizes the maximum
/// stage cost over all ways to cut into `num_segments` contiguous segments.
std::vector<ir::ProgramSegment> partition_balance_latency(
    const ir::LayerProgram& program, int num_segments,
    const PartitionOptions& options);

/// Pack ops into the fewest contiguous segments whose total parameter
/// storage stays within `device_weight_bram_bits` per device; a single op
/// larger than the budget becomes its own (DRAM-streaming) segment.
/// Produces inherited-mode segments.
std::vector<ir::ProgramSegment> partition_fit_resources(
    const ir::LayerProgram& program, std::int64_t device_weight_bram_bits);

/// Resource-model packing: pack ops into the fewest contiguous segments
/// whose *full per-device estimate* — on-chip parameters, both activation
/// ping-pong pairs, and the DRAM subsystem when the stage streams — fits the
/// per-device budget (options.device_bram_bits / device_luts). Multi-op
/// segments must hold their weights on chip; an op that cannot go on chip
/// alone becomes a singleton streaming segment. Throws with the smallest
/// feasible device count when options.max_devices is too small, and with the
/// offending op when no device count is feasible.
std::vector<ir::ProgramSegment> partition_fit_resources(
    const ir::LayerProgram& program, const PartitionOptions& options);

/// Strategy dispatch (legacy, inherited-mode): balance_latency cuts into
/// `num_segments`; fit_resources packs under the program's own memory budget
/// (program.config().memory.weight_bram_bits) and ignores `num_segments`.
std::vector<ir::ProgramSegment> partition_program(
    const ir::LayerProgram& program, PartitionStrategy strategy,
    int num_segments);

/// Strategy dispatch with the per-device cost model: balance_latency cuts
/// into `num_segments`; fit_resources treats `num_segments` (when > 0) as
/// the available device count (options.max_devices).
std::vector<ir::ProgramSegment> partition_program(
    const ir::LayerProgram& program, PartitionStrategy strategy,
    int num_segments, const PartitionOptions& options);

}  // namespace rsnn::compiler
