// LayerProgram: the compiled intermediate representation of a converted SNN.
//
// The paper's flow is compiler-centric: an E3NE-style compiler maps the
// converted network onto the accelerator once, and every downstream consumer
// reads that one mapping. This module is that mapping. `lower(qnet)` turns
// the QLayer variant list into a vector of *typed* ops carrying everything a
// consumer needs precomputed — input/output shapes, conv/pool/linear
// geometry, requantization flags, parameter footprints — so no consumer
// re-derives layer semantics with its own `std::get_if` ladder.
// `lower(qnet, config)` additionally annotates every op with its hardware
// mapping: weight placement, group phasing, the predicted per-layer latency
// and memory traffic (the compiler's former ScheduleEntry), and the
// ping-pong buffer sizing.
//
// All variant dispatch on QLayer lives in this module (layer_program.cpp);
// consumers switch on the typed LayerOp::kind instead.
//
// Lifetime: a LayerProgram borrows the QuantizedNetwork it was lowered from
// (ops point at the network's weight tensors). The network must outlive the
// program, exactly as it must outlive an Accelerator bound to it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/arch.hpp"
#include "hw/latency_model.hpp"
#include "quant/qnetwork.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::ir {

enum class OpKind { kConv, kPool, kLinear, kFlatten };

/// Canonical lower-case op name: "conv" / "pool" / "linear" / "flatten".
/// The single copy of the layer-name helper (formerly duplicated across the
/// accelerator, the compiler schedule, and the reports).
const char* op_kind_name(OpKind kind);

/// Kind of a raw QLayer variant.
OpKind kind_of(const quant::QLayer& layer);

/// Parameter (weight + bias) storage of one layer in bits; 0 for
/// pool/flatten. Biases are stored at (time_bits + weight_bits + 16) bits.
std::int64_t layer_param_bits(const quant::QLayer& layer, int weight_bits,
                              int time_bits);

/// Shape produced by applying `layer` to an input of shape `input`.
Shape op_output_shape(const quant::QLayer& layer, const Shape& input);

/// One typed op of the lowered program. The `conv`/`pool`/`linear` pointers
/// are non-owning views into the source QuantizedNetwork; exactly the one
/// matching `kind` is non-null (all null for flatten).
struct LayerOp {
  OpKind kind = OpKind::kFlatten;
  int layer_index = 0;
  Shape in_shape;
  Shape out_shape;
  const quant::QConv2d* conv = nullptr;
  const quant::QPool2d* pool = nullptr;
  const quant::QLinear* linear = nullptr;
  bool requantize = true;        ///< false only on the raw final layer
  bool is_1d = false;            ///< output lives in the 1-D buffer pair
  std::int64_t param_bits = 0;

  // Hardware annotations, valid when lowered with an AcceleratorConfig
  // (LayerProgram::has_hw_annotations()):
  hw::WeightPlacement placement = hw::WeightPlacement::kOnChip;
  std::string unit;              ///< which unit class executes the op
  int contending_units = 1;      ///< conv units sharing the activation ports
  hw::LayerLatency latency;      ///< predicted cycles, phasing, traffic

  // Fast-path execution plan (simulator-only; never changes what is
  // counted), set by the lowering pass:
  bool fuse_with_next = false;   ///< conv op fused with the following pool

  const char* name() const { return op_kind_name(kind); }
};

/// The lowered program: typed ops plus (optionally) the hardware mapping
/// they were scheduled onto. A program may cover the whole network or — for
/// per-device pipeline compilation — a contiguous sub-range of it
/// (`lower(qnet, begin, end, config)`); ops always carry their original
/// network layer index, so sub-programs compose with the network-level
/// execution paths (forward_layers, RadixSnn::run_range).
class LayerProgram {
 public:
  LayerProgram() = default;

  const quant::QuantizedNetwork& network() const {
    RSNN_REQUIRE(qnet_ != nullptr, "empty LayerProgram");
    return *qnet_;
  }
  int time_bits() const { return network().time_bits; }
  int weight_bits() const { return network().weight_bits; }

  const std::vector<LayerOp>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }
  const LayerOp& op(std::size_t index) const { return ops_.at(index); }

  /// Network layer index of the program's first op (0 unless this is a
  /// segment-scoped sub-program).
  std::size_t network_begin() const {
    RSNN_REQUIRE(!ops_.empty(), "empty LayerProgram");
    return static_cast<std::size_t>(ops_.front().layer_index);
  }
  /// One past the network layer index of the program's last op.
  std::size_t network_end() const {
    RSNN_REQUIRE(!ops_.empty(), "empty LayerProgram");
    return static_cast<std::size_t>(ops_.back().layer_index) + 1;
  }
  /// Network layer range covered by ops [begin, end) of this program — the
  /// one place op positions translate to network layer indices (identity
  /// for whole-network programs, offset for sub-programs). Engines use this
  /// to drive the network-level execution paths (forward_layers,
  /// RadixSnn::run_range).
  std::pair<std::size_t, std::size_t> network_range(std::size_t begin,
                                                    std::size_t end) const {
    RSNN_REQUIRE(begin < end && end <= ops_.size(),
                 "op range [" << begin << ", " << end << ") outside [0, "
                              << ops_.size() << ")");
    return {static_cast<std::size_t>(ops_[begin].layer_index),
            static_cast<std::size_t>(ops_[end - 1].layer_index) + 1};
  }

  /// True when the program covers every layer of its network.
  bool whole_network() const {
    return !ops_.empty() && network_begin() == 0 &&
           network_end() == network().layers.size();
  }
  /// True when the program's entry activations live in the 1-D buffer pair
  /// (a sub-program starting downstream of the flatten transfer).
  bool entry_buffer_is_1d() const { return entry_1d_; }

  /// True when lowered against an AcceleratorConfig (placement, latency and
  /// buffer sizing are populated).
  bool has_hw_annotations() const { return has_hw_; }
  const hw::AcceleratorConfig& config() const {
    RSNN_REQUIRE(has_hw_, "program lowered without a hardware config");
    return config_;
  }
  const hw::BufferPlan& buffer_plan() const {
    RSNN_REQUIRE(has_hw_, "program lowered without a hardware config");
    return buffer_plan_;
  }

  /// True if any op streams weights from DRAM.
  bool uses_dram() const;

  /// Sum of the per-op predicted cycles (the analytic latency contract).
  std::int64_t predicted_total_cycles() const { return predicted_total_cycles_; }
  double predicted_latency_us() const;

 private:
  friend LayerProgram lower(const quant::QuantizedNetwork& qnet);
  friend LayerProgram lower(const quant::QuantizedNetwork& qnet,
                            const hw::AcceleratorConfig& config);
  friend LayerProgram lower(const quant::QuantizedNetwork& qnet,
                            std::size_t begin, std::size_t end,
                            const hw::AcceleratorConfig& config);

  const quant::QuantizedNetwork* qnet_ = nullptr;
  std::vector<LayerOp> ops_;
  bool has_hw_ = false;
  bool entry_1d_ = false;
  hw::AcceleratorConfig config_;
  hw::BufferPlan buffer_plan_;
  std::int64_t predicted_total_cycles_ = 0;
};

/// Functional lowering: typed ops, shapes, requantization, parameter
/// footprints. Enough for the behavioral/reference engines, serialization
/// and RTL weight emission.
LayerProgram lower(const quant::QuantizedNetwork& qnet);

/// Hardware lowering: validates that every op fits the configured units,
/// plans weight placement against the BRAM budget, sizes the ping-pong
/// buffers, and precomputes per-op group phasing, latency and traffic.
/// Throws if the network is not mappable onto `config`.
LayerProgram lower(const quant::QuantizedNetwork& qnet,
                   const hw::AcceleratorConfig& config);

/// Segment-scoped hardware lowering: compile only the network layers
/// [begin, end) against `config`, as if that op range were the whole model
/// running on its own device. Weight placement is planned against the
/// *segment's* parameter footprint (a stage whose parameters fit the BRAM
/// budget gets on-chip placement even when the monolithic program streams
/// from DRAM), the ping-pong buffers are sized to the segment's own feature
/// maps, and every latency annotation reflects the per-device placement.
/// The returned program's ops keep their network layer indices.
LayerProgram lower(const quant::QuantizedNetwork& qnet, std::size_t begin,
                   std::size_t end, const hw::AcceleratorConfig& config);

/// Annotate one op in place — unit assignment, group phasing, latency and
/// traffic — for the given placement on `config`. The single latency rule
/// shared by whole-program lowering, segment re-lowering and the
/// partitioner cost models.
void annotate_op(LayerOp& op, const hw::AcceleratorConfig& config,
                 int time_bits, int weight_bits,
                 hw::WeightPlacement placement);

/// One contiguous op range of a partitioned program — one device of a
/// multi-device pipeline. The accelerator is a layer-wise dataflow machine, so
/// any interior op boundary is a legal cut point; the interface crossing a
/// cut is the requantized T-bit activation-code tensor of the upstream op
/// (`in_shape` here, `out_shape` of the predecessor).
///
/// Two lowering modes (make_segments' SegmentLowering):
///   * inherited — the segment borrows the monolithic program's placement
///     and latency annotations (`relowered` stays null). Chained stage
///     execution is then bit-identical to monolithic execution including cycles.
///   * re-lowered — the segment carries its own self-contained LayerProgram
///     compiled against the device's hw::Config (`relowered` non-null):
///     placement, buffer sizing and latency are planned per device, so a
///     stage whose parameters fit its BRAM budget runs with on-chip weights
///     even when the monolithic plan streams from DRAM. Logits stay
///     bit-identical; per-stage cycles/resources are allowed (and expected)
///     to improve.
struct ProgramSegment {
  int index = 0;          ///< position of this segment in the pipeline
  std::size_t begin = 0;  ///< first op of the segment (inclusive)
  std::size_t end = 0;    ///< one past the segment's last op

  Shape in_shape;         ///< activation-code tensor entering the segment
  Shape out_shape;        ///< tensor leaving it (logits for the final segment)
  bool in_is_1d = false;  ///< entry activations live in the 1-D buffer pair
  bool final_segment = false;  ///< contains the program's last op

  // Cut interfaces in bits (numel * T of the activation-code tensor): what
  // an inter-device stream link must carry per image. `out_cut_bits` is 0 on
  // the final segment (logits leave through the host interface instead).
  std::int64_t in_cut_bits = 0;
  std::int64_t out_cut_bits = 0;

  // Aggregates over the segment's ops (valid on hardware-lowered programs;
  // computed from the re-lowered annotations when `relowered` is set):
  std::int64_t predicted_cycles = 0;   ///< sum of per-op latency annotations
  std::int64_t param_bits = 0;         ///< total parameter storage
  std::int64_t onchip_param_bits = 0;  ///< parameters placed in BRAM

  /// The segment's own per-device program (null in inherited mode). Shared
  /// so copies of the segment — and the stage engines borrowing the program
  /// — stay valid however the segment vector is moved around.
  std::shared_ptr<const LayerProgram> relowered;

  std::size_t size() const { return end - begin; }
  bool is_relowered() const { return relowered != nullptr; }
};

/// How make_segments annotates the produced segments (see ProgramSegment).
enum class SegmentLowering { kInherit, kRelower };

/// True when execution entering the program at op `begin` reads the 1-D
/// activation buffer pair (the op sits downstream of the flatten transfer).
/// The single copy of the buffer-entry rule: ProgramSegment::in_is_1d and
/// the accelerator's mid-program entry path both derive from this.
bool entry_is_1d(const LayerProgram& program, std::size_t begin);

/// Split a hardware-lowered program at the given interior op indices
/// (strictly increasing, each in (0, size())): `cuts = {3, 5}` yields the
/// segments [0,3), [3,5), [5,size()). An empty cut list yields the single
/// whole-program segment. Throws ContractViolation on invalid cuts.
/// With SegmentLowering::kRelower each segment additionally carries its own
/// per-device program (`lower(network, begin, end, config)`), and the
/// segment aggregates reflect the re-lowered placement and latency.
std::vector<ProgramSegment> make_segments(const LayerProgram& program,
                                          const std::vector<std::size_t>& cuts);
std::vector<ProgramSegment> make_segments(const LayerProgram& program,
                                          const std::vector<std::size_t>& cuts,
                                          SegmentLowering lowering);

/// Re-lower one op range of a whole-network program against its own config:
/// shorthand for lower(program.network(), begin, end, program.config()).
LayerProgram relower_range(const LayerProgram& program, std::size_t begin,
                           std::size_t end);

/// The trivial partition: one segment covering the whole program.
ProgramSegment full_segment(const LayerProgram& program);

/// Unit-geometry requirements of a network (largest kernels, widest output
/// rows) — what the compiler needs to derive a design instance.
struct GeometryRequirements {
  bool has_conv = false;
  bool has_pool = false;
  std::int64_t max_conv_kernel = 0;
  std::int64_t max_conv_out_width = 0;
  std::int64_t max_pool_kernel = 0;
  std::int64_t max_pool_out_width = 0;
};
GeometryRequirements scan_geometry(const quant::QuantizedNetwork& qnet);

/// Number of kernel offsets along one axis through which input position
/// `pos` feeds a valid output position: |{ j in [0, k) : (pos + pad - j)
/// >= 0, divisible by stride, quotient < out_extent }|. Exposed so the
/// fast path's prepared coverage tables use the exact same rule as
/// exact_adder_ops().
std::int64_t axis_coverage(std::int64_t pos, std::int64_t k, std::int64_t str,
                           std::int64_t pad, std::int64_t out_extent);

/// Exact fired-adder count of one op given its input activation codes: one
/// addition per (spike, consuming adder), the same event definition the
/// cycle-accurate units and the functional SNN count. Border spikes fan out
/// to fewer adders; this is exact, not a fan-out estimate.
std::int64_t exact_adder_ops(const LayerOp& op, const TensorI64& input_codes);

}  // namespace rsnn::ir
