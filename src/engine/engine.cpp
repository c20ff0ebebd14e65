#include "engine/engine.hpp"

#include <bit>

#include "common/assert.hpp"
#include "encoding/radix.hpp"
#include "snn/radix_snn.hpp"

namespace rsnn::engine {
namespace {

std::int64_t code_spikes(const TensorI64& codes) {
  std::int64_t spikes = 0;
  const std::int64_t* data = codes.data();
  for (std::int64_t i = 0; i < codes.numel(); ++i)
    spikes += std::popcount(static_cast<std::uint64_t>(data[i]));
  return spikes;
}

/// Per-op stats from the program's precomputed timing annotations plus the
/// exact event-driven activity for the op's actual input codes.
hw::LayerStats predicted_stats(const ir::LayerOp& op,
                               const TensorI64& input_codes) {
  hw::LayerStats stats;
  stats.name = op.name();
  stats.cycles = op.latency.total_cycles;
  stats.dram_cycles = op.latency.dram_cycles;
  stats.traffic = op.latency.traffic;
  stats.input_spikes = code_spikes(input_codes);
  stats.adder_ops = ir::exact_adder_ops(op, input_codes);
  return stats;
}

void accumulate(hw::AccelRunResult& result, hw::LayerStats stats) {
  result.total_cycles += stats.cycles;
  result.total_adder_ops += stats.adder_ops;
  result.dram_bits += stats.traffic.dram_bits;
  result.traffic_total.act_read_bits += stats.traffic.act_read_bits;
  result.traffic_total.act_write_bits += stats.traffic.act_write_bits;
  result.traffic_total.weight_read_bits += stats.traffic.weight_read_bits;
  result.traffic_total.dram_bits += stats.traffic.dram_bits;
  result.layers.push_back(std::move(stats));
}

/// The exact accelerator-backed engines: cycle_accurate (the fast path) and
/// stepped (the golden stepped dataflow) are the same machinery under
/// different SimModes.
class AcceleratorEngine final : public Engine {
 public:
  AcceleratorEngine(const ir::LayerProgram& program, ir::ProgramSegment segment,
                    EngineKind kind, hw::SimMode mode)
      : Engine(program, std::move(segment)),
        kind_(kind),
        mode_(mode),
        accel_(program),
        state_(accel_.make_worker_state()) {}
  EngineKind kind() const override { return kind_; }
  SegmentRunResult run_segment(const TensorI& codes) override {
    SegmentRunResult out;
    out.stats = accel_.run_codes_range(state_, codes, segment_.begin,
                                       segment_.end, mode_,
                                       &out.boundary_codes);
    return out;
  }
  void run_codes_into(const TensorI& codes, hw::AccelRunResult& out) override {
    RSNN_REQUIRE(program_.whole_network() && segment_.begin == 0 &&
                     segment_.final_segment,
                 "run_codes_into needs a whole-program engine");
    accel_.run_codes_into(state_, codes, out, mode_);
  }
  void run_codes_batched_into(const TensorI* codes, std::size_t count,
                              hw::AccelRunResult* results) override {
    RSNN_REQUIRE(program_.whole_network() && segment_.begin == 0 &&
                     segment_.final_segment,
                 "run_codes_batched_into needs a whole-program engine");
    accel_.run_codes_batched_into(state_, codes, count, results, mode_);
  }

 private:
  const EngineKind kind_;
  const hw::SimMode mode_;
  hw::Accelerator accel_;
  hw::Accelerator::WorkerState state_;
};

/// The functional radix-SNN simulator: logits from event-driven spike
/// processing; timing and traffic from the program annotations.
class BehavioralEngine final : public Engine {
 public:
  BehavioralEngine(const ir::LayerProgram& program, ir::ProgramSegment segment)
      : Engine(program, std::move(segment)), snn_(program.network()) {}
  EngineKind kind() const override { return EngineKind::kBehavioral; }

  SegmentRunResult run_segment(const TensorI& codes) override {
    const int T = program_.time_bits();
    const encoding::SpikeTrain input = encoding::radix_encode_codes(codes, T);
    // The functional simulator walks the *network's* whole-model program, so
    // translate this engine's op range into network layer indices (they
    // differ when this is a re-lowered stage engine over a sub-program).
    const auto [net_begin, net_end] =
        program_.network_range(segment_.begin, segment_.end);
    const snn::RadixSnnResult fn =
        snn_.run_range(input, net_begin, net_end,
                       /*record_layer_spikes=*/true);

    SegmentRunResult out;
    hw::AccelRunResult& result = out.stats;
    result.logits = fn.logits;
    result.layers.reserve(segment_.size());
    TensorI64 current = codes.cast<std::int64_t>();
    for (std::size_t li = segment_.begin; li < segment_.end; ++li) {
      accumulate(result, predicted_stats(program_.op(li), current));
      if (li - segment_.begin < fn.layer_spikes.size())
        current =
            encoding::radix_decode_codes(fn.layer_spikes[li - segment_.begin])
                .cast<std::int64_t>();
    }
    if (!segment_.final_segment) {
      RSNN_ENSURE(!fn.layer_spikes.empty(), "interior segment records spikes");
      out.boundary_codes = encoding::radix_decode_codes(fn.layer_spikes.back());
    }
    hw::finalize_run(result, program_.config().cycle_ns());
    return out;
  }

 private:
  snn::RadixSnn snn_;
};

/// The QuantizedNetwork integer reference model walked over the program.
class ReferenceEngine final : public Engine {
 public:
  ReferenceEngine(const ir::LayerProgram& program, ir::ProgramSegment segment)
      : Engine(program, std::move(segment)) {}
  EngineKind kind() const override { return EngineKind::kReference; }

  SegmentRunResult run_segment(const TensorI& codes) override {
    SegmentRunResult out;
    hw::AccelRunResult& result = out.stats;
    std::vector<TensorI64> layer_outputs;
    const auto [net_begin, net_end] =
        program_.network_range(segment_.begin, segment_.end);
    const TensorI64 final_out = program_.network().forward_layers(
        codes.cast<std::int64_t>(), net_begin, net_end, &layer_outputs);
    if (segment_.final_segment) {
      result.logits = final_out.to_vector();
    } else {
      out.boundary_codes = final_out.cast<std::int32_t>();
    }
    result.layers.reserve(segment_.size());
    const TensorI64 input_codes = codes.cast<std::int64_t>();
    const TensorI64* current = &input_codes;
    for (std::size_t li = segment_.begin; li < segment_.end; ++li) {
      accumulate(result, predicted_stats(program_.op(li), *current));
      if (li - segment_.begin < layer_outputs.size())
        current = &layer_outputs[li - segment_.begin];
    }
    hw::finalize_run(result, program_.config().cycle_ns());
    return out;
  }
};

}  // namespace

const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCycleAccurate:
      return "cycle_accurate";
    case EngineKind::kStepped:
      return "stepped";
    case EngineKind::kBehavioral:
      return "behavioral";
    case EngineKind::kReference:
      return "reference";
  }
  return "unknown";
}

EngineKind parse_engine(const std::string& name) {
  if (name == "cycle_accurate" || name == "cycle" || name == "analytic")
    return EngineKind::kCycleAccurate;
  if (name == "stepped") return EngineKind::kStepped;
  if (name == "behavioral") return EngineKind::kBehavioral;
  if (name == "reference") return EngineKind::kReference;
  RSNN_REQUIRE(false, "unknown engine '"
                          << name
                          << "' (expected cycle_accurate, stepped, "
                             "behavioral or reference)");
  return EngineKind::kCycleAccurate;  // unreachable
}

std::vector<EngineKind> all_engines() {
  return {EngineKind::kCycleAccurate, EngineKind::kStepped,
          EngineKind::kBehavioral, EngineKind::kReference};
}

hw::AccelRunResult Engine::run_codes(const TensorI& codes) {
  RSNN_REQUIRE(program_.whole_network() && segment_.begin == 0 &&
                   segment_.final_segment,
               "run_codes needs a whole-program engine; stage engines run "
               "through run_segment()");
  return run_segment(codes).stats;
}

hw::AccelRunResult Engine::run_image(const TensorF& image) {
  return run_codes(quant::encode_activations(image, program_.time_bits()));
}

void Engine::run_codes_into(const TensorI& codes, hw::AccelRunResult& out) {
  out = run_codes(codes);
}

void Engine::run_codes_batched_into(const TensorI* codes, std::size_t count,
                                    hw::AccelRunResult* results) {
  for (std::size_t i = 0; i < count; ++i)
    run_codes_into(codes[i], results[i]);
}

std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const ir::LayerProgram& program) {
  return make_engine(kind, program, ir::full_segment(program));
}

std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const ir::LayerProgram& program,
                                    const ir::ProgramSegment& segment) {
  RSNN_REQUIRE(program.has_hw_annotations(),
               "engines need a hardware-lowered program");
  RSNN_REQUIRE(segment.begin < segment.end && segment.end <= program.size(),
               "segment op range [" << segment.begin << ", " << segment.end
                                    << ") outside the program");
  const ir::LayerProgram* exec_program = &program;
  ir::ProgramSegment exec_segment = segment;
  if (segment.relowered != nullptr) {
    // Re-lowered stage: the engine executes the segment's own per-device
    // program instead of a slice of the monolithic one. Translate the op
    // range into the sub-program's local coordinates; the segment copy held
    // by the engine keeps the shared program alive.
    const ir::LayerProgram& local = *segment.relowered;
    RSNN_REQUIRE(local.size() == segment.size() &&
                     local.network_begin() == segment.begin &&
                     &local.network() == &program.network(),
                 "re-lowered program does not match segment ops ["
                     << segment.begin << ", " << segment.end << ")");
    exec_program = &local;
    exec_segment.begin = 0;
    exec_segment.end = local.size();
  }
  switch (kind) {
    case EngineKind::kCycleAccurate:
      return std::make_unique<AcceleratorEngine>(*exec_program,
                                                 std::move(exec_segment), kind,
                                                 hw::SimMode::kCycleAccurate);
    case EngineKind::kStepped:
      return std::make_unique<AcceleratorEngine>(*exec_program,
                                                 std::move(exec_segment), kind,
                                                 hw::SimMode::kStepped);
    case EngineKind::kBehavioral:
      return std::make_unique<BehavioralEngine>(*exec_program,
                                                std::move(exec_segment));
    case EngineKind::kReference:
      return std::make_unique<ReferenceEngine>(*exec_program,
                                               std::move(exec_segment));
  }
  RSNN_REQUIRE(false, "unknown engine kind");
  return nullptr;  // unreachable
}

std::vector<std::unique_ptr<Engine>> make_stage_engines(
    EngineKind kind, const ir::LayerProgram& program,
    const std::vector<ir::ProgramSegment>& segments) {
  RSNN_REQUIRE(!segments.empty(), "a partition needs at least one segment");
  RSNN_REQUIRE(segments.front().begin == 0 &&
                   segments.back().end == program.size(),
               "segments must cover the whole program (ops [0, "
                   << program.size() << "))");
  for (std::size_t s = 0; s + 1 < segments.size(); ++s)
    RSNN_REQUIRE(segments[s].end == segments[s + 1].begin,
                 "segments must be contiguous (segment " << s << " ends at "
                     << segments[s].end << ", segment " << s + 1
                     << " begins at " << segments[s + 1].begin << ")");
  for (std::size_t s = 0; s < segments.size(); ++s)
    RSNN_REQUIRE(segments[s].is_relowered() == segments.front().is_relowered(),
                 "segments mix inherited and re-lowered annotations (segment "
                     << s << " differs from segment 0)");
  std::vector<std::unique_ptr<Engine>> stages;
  stages.reserve(segments.size());
  for (const ir::ProgramSegment& segment : segments)
    stages.push_back(make_engine(kind, program, segment));
  return stages;
}

hw::AccelRunResult run_stages(
    const std::vector<std::unique_ptr<Engine>>& stages, const TensorI& codes) {
  RSNN_REQUIRE(!stages.empty(), "no stage engines to run");
  hw::AccelRunResult result;
  TensorI boundary;
  const TensorI* input = &codes;
  for (const std::unique_ptr<Engine>& stage : stages) {
    SegmentRunResult out = stage->run_segment(*input);
    hw::merge_segment_result(result, std::move(out.stats));
    boundary = std::move(out.boundary_codes);
    input = &boundary;
  }
  hw::finalize_run(result, stages.back()->program().config().cycle_ns());
  return result;
}

}  // namespace rsnn::engine
