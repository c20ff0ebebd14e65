#include "hw/accelerator.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/log.hpp"
#include "encoding/radix.hpp"

namespace rsnn::hw {
namespace {

ir::LayerProgram lower_checked(const quant::QuantizedNetwork& qnet,
                               const AcceleratorConfig& config) {
  RSNN_REQUIRE(!qnet.layers.empty(), "empty network");
  return ir::lower(qnet, config);
}

}  // namespace

Accelerator::WorkerState::WorkerState(const ir::LayerProgram& program)
    : owner(&program),
      conv_unit(program.config().conv, program.config().timing),
      pool_unit(program.config().pool, program.config().timing),
      linear_unit(program.config().linear, program.config().timing),
      buffer2d("act2d", program.buffer_plan().buffer2d_bits_each),
      buffer1d("act1d", program.buffer_plan().buffer1d_bits_each) {
  layer_out.reserve(program.size());
  for (const ir::LayerOp& op : program.ops())
    layer_out.push_back(op.kind == ir::OpKind::kFlatten ? TensorI64()
                                                        : TensorI64(op.out_shape));
}

Accelerator::Accelerator(AcceleratorConfig config,
                         const quant::QuantizedNetwork& qnet)
    : program_(lower_checked(qnet, config)) {}

Accelerator::Accelerator(ir::LayerProgram program)
    : program_(std::move(program)) {
  RSNN_REQUIRE(program_.has_hw_annotations(),
               "Accelerator needs a hardware-lowered program");
  RSNN_REQUIRE(!program_.ops().empty(), "empty network");
}

AccelRunResult Accelerator::run_image(const TensorF& image, SimMode mode) const {
  return run_codes(quant::encode_activations(image, program_.time_bits()), mode);
}

AccelRunResult Accelerator::run_codes(const TensorI& codes, SimMode mode) const {
  return run_codes_range(codes, 0, program_.size(), mode);
}

AccelRunResult Accelerator::run_codes(WorkerState& state, const TensorI& codes,
                                      SimMode mode) const {
  return run_codes_range(state, codes, 0, program_.size(), mode);
}

void Accelerator::require_range(const TensorI& codes, std::size_t begin,
                                std::size_t end) const {
  RSNN_REQUIRE(begin < end && end <= program_.size(),
               "op range [" << begin << ", " << end << ") outside [0, "
                            << program_.size() << ")");
  RSNN_REQUIRE(codes.shape() == program_.op(begin).in_shape,
               "input shape mismatch for op " << begin);
}

AccelRunResult Accelerator::run_codes_range(WorkerState& state,
                                            const TensorI& codes,
                                            std::size_t begin, std::size_t end,
                                            SimMode mode,
                                            TensorI* boundary_codes) const {
  RSNN_REQUIRE(state.owner == &program_,
               "WorkerState belongs to a different accelerator (create it "
               "with this accelerator's make_worker_state())");
  require_range(codes, begin, end);
  return mode == SimMode::kStepped
             ? run_stepped(state, codes, begin, end, boundary_codes)
             : run_fast(state.fast_arena, codes, begin, end, boundary_codes);
}

AccelRunResult Accelerator::run_codes_range(const TensorI& codes,
                                            std::size_t begin, std::size_t end,
                                            SimMode mode,
                                            TensorI* boundary_codes) const {
  if (mode == SimMode::kStepped) {
    WorkerState state = make_worker_state();
    return run_codes_range(state, codes, begin, end, mode, boundary_codes);
  }
  // The fast path needs only activation scratch, not the unit simulators.
  require_range(codes, begin, end);
  common::Arena arena;
  return run_fast(arena, codes, begin, end, boundary_codes);
}

void Accelerator::run_codes_into(WorkerState& state, const TensorI& codes,
                                 AccelRunResult& out, SimMode mode) const {
  run_codes_batched_into(state, &codes, 1, &out, mode);
}

void Accelerator::run_codes_batched_into(WorkerState& state,
                                         const TensorI* codes,
                                         std::size_t batch,
                                         AccelRunResult* results,
                                         SimMode mode) const {
  if (batch == 0) return;
  if (mode == SimMode::kStepped) {
    for (std::size_t b = 0; b < batch; ++b)
      results[b] = run_codes(state, codes[b], mode);
    return;
  }
  RSNN_REQUIRE(state.owner == &program_,
               "WorkerState belongs to a different accelerator (create it "
               "with this accelerator's make_worker_state())");
  for (std::size_t b = 0; b < batch; ++b) {
    RSNN_REQUIRE(codes[b].shape() == program_.op(0).in_shape,
                 "input shape mismatch for op 0 (batch element " << b << ")");
    reset_run_result(results[b]);
  }
  run_fast_path(program_, fast_prepared(), state.fast_arena, codes, batch, 0,
                program_.size(), nullptr, results);
}

const FastPrepared& Accelerator::fast_prepared() const {
  FastCache& cache = *fast_cache_;
  std::call_once(cache.once,
                 [&] { cache.prepared = shared_fast_prepared(program_); });
  return *cache.prepared;
}

std::shared_ptr<const FastPrepared> Accelerator::fast_prepared_shared() const {
  fast_prepared();  // resolve through the process-wide cache
  return fast_cache_->prepared;
}

AccelRunResult Accelerator::run_fast(common::Arena& arena, const TensorI& codes,
                                     std::size_t begin, std::size_t end,
                                     TensorI* boundary_codes) const {
  AccelRunResult result;
  run_fast_path(program_, fast_prepared(), arena, &codes, 1, begin, end,
                boundary_codes, &result);
  return result;
}

AccelRunResult Accelerator::run_stepped(WorkerState& state,
                                        const TensorI& codes,
                                        std::size_t begin, std::size_t end,
                                        TensorI* boundary_codes) const {
  const int T = program_.time_bits();
  const AcceleratorConfig& cfg = program_.config();
  AccelRunResult result;
  result.layers.reserve(end - begin);

  state.buffer2d.reset();
  state.buffer1d.reset();
  WeightMemory weights(cfg.memory);

  encoding::SpikeTrain* current = &state.train_a;
  encoding::SpikeTrain* next = &state.train_b;
  encoding::radix_encode_codes_into(codes, T, *current);
  // Mid-program entry (a pipeline stage downstream of the flatten) lands in
  // the 1-D buffer pair; everything else starts in the 2-D pair.
  PingPongPair& entry_pair =
      ir::entry_is_1d(program_, begin) ? state.buffer1d : state.buffer2d;
  entry_pair.store_output(activation_bits(current->neuron_shape(), T));
  entry_pair.swap();

  const std::size_t n_layers = program_.network().layers.size();
  for (std::size_t li = begin; li < end; ++li) {
    const ir::LayerOp& op = program_.op(li);
    // The program may be a segment-scoped sub-program, so "final" means the
    // network's last layer (the raw-logit layer), not the last op executed.
    const bool network_final =
        static_cast<std::size_t>(op.layer_index) + 1 == n_layers;
    LayerStats stats;
    stats.name = op.name();
    stats.input_spikes = current->total_spikes();

    const WeightFetchCost fetch = weights.fetch_layer(op.param_bits, op.placement);
    stats.dram_cycles = fetch.cycles;
    stats.traffic.dram_bits = fetch.dram_bits;

    TensorI64& out = state.layer_out[li];

    switch (op.kind) {
      case ir::OpKind::kConv: {
        const quant::QConv2d& conv = *op.conv;
        const std::int64_t share = op.latency.channels_per_unit;
        const std::int64_t per_group = share * cfg.num_conv_units;
        // Only units that hold channels contend on the activation port (must
        // match the analytic model's contention rule).
        const int contending_units = op.contending_units;
        std::int64_t cycles = cfg.timing.layer_setup_cycles;
        std::int64_t writeback = 0;
        for (std::int64_t base = 0; base < conv.out_channels;
             base += per_group) {
          std::int64_t group_cycles = 0;
          for (int u = 0; u < cfg.num_conv_units; ++u) {
            const std::int64_t oc_begin = base + u * share;
            if (oc_begin >= conv.out_channels) break;
            const std::int64_t oc_end =
                std::min(oc_begin + share, conv.out_channels);
            const ConvSliceResult slice = state.conv_unit.run_layer_slice(
                conv, *current, oc_begin, oc_end, T, contending_units, out);
            group_cycles = std::max(group_cycles, slice.cycles);
            writeback += slice.writeback_cycles;
            stats.adder_ops += slice.adder_ops;
            stats.traffic.act_read_bits += slice.traffic.act_read_bits;
            stats.traffic.act_write_bits += slice.traffic.act_write_bits;
            stats.traffic.weight_read_bits +=
                slice.traffic.weight_read_bits * program_.weight_bits();
          }
          cycles += group_cycles;
        }
        stats.cycles = fetch.cycles + cycles + writeback;
        break;
      }
      case ir::OpKind::kPool: {
        const std::int64_t channels = op.in_shape.dim(0);
        const std::int64_t share = op.latency.channels_per_unit;
        std::int64_t cycles = cfg.timing.layer_setup_cycles;
        std::int64_t writeback = 0;
        for (std::int64_t base = 0; base < channels; base += share) {
          const std::int64_t c_end = std::min(base + share, channels);
          const PoolSliceResult slice = state.pool_unit.run_layer_slice(
              *op.pool, *current, base, c_end, T, out);
          cycles += slice.cycles;
          writeback += slice.writeback_cycles;
          stats.adder_ops += slice.adder_ops;
          stats.traffic.act_read_bits += slice.traffic.act_read_bits;
          stats.traffic.act_write_bits += slice.traffic.act_write_bits;
        }
        stats.cycles = cycles + writeback;
        break;
      }
      case ir::OpKind::kLinear: {
        const LinearRunResult run =
            state.linear_unit.run_layer(*op.linear, *current, T, out);
        stats.cycles = fetch.cycles + cfg.timing.layer_setup_cycles +
                       run.cycles + run.writeback_cycles;
        stats.adder_ops = run.adder_ops;
        stats.traffic.act_read_bits = run.traffic.act_read_bits;
        stats.traffic.act_write_bits = run.traffic.act_write_bits;
        stats.traffic.weight_read_bits =
            run.traffic.weight_read_bits * program_.weight_bits();
        break;
      }
      case ir::OpKind::kFlatten: {
        // Flatten: stream the feature map from the 2-D to the 1-D buffers.
        // The packed layout depends only on the flat neuron index, so the
        // transfer is a relabeling of the same bits.
        stats.cycles = op.latency.total_cycles;
        *current = std::move(*current).reshaped(op.out_shape);
        state.buffer1d.store_output(activation_bits(op.out_shape, T));
        state.buffer1d.swap();
        result.layers.push_back(stats);
        result.total_cycles += stats.cycles;
        if (li + 1 == end && boundary_codes != nullptr)
          *boundary_codes = encoding::radix_decode_codes(*current);
        continue;
      }
    }

    // Buffer bookkeeping for the layer's I/O.
    PingPongPair& pair = op.is_1d ? state.buffer1d : state.buffer2d;
    pair.load_input(stats.traffic.act_read_bits);
    pair.store_output(activation_bits(op.out_shape, T));
    pair.swap();

    if (network_final) {
      RSNN_ENSURE(!op.requantize, "final layer must produce raw accumulators");
      result.logits = out.to_vector();
    } else {
      RSNN_ENSURE(op.requantize,
                  "only the final layer may skip requantization");
      if (li + 1 == end) {
        // Segment boundary: the requantized codes cross the cut instead of
        // being re-encoded for a next op on this device.
        if (boundary_codes != nullptr)
          *boundary_codes = out.cast<std::int32_t>();
      } else {
        encoding::radix_encode_codes_into(out, T, *next);
        std::swap(current, next);
      }
    }

    result.total_cycles += stats.cycles;
    result.total_adder_ops += stats.adder_ops;
    result.dram_bits += stats.traffic.dram_bits;
    result.traffic_total.act_read_bits += stats.traffic.act_read_bits;
    result.traffic_total.act_write_bits += stats.traffic.act_write_bits;
    result.traffic_total.weight_read_bits += stats.traffic.weight_read_bits;
    result.traffic_total.dram_bits += stats.traffic.dram_bits;
    result.layers.push_back(std::move(stats));
  }

  finalize_run(result, cfg.cycle_ns());
  return result;
}

}  // namespace rsnn::hw
