// Property sweep: a seeded differential fuzzer over the supported config
// space. Each case draws a random multi-layer network (conv kernels 1-7,
// strides 1-3, padding, 1-40 channels, pools, flatten, linears), quantizes it
// at T 1-16 and weight_bits 2-8, pins a few weights to the extremes of their
// width, and runs all-zero, all-(2^T - 1) and random codes through every
// engine. Checked per case:
//   (1) radix SNN == quantized reference (bit-exact);
//   (2) the cycle-accurate fast path == the stepped dataflow, per layer on
//       logits, cycles, adder ops, spikes and traffic; the behavioral and
//       reference engines agree on logits;
//   (4) analytic cycle count == stepped cycle count;
//   batched runs (B = 1 and 3) == single runs, a random segment cut == the
//   whole program, forced-scalar dispatch == vector dispatch;
// plus serialization round-trips and unit-count invariance (3).
// A failing case prints its seed and config on one line (the SCOPED_TRACE).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "common/simd.hpp"
#include "encoding/radix.hpp"
#include "engine/engine.hpp"
#include "hw/accelerator.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pool2d.hpp"
#include "quant/qserialize.hpp"
#include "quant/quantize.hpp"
#include "snn/radix_snn.hpp"
#include "test_helpers.hpp"

namespace rsnn {
namespace {

using rsnn::testing::expect_bit_identical;

/// Randomized network: 0-2 conv blocks (each optionally pooled), flatten,
/// an optional hidden linear and the output linear. Sizes stay small enough
/// for the stepped dataflow at T = 16. `config` receives the one-line
/// description a failing case prints.
nn::Network random_architecture(Rng& rng, std::string* config) {
  const std::int64_t cin = rng.next_int(1, 40);
  std::int64_t size = rng.next_int(4, 12);
  nn::Network net(Shape{cin, size, size});
  *config = "input " + std::to_string(cin) + "x" + std::to_string(size) +
            "x" + std::to_string(size);

  std::int64_t channels = cin;
  const int blocks = rng.next_int(0, 2);
  for (int b = 0; b < blocks; ++b) {
    const std::int64_t kernel = rng.next_int(1, 7);
    const std::int64_t padding = rng.next_int(0, static_cast<int>(kernel / 2));
    if (size + 2 * padding < kernel) break;
    const std::int64_t stride = rng.next_int(1, 3);
    const std::int64_t cout = rng.next_int(1, 40);
    net.add<nn::Conv2d>(
        nn::Conv2dConfig{channels, cout, kernel, stride, padding});
    net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
    size = (size + 2 * padding - kernel) / stride + 1;
    *config += " conv(" + std::to_string(channels) + "->" +
               std::to_string(cout) + ",k" + std::to_string(kernel) + ",s" +
               std::to_string(stride) + ",p" + std::to_string(padding) + ")";
    channels = cout;
    // The stepped pooling unit takes only inputs its kernel divides.
    if (size % 2 == 0 && rng.next_bool(0.6)) {
      net.add<nn::Pool2d>(nn::Pool2dConfig{2});
      size /= 2;
      *config += " pool2";
    }
  }
  net.add<nn::Flatten>();
  std::int64_t features = channels * size * size;
  *config += " flatten";
  if (rng.next_bool(0.5)) {
    const std::int64_t hidden = rng.next_int(1, 40);
    net.add<nn::Linear>(nn::LinearConfig{features, hidden});
    net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
    *config += " linear(" + std::to_string(features) + "->" +
               std::to_string(hidden) + ")";
    features = hidden;
  }
  const std::int64_t classes = rng.next_int(1, 10);
  net.add<nn::Linear>(nn::LinearConfig{features, classes});
  *config += " linear(" + std::to_string(features) + "->" +
             std::to_string(classes) + ")";
  net.init_params(rng);
  for (nn::Param* p : net.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  return net;
}

/// Pin a few weights of every conv and linear layer to +-(2^(wb-1) - 1),
/// the extremes of the quantizer's weight range.
void pin_extreme_weights(quant::QuantizedNetwork& qnet, Rng& rng) {
  const std::int32_t extreme = (std::int32_t{1} << (qnet.weight_bits - 1)) - 1;
  const auto pin = [&](TensorI& weight) {
    for (int i = 0; i < 4; ++i) {
      const auto at = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint64_t>(weight.numel())));
      weight.at_flat(at) = i % 2 == 0 ? extreme : -extreme;
    }
  };
  for (quant::QLayer& layer : qnet.layers) {
    if (auto* conv = std::get_if<quant::QConv2d>(&layer)) pin(conv->weight);
    if (auto* fc = std::get_if<quant::QLinear>(&layer)) pin(fc->weight);
  }
}

hw::AcceleratorConfig random_config(Rng& rng) {
  hw::AcceleratorConfig cfg;
  cfg.num_conv_units = 1 << rng.next_int(0, 2);
  // Y = 7 fits every drawn kernel; X from 4 upward forces row tiling.
  cfg.conv = hw::ConvUnitGeometry{rng.next_int(4, 20), 7, 24};
  cfg.pool = hw::PoolUnitGeometry{8, 2, 16};
  cfg.linear = hw::LinearUnitGeometry{1 << rng.next_int(1, 4), 24};
  return cfg;
}

/// All-zero codes, all-(2^T - 1) codes, then random codes (a third zeros).
std::vector<TensorI> sweep_inputs(const Shape& shape, int T, Rng& rng) {
  const std::int32_t max_code = (std::int32_t{1} << T) - 1;
  std::vector<TensorI> codes(3, TensorI(shape));
  for (std::int64_t i = 0; i < codes[1].numel(); ++i) {
    codes[1].at_flat(i) = max_code;
    codes[2].at_flat(i) =
        rng.next_bool(0.33) ? 0 : rng.next_int(0, max_code);
  }
  return codes;
}

class ArchitectureSweep : public ::testing::TestWithParam<int> {};

TEST_P(ArchitectureSweep, AllInvariantsHold) {
  const std::uint64_t seed =
      1000 + static_cast<std::uint64_t>(GetParam()) * 7919;
  Rng rng(seed);
  std::string config;
  nn::Network net = random_architecture(rng, &config);
  const int T = rng.next_int(1, 16);
  // The quantizer refuses weight_bits 1 (no nonzero signed value fits).
  const int wb = rng.next_int(2, 8);
  quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{wb, T});
  pin_extreme_weights(qnet, rng);
  const hw::AcceleratorConfig cfg = random_config(rng);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " T=" + std::to_string(T) +
               " wb=" + std::to_string(wb) +
               " X=" + std::to_string(cfg.conv.array_columns) + " " + config);

  const hw::Accelerator accel(cfg, qnet);
  const ir::LayerProgram& program = accel.program();
  const snn::RadixSnn functional(qnet);
  const auto behavioral =
      engine::make_engine(engine::EngineKind::kBehavioral, program);
  const auto reference =
      engine::make_engine(engine::EngineKind::kReference, program);
  const std::vector<TensorI> codes = sweep_inputs(qnet.input_shape, T, rng);

  hw::Accelerator::WorkerState state = accel.make_worker_state();
  std::vector<hw::AccelRunResult> single(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    SCOPED_TRACE("image " + std::to_string(i));
    const auto logits = qnet.forward(codes[i]);
    // (1) functional SNN bit-exact.
    EXPECT_EQ(functional.run(encoding::radix_encode_codes(codes[i], T)).logits,
              logits);
    // (2) the fast path against the stepped dataflow, record for record.
    accel.run_codes_into(state, codes[i], single[i],
                         hw::SimMode::kCycleAccurate);
    EXPECT_EQ(single[i].logits, logits);
    const hw::AccelRunResult stepped =
        accel.run_codes(codes[i], hw::SimMode::kStepped);
    expect_bit_identical(single[i], stepped);
    EXPECT_EQ(behavioral->run_codes(codes[i]).logits, logits);
    EXPECT_EQ(reference->run_codes(codes[i]).logits, logits);
    // (4) analytic model cycle-exact against the stepped dataflow.
    EXPECT_EQ(stepped.total_cycles, accel.predict_total_cycles());
  }

  // Batched runs match the single runs image for image.
  for (const std::size_t batch : {std::size_t{1}, codes.size()}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    std::vector<hw::AccelRunResult> results(batch);
    accel.run_codes_batched_into(state, codes.data(), batch, results.data());
    for (std::size_t b = 0; b < batch; ++b)
      expect_bit_identical(results[b], single[b]);
  }

  // A random segment cut composes back to the whole program.
  if (program.size() >= 2) {
    const std::size_t cut =
        1 + static_cast<std::size_t>(rng.next_below(program.size() - 1));
    SCOPED_TRACE("cut=" + std::to_string(cut));
    for (std::size_t i = 0; i < codes.size(); ++i) {
      TensorI boundary;
      hw::AccelRunResult merged = accel.run_codes_range(
          state, codes[i], 0, cut, hw::SimMode::kCycleAccurate, &boundary);
      ASSERT_EQ(boundary.shape(), program.op(cut - 1).out_shape);
      hw::merge_segment_result(
          merged, accel.run_codes_range(state, boundary, cut, program.size(),
                                        hw::SimMode::kCycleAccurate));
      hw::finalize_run(merged, accel.config().cycle_ns());
      expect_bit_identical(merged, single[i]);
    }
  }

  // Forced-scalar dispatch is bit-identical to the vector kernels.
  {
    common::simd::ScopedForceScalar force(true);
    for (std::size_t i = 0; i < codes.size(); ++i)
      expect_bit_identical(
          accel.run_codes(codes[i], hw::SimMode::kCycleAccurate), single[i]);
  }

  // (3) unit-count invariance.
  hw::AcceleratorConfig more_units = cfg;
  more_units.num_conv_units = cfg.num_conv_units * 2;
  const hw::Accelerator accel2(more_units, qnet);
  EXPECT_EQ(accel2.run_codes(codes[2]).logits, single[2].logits);

  // Serialization round-trip preserves inference.
  const std::string path = ::testing::TempDir() + "/sweep" +
                           std::to_string(GetParam()) + ".qsnn";
  quant::save_quantized(qnet, path);
  const auto loaded = quant::load_quantized(path);
  EXPECT_EQ(loaded.forward(codes[2]), qnet.forward(codes[2]));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Random, ArchitectureSweep, ::testing::Range(0, 150));

}  // namespace
}  // namespace rsnn
