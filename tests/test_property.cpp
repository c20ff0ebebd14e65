// Property sweep: randomized multi-layer architectures through the whole
// chain. For each generated network the three core invariants must hold:
//   (1) radix SNN == quantized reference (bit-exact),
//   (2) cycle-accurate accelerator == quantized reference (bit-exact),
//   (4) analytic cycle count == stepped cycle count.
// plus serialization round-trips and unit-count invariance (3).
#include <gtest/gtest.h>

#include <cstdio>

#include "hw/accelerator.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pool2d.hpp"
#include "quant/qserialize.hpp"
#include "quant/quantize.hpp"
#include "encoding/radix.hpp"
#include "snn/radix_snn.hpp"
#include "test_helpers.hpp"

namespace rsnn {
namespace {

using rsnn::testing::random_image;

/// Randomized conv stack: 1-3 conv blocks (kernel 1/3/5, optional pool),
/// then flatten + linear. Returns the network; all dims stay small enough
/// for fast cycle-accurate simulation.
nn::Network random_architecture(Rng& rng, Shape* input_shape) {
  const std::int64_t cin = rng.next_int(1, 3);
  std::int64_t size = rng.next_int(10, 16);
  *input_shape = Shape{cin, size, size};

  nn::Network net(*input_shape);
  std::int64_t channels = cin;
  const int blocks = rng.next_int(1, 3);
  for (int b = 0; b < blocks; ++b) {
    const std::int64_t kernel = 1 + 2 * rng.next_int(0, 2);  // 1/3/5
    if (size < kernel + 2) break;
    const std::int64_t cout = rng.next_int(2, 5);
    const std::int64_t padding = rng.next_int(0, 1);
    // Stride 1 inside stacks keeps shapes pool-friendly.
    net.add<nn::Conv2d>(nn::Conv2dConfig{channels, cout, kernel, 1, padding});
    net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
    size = size + 2 * padding - kernel + 1;
    channels = cout;
    if (size % 2 == 0 && size >= 4 && rng.next_bool(0.7)) {
      net.add<nn::Pool2d>(nn::Pool2dConfig{2});
      size /= 2;
    }
  }
  net.add<nn::Flatten>();
  net.add<nn::Linear>(nn::LinearConfig{channels * size * size, 4});
  net.init_params(rng);
  for (nn::Param* p : net.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  return net;
}

hw::AcceleratorConfig random_config(Rng& rng) {
  hw::AcceleratorConfig cfg;
  cfg.num_conv_units = 1 << rng.next_int(0, 2);
  cfg.conv = hw::ConvUnitGeometry{static_cast<int>(rng.next_int(16, 20)), 5, 24};
  cfg.pool = hw::PoolUnitGeometry{8, 2, 16};
  cfg.linear = hw::LinearUnitGeometry{static_cast<int>(1 << rng.next_int(1, 3)), 24};
  return cfg;
}

class ArchitectureSweep : public ::testing::TestWithParam<int> {};

TEST_P(ArchitectureSweep, AllInvariantsHold) {
  Rng rng(1000 + GetParam() * 7919);
  Shape input_shape;
  nn::Network net = random_architecture(rng, &input_shape);
  const int T = rng.next_int(2, 5);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, T});

  const hw::AcceleratorConfig cfg = random_config(rng);
  hw::Accelerator accel(cfg, qnet);
  const snn::RadixSnn functional(qnet);

  for (int trial = 0; trial < 3; ++trial) {
    const TensorF image = random_image(input_shape, rng);
    const TensorI codes = quant::encode_activations(image, T);
    const auto reference = qnet.forward(codes);

    // (1) functional SNN bit-exact.
    EXPECT_EQ(functional.run(encoding::radix_encode_codes(codes, T)).logits,
              reference);

    // (2) cycle-accurate accelerator bit-exact.
    const auto run = accel.run_codes(codes, hw::SimMode::kCycleAccurate);
    EXPECT_EQ(run.logits, reference);

    // (4) analytic model cycle-exact against the stepped dataflow.
    const auto stepped = accel.run_codes(codes, hw::SimMode::kStepped);
    EXPECT_EQ(stepped.total_cycles, accel.predict_total_cycles());
  }

  // (3) unit-count invariance.
  hw::AcceleratorConfig more_units = cfg;
  more_units.num_conv_units = cfg.num_conv_units * 2;
  hw::Accelerator accel2(more_units, qnet);
  const TensorF image = random_image(input_shape, rng);
  const TensorI codes = quant::encode_activations(image, T);
  EXPECT_EQ(accel2.run_codes(codes).logits, accel.run_codes(codes).logits);

  // Serialization round-trip preserves inference.
  const std::string path = ::testing::TempDir() + "/sweep" +
                           std::to_string(GetParam()) + ".qsnn";
  quant::save_quantized(qnet, path);
  const auto loaded = quant::load_quantized(path);
  EXPECT_EQ(loaded.forward(codes), qnet.forward(codes));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Random, ArchitectureSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace rsnn
