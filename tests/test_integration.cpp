// End-to-end integration: train an ANN on a synthetic dataset, convert it,
// and verify the whole chain ANN -> quantized model -> radix SNN ->
// cycle-accurate accelerator stays consistent and accurate.
#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "data/synth_digits.hpp"
#include "hw/accelerator.hpp"
#include "hw/power_model.hpp"
#include "hw/resource_model.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool2d.hpp"
#include "nn/trainer.hpp"
#include "quant/quantize.hpp"
#include "snn/radix_snn.hpp"

namespace rsnn {
namespace {

/// Small conv net for 16x16 synthetic digits (fast enough for CI), trained
/// quantization-aware on both activations (T-bit grid) and weights (3-bit
/// power-of-two grid) so conversion is nearly lossless.
nn::Network make_mini_digit_net(int qat_bits) {
  const int weight_bits = 3;
  nn::Network net(Shape{1, 16, 16});
  net.add<nn::Conv2d>(
      nn::Conv2dConfig{1, 6, 3, 1, 0, true, weight_bits});  // -> 14x14
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, qat_bits});
  net.add<nn::Pool2d>(nn::Pool2dConfig{2});  // -> 7x7
  net.add<nn::Flatten>();
  net.add<nn::Linear>(nn::LinearConfig{6 * 7 * 7, 10, true, weight_bits});
  return net;
}

struct TrainedFixture {
  nn::Network net = make_mini_digit_net(4);
  data::Dataset train, test;
  float ann_accuracy = 0.0f;

  TrainedFixture() {
    data::SynthDigitsConfig cfg;
    cfg.canvas = 16;
    cfg.num_samples = 1000;
    cfg.noise_stddev = 0.03;
    cfg.max_shift = 1.5;  // proportional to the smaller canvas
    const data::Dataset all = make_synth_digits(cfg);
    auto parts = data::split(all, 0.8);
    train = std::move(parts.train);
    test = std::move(parts.test);

    Rng rng(2024);
    net.init_params(rng);
    nn::Adam adam(net.params(), nn::AdamConfig{0.03f});
    nn::Trainer trainer(net, adam,
                        nn::TrainConfig{14, 32, 1.0f, true, nullptr});
    trainer.fit(train.images, train.labels, rng);
    ann_accuracy = nn::evaluate(net, test.images, test.labels).accuracy;
  }
};

TrainedFixture& fixture() {
  static TrainedFixture f;
  return f;
}

TEST(Integration, AnnLearnsSyntheticDigits) {
  EXPECT_GT(fixture().ann_accuracy, 0.85f)
      << "QAT ANN should learn the synthetic digit task";
}

TEST(Integration, QuantizedModelTracksAnnAccuracy) {
  auto& f = fixture();
  const auto qnet = quant::quantize(f.net, quant::QuantizeConfig{3, 4});
  const auto result =
      quant::evaluate_quantized(qnet, f.test.images, f.test.labels);
  EXPECT_GT(result.accuracy, f.ann_accuracy - 0.10)
      << "3-bit weights + 4-bit activations should cost only a few points";
}

TEST(Integration, SnnAndQuantizedModelAgreeOnEverySample) {
  auto& f = fixture();
  const auto qnet = quant::quantize(f.net, quant::QuantizeConfig{3, 4});
  const snn::RadixSnn radix_snn(qnet);
  for (std::size_t i = 0; i < 40; ++i) {
    const TensorI codes = quant::encode_activations(f.test.images[i], 4);
    EXPECT_EQ(radix_snn.run_image(f.test.images[i]).logits,
              qnet.forward(codes))
        << "sample " << i;
  }
}

TEST(Integration, AcceleratorMatchesSnnOnEverySample) {
  auto& f = fixture();
  const auto qnet = quant::quantize(f.net, quant::QuantizeConfig{3, 4});
  compiler::CompileOptions options;
  options.num_conv_units = 2;
  const auto design = compiler::compile(qnet, options);
  hw::Accelerator accel(design.config, qnet);
  const snn::RadixSnn radix_snn(qnet);

  for (std::size_t i = 0; i < 15; ++i) {
    const auto hw_run = accel.run_image(f.test.images[i]);
    const auto snn_run = radix_snn.run_image(f.test.images[i]);
    EXPECT_EQ(hw_run.logits, snn_run.logits) << "sample " << i;
  }
}

TEST(Integration, AcceleratorAccuracyEqualsQuantizedAccuracy) {
  auto& f = fixture();
  const auto qnet = quant::quantize(f.net, quant::QuantizeConfig{3, 4});
  compiler::CompileOptions options;
  options.num_conv_units = 4;
  const auto design = compiler::compile(qnet, options);
  hw::Accelerator accel(design.config, qnet);

  int hw_correct = 0, q_correct = 0;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    const TensorI codes = quant::encode_activations(f.test.images[i], 4);
    // The fast path is cheap and bit-identical by invariants 1/2/4.
    if (accel.run_codes(codes, hw::SimMode::kCycleAccurate).predicted_class ==
        f.test.labels[i])
      ++hw_correct;
    if (qnet.classify(codes) == f.test.labels[i]) ++q_correct;
  }
  EXPECT_EQ(hw_correct, q_correct);
}

TEST(Integration, FullReportPipelineProducesSaneNumbers) {
  auto& f = fixture();
  const auto qnet = quant::quantize(f.net, quant::QuantizeConfig{3, 4});
  compiler::CompileOptions options;
  options.num_conv_units = 2;
  options.clock_mhz = 100.0;
  const auto design = compiler::compile(qnet, options);
  hw::Accelerator accel(design.config, qnet);

  const auto run = accel.run_image(f.test.images[0]);
  EXPECT_GT(run.total_cycles, 0);
  EXPECT_GT(run.latency_us, 0.0);
  EXPECT_LT(run.latency_us, 100000.0);

  const auto resources = hw::estimate_resources(accel);
  EXPECT_GT(resources.luts, 1000);
  EXPECT_GT(resources.bram_bits, 0);

  const auto power =
      hw::estimate_power(design.config, resources, run, accel.uses_dram());
  EXPECT_GT(power.total_w(), 2.0);
  EXPECT_LT(power.total_w(), 8.0);
}

TEST(Integration, TimeStepSweepImprovesAccuracyMonotonically) {
  // Table I's qualitative claim: more time steps -> equal or better accuracy
  // (up to saturation). Allow small non-monotonicity from quantization noise.
  auto& f = fixture();
  double prev = 0.0;
  for (const int T : {2, 4, 6}) {
    const auto qnet = quant::quantize(f.net, quant::QuantizeConfig{3, T});
    const auto result = quant::evaluate_quantized(
        qnet, f.test.images, f.test.labels);
    EXPECT_GT(result.accuracy, prev - 0.05) << "T=" << T;
    prev = result.accuracy;
  }
  EXPECT_GT(prev, 0.75);
}

}  // namespace
}  // namespace rsnn
