#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "quant/qnetwork.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

namespace rsnn::quant {
namespace {

using rsnn::testing::random_image;
using rsnn::testing::small_random_net;

// --------------------------------------------------------- weight scaling

TEST(ChooseFracBits, MaximizesResolutionWithoutClipping) {
  TensorF w(Shape{3});
  w.at_flat(0) = 0.4f;
  w.at_flat(1) = -0.7f;
  w.at_flat(2) = 0.1f;
  const int f = choose_frac_bits(w, 3);  // q_max = 3
  // round(0.7 * 2^f) <= 3  ->  f = 2 (0.7*4 = 2.8 -> 3); f = 3 gives 5.6 -> 6.
  EXPECT_EQ(f, 2);
  const TensorI q = quantize_weights(w, f, 3);
  EXPECT_EQ(q.at_flat(0), 2);   // 1.6 -> 2
  EXPECT_EQ(q.at_flat(1), -3);  // -2.8 -> -3
  EXPECT_EQ(q.at_flat(2), 0);   // 0.4 -> 0
}

TEST(ChooseFracBits, ZeroWeightsGiveZero) {
  TensorF w(Shape{4}, 0.0f);
  EXPECT_EQ(choose_frac_bits(w, 3), 0);
}

TEST(ChooseFracBits, LargeWeightsGiveNegativeShift) {
  TensorF w(Shape{1});
  w.at_flat(0) = 12.0f;
  const int f = choose_frac_bits(w, 3);
  EXPECT_LT(f, 0);
  const TensorI q = quantize_weights(w, f, 3);
  const double reconstructed = q.at_flat(0) * std::ldexp(1.0, -f);
  EXPECT_NEAR(reconstructed, 12.0, 4.01);
}

TEST(QuantizeWeights, ClampsToSignedRange) {
  TensorF w(Shape{2});
  w.at_flat(0) = 100.0f;
  w.at_flat(1) = -100.0f;
  const TensorI q = quantize_weights(w, 0, 3);
  EXPECT_EQ(q.at_flat(0), 3);
  EXPECT_EQ(q.at_flat(1), -3);
}

TEST(QuantizeWeights, ReconstructionErrorBounded) {
  Rng rng(3);
  const TensorF w = rsnn::testing::random_tensor(Shape{256}, rng, -0.8, 0.8);
  for (int bits = 2; bits <= 8; ++bits) {
    const int f = choose_frac_bits(w, bits);
    const TensorI q = quantize_weights(w, f, bits);
    const double step = std::ldexp(1.0, -f);
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      const double reconstructed = q.at_flat(i) * step;
      EXPECT_LE(std::abs(reconstructed - w.at_flat(i)), step / 2 + 1e-9)
          << "bits=" << bits;
    }
  }
}

// ------------------------------------------------------ encode activations

TEST(EncodeActivations, FloorToGrid) {
  TensorF img(Shape{1, 1, 2});
  img(0, 0, 0) = 0.26f;
  img(0, 0, 1) = 0.99f;
  const TensorI codes = encode_activations(img, 2);  // grid step 0.25
  EXPECT_EQ(codes(0, 0, 0), 1);
  EXPECT_EQ(codes(0, 0, 1), 3);
}

TEST(EncodeActivations, RejectsOutOfRange) {
  TensorF img(Shape{1}, 1.0f);
  EXPECT_THROW(encode_activations(img, 3), ContractViolation);
}

// ------------------------------------------------------------- conversion

TEST(Quantize, LayerStructureIsPreserved) {
  Rng rng(4);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork qnet = quantize(net, QuantizeConfig{3, 4});
  ASSERT_EQ(qnet.layers.size(), 4u);  // conv, pool, flatten, linear
  EXPECT_TRUE(std::holds_alternative<QConv2d>(qnet.layers[0]));
  EXPECT_TRUE(std::holds_alternative<QPool2d>(qnet.layers[1]));
  EXPECT_TRUE(std::holds_alternative<QFlatten>(qnet.layers[2]));
  EXPECT_TRUE(std::holds_alternative<QLinear>(qnet.layers[3]));
  EXPECT_TRUE(std::get<QConv2d>(qnet.layers[0]).requantize);
  EXPECT_FALSE(std::get<QLinear>(qnet.layers[3]).requantize);
}

TEST(Quantize, RejectsMaxPooling) {
  Rng rng(5);
  nn::Network net(Shape{1, 8, 8});
  net.add<nn::Conv2d>(nn::Conv2dConfig{1, 2, 3});
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
  net.add<nn::Pool2d>(nn::Pool2dConfig{2, 0, nn::PoolKind::kMax});
  net.init_params(rng);
  EXPECT_THROW(quantize(net, QuantizeConfig{3, 4}), ContractViolation);
}

TEST(Quantize, RejectsNonUnitCeiling) {
  Rng rng(6);
  nn::Network net(Shape{1, 8, 8});
  net.add<nn::Conv2d>(nn::Conv2dConfig{1, 2, 3});
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{2.0f, 0});
  net.init_params(rng);
  EXPECT_THROW(quantize(net, QuantizeConfig{3, 4}), ContractViolation);
}

TEST(Quantize, WeightBitsRespected) {
  Rng rng(7);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork qnet = quantize(net, QuantizeConfig{3, 4});
  const auto& conv = std::get<QConv2d>(qnet.layers[0]);
  EXPECT_LE(conv.weight.max(), 3);
  EXPECT_GE(conv.weight.min(), -3);
}

TEST(Quantize, RejectsWeightBitsOutsideTwoToEight) {
  // The power-of-two weight scale needs a sign bit and a magnitude bit, so
  // 1-bit weights are refused up front with a range error naming the field.
  Rng rng(8);
  nn::Network net = small_random_net(rng);
  for (const int bits : {0, 1, 9}) {
    try {
      quantize(net, QuantizeConfig{bits, 4});
      ADD_FAILURE() << "weight_bits " << bits << " accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("weight_bits"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(quantize(net, QuantizeConfig{2, 4}));
}

// Quantized inference should agree with float inference up to quantization
// error: with generous bit widths the logits argmax matches.
TEST(Quantize, HighPrecisionMatchesFloatArgmax) {
  Rng rng(8);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork qnet = quantize(net, QuantizeConfig{8, 10});

  int agree = 0;
  const int trials = 25;
  for (int i = 0; i < trials; ++i) {
    const TensorF image = random_image(Shape{1, 10, 10}, rng);
    std::vector<std::int64_t> batch_dims{1};
    for (const auto d : image.shape().dims()) batch_dims.push_back(d);
    const TensorF logits =
        net.forward(image.reshaped(Shape{batch_dims}), false);
    std::int64_t float_argmax = logits.argmax();
    if (qnet.classify(encode_activations(image, 10)) ==
        static_cast<int>(float_argmax))
      ++agree;
  }
  EXPECT_GE(agree, trials - 2);
}

TEST(Quantize, ForwardTracedRecordsEveryLayer) {
  Rng rng(9);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork qnet = quantize(net, QuantizeConfig{3, 3});
  const TensorF image = random_image(Shape{1, 10, 10}, rng);
  std::vector<TensorI64> traces;
  qnet.forward_traced(encode_activations(image, 3), &traces);
  ASSERT_EQ(traces.size(), qnet.layers.size());
  // Intermediate (requantized) activations stay in [0, 2^T).
  for (std::size_t li = 0; li + 1 < traces.size(); ++li) {
    EXPECT_GE(traces[li].min(), 0);
    EXPECT_LT(traces[li].max(), 8);
  }
}

TEST(Quantize, OutputShapesMatchFloatNetwork) {
  Rng rng(10);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork qnet = quantize(net, QuantizeConfig{3, 4});
  const auto shapes = qnet.layer_output_shapes();
  EXPECT_EQ(shapes.back(), Shape({4}));
  EXPECT_EQ(shapes[0], Shape({3, 8, 8}));
  EXPECT_EQ(shapes[1], Shape({3, 4, 4}));
}

TEST(Quantize, ParamCountsAndBits) {
  Rng rng(11);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork qnet = quantize(net, QuantizeConfig{3, 4});
  // conv: 3*1*3*3 + 3 bias; linear: 4*48 + 4 bias.
  EXPECT_EQ(qnet.num_params(), 27 + 3 + 192 + 4);
  EXPECT_GT(qnet.param_bits(), qnet.num_params() * 3);
}

TEST(Quantize, EvaluateQuantizedRunsOnDataset) {
  Rng rng(12);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork qnet = quantize(net, QuantizeConfig{3, 4});
  std::vector<TensorF> images;
  std::vector<int> labels;
  for (int i = 0; i < 10; ++i) {
    images.push_back(random_image(Shape{1, 10, 10}, rng));
    labels.push_back(i % 4);
  }
  const QuantEvalResult result = evaluate_quantized(qnet, images, labels);
  EXPECT_EQ(result.total, 10);
  EXPECT_GE(result.correct, 0);
  EXPECT_LE(result.correct, 10);
}

// -------------------------------------------------- requantizer arithmetic

TEST(QNetwork, RequantizeShiftMatchesFloatDivision) {
  // Build a 1x1 conv "network" computing requantize((w*A) + B) and compare
  // against the float formula floor(w_f * a + b) on the T-bit grid.
  QuantizedNetwork qnet;
  qnet.time_bits = 4;
  qnet.weight_bits = 3;
  qnet.input_shape = Shape{1, 1, 1};

  QConv2d conv;
  conv.in_channels = conv.out_channels = 1;
  conv.kernel = 1;
  conv.weight = TensorI(Shape{1, 1, 1, 1});
  conv.weight(0, 0, 0, 0) = 3;  // w = 3 * 2^-2 = 0.75
  conv.frac_bits = 2;
  conv.bias = TensorI64(Shape{1});
  conv.bias(0) = 16;  // b = 16 / 2^(4+2) = 0.25
  conv.requantize = true;
  qnet.layers.emplace_back(std::move(conv));

  for (std::int64_t code = 0; code < 16; ++code) {
    TensorI input(Shape{1, 1, 1});
    input(0, 0, 0) = static_cast<std::int32_t>(code);
    std::vector<TensorI64> traces;
    qnet.forward_traced(input, &traces);
    const double a = static_cast<double>(code) / 16.0;
    const double o = 0.75 * a + 0.25;
    const std::int64_t expected =
        std::min<std::int64_t>(static_cast<std::int64_t>(std::floor(o * 16.0)), 15);
    EXPECT_EQ(traces[0](0, 0, 0), expected) << "code=" << code;
  }
}

TEST(QNetwork, NegativeAccumulatorClampsToZero) {
  QuantizedNetwork qnet;
  qnet.time_bits = 3;
  qnet.weight_bits = 3;
  qnet.input_shape = Shape{1, 1, 1};
  QConv2d conv;
  conv.in_channels = conv.out_channels = 1;
  conv.kernel = 1;
  conv.weight = TensorI(Shape{1, 1, 1, 1});
  conv.weight(0, 0, 0, 0) = -3;
  conv.frac_bits = 1;
  conv.bias = TensorI64(Shape{1}, std::int64_t{0});
  conv.requantize = true;
  qnet.layers.emplace_back(std::move(conv));

  TensorI input(Shape{1, 1, 1});
  input(0, 0, 0) = 7;
  std::vector<TensorI64> traces;
  qnet.forward_traced(input, &traces);
  EXPECT_EQ(traces[0](0, 0, 0), 0);  // ReLU behaviour
}

TEST(QNetwork, PoolIsExactShift) {
  QuantizedNetwork qnet;
  qnet.time_bits = 3;
  qnet.weight_bits = 3;
  qnet.input_shape = Shape{1, 2, 2};
  QPool2d pool;
  pool.kernel = 2;
  pool.shift = 2;
  qnet.layers.emplace_back(pool);

  TensorI input(Shape{1, 2, 2});
  input(0, 0, 0) = 7;
  input(0, 0, 1) = 5;
  input(0, 1, 0) = 2;
  input(0, 1, 1) = 1;  // sum 15 >> 2 = 3
  std::vector<TensorI64> traces;
  qnet.forward_traced(input, &traces);
  EXPECT_EQ(traces[0](0, 0, 0), 3);
}

}  // namespace
}  // namespace rsnn::quant
