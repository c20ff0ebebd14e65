// .qsnn round-trip: the deployment artifact must load to a bit-identical
// integer model.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "quant/qserialize.hpp"
#include "quant/quantize.hpp"
#include "snn/sparsity.hpp"
#include "data/synth_digits.hpp"
#include "test_helpers.hpp"

namespace rsnn::quant {
namespace {

using rsnn::testing::random_image;
using rsnn::testing::small_random_net;

TEST(QSerialize, RoundTripIsBitIdentical) {
  Rng rng(1);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork original = quantize(net, QuantizeConfig{3, 4});

  const std::string path = ::testing::TempDir() + "/model.qsnn";
  save_quantized(original, path);
  EXPECT_TRUE(is_quantized_file(path));
  const QuantizedNetwork loaded = load_quantized(path);

  EXPECT_EQ(loaded.time_bits, original.time_bits);
  EXPECT_EQ(loaded.weight_bits, original.weight_bits);
  EXPECT_EQ(loaded.input_shape, original.input_shape);
  ASSERT_EQ(loaded.layers.size(), original.layers.size());

  // Bit-exact inference equality over random inputs.
  for (int trial = 0; trial < 10; ++trial) {
    const TensorF image = random_image(Shape{1, 10, 10}, rng);
    const TensorI codes = encode_activations(image, 4);
    EXPECT_EQ(loaded.forward(codes), original.forward(codes));
  }
  std::remove(path.c_str());
}

TEST(QSerialize, PreservesLayerParameters) {
  Rng rng(2);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork original = quantize(net, QuantizeConfig{3, 5});
  const std::string path = ::testing::TempDir() + "/model2.qsnn";
  save_quantized(original, path);
  const QuantizedNetwork loaded = load_quantized(path);

  const auto& conv_a = std::get<QConv2d>(original.layers[0]);
  const auto& conv_b = std::get<QConv2d>(loaded.layers[0]);
  EXPECT_EQ(conv_a.weight, conv_b.weight);
  EXPECT_EQ(conv_a.bias, conv_b.bias);
  EXPECT_EQ(conv_a.frac_bits, conv_b.frac_bits);
  EXPECT_EQ(conv_a.requantize, conv_b.requantize);

  const auto& fc_a = std::get<QLinear>(original.layers[3]);
  const auto& fc_b = std::get<QLinear>(loaded.layers[3]);
  EXPECT_EQ(fc_a.weight, fc_b.weight);
  EXPECT_FALSE(fc_b.requantize);
  std::remove(path.c_str());
}

TEST(QSerialize, RejectsMissingAndCorrupt) {
  EXPECT_THROW(load_quantized("/nonexistent/x.qsnn"), ContractViolation);
  EXPECT_FALSE(is_quantized_file("/nonexistent/x.qsnn"));

  const std::string path = ::testing::TempDir() + "/junk.qsnn";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a qsnn file at all";
  }
  EXPECT_THROW(load_quantized(path), ContractViolation);
  std::remove(path.c_str());
}

/// Save a valid model, then overwrite the header's time_bits / weight_bits
/// (the two int32 fields after the magic and version) with the given values.
std::string write_with_header(const QuantizedNetwork& qnet, std::int32_t T,
                              std::int32_t weight_bits,
                              const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  save_quantized(qnet, path);
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.seekp(8);
  fs.write(reinterpret_cast<const char*>(&T), sizeof(T));
  fs.write(reinterpret_cast<const char*>(&weight_bits), sizeof(weight_bits));
  return path;
}

TEST(QSerialize, RejectsHeaderBitWidthsOutsideQuantizerBounds) {
  // T <= 16 and weight_bits <= 8 are what keep a code x weight product
  // inside the fast path's 32-bit SIMD multiply; the loader enforces the
  // same bounds as the quantizer.
  Rng rng(6);
  nn::Network net = small_random_net(rng);
  const QuantizedNetwork qnet = quantize(net, QuantizeConfig{3, 4});

  const struct {
    std::int32_t T, weight_bits;
    bool ok;
  } cases[] = {{17, 3, false}, {0, 3, false}, {30, 3, false}, {4, 9, false},
               {4, 0, false},  {4, 1, false}, {16, 8, true}};
  for (const auto& c : cases) {
    SCOPED_TRACE("T=" + std::to_string(c.T) +
                 " weight_bits=" + std::to_string(c.weight_bits));
    const std::string path =
        write_with_header(qnet, c.T, c.weight_bits, "header.qsnn");
    if (c.ok) {
      EXPECT_EQ(load_quantized(path).time_bits, c.T);
    } else {
      try {
        load_quantized(path);
        ADD_FAILURE() << "loaded a corrupt header";
      } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("corrupt header"),
                  std::string::npos)
            << e.what();
      }
    }
    std::remove(path.c_str());
  }

  EXPECT_THROW(quantize(net, QuantizeConfig{9, 4}), ContractViolation);
  EXPECT_THROW(quantize(net, QuantizeConfig{0, 4}), ContractViolation);
  EXPECT_THROW(quantize(net, QuantizeConfig{1, 4}), ContractViolation);
  EXPECT_THROW(quantize(net, QuantizeConfig{3, 17}), ContractViolation);
}

}  // namespace
}  // namespace rsnn::quant

namespace rsnn::snn {
namespace {

TEST(Sparsity, ReportCoversLayersAndIsConsistent) {
  Rng rng(3);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});

  data::SynthDigitsConfig cfg;
  cfg.canvas = 10;
  cfg.num_samples = 8;
  const auto dataset = data::make_synth_digits(cfg);

  const SparsityReport report = analyze_sparsity(qnet, dataset);
  ASSERT_EQ(report.layers.size(), qnet.layers.size());
  EXPECT_GT(report.total_spikes_per_sample, 0.0);
  EXPECT_GT(report.total_synaptic_ops_per_sample, 0.0);
  EXPECT_GT(report.dynamic_energy_uj_per_sample, 0.0);
  for (const auto& layer : report.layers) {
    EXPECT_GE(layer.spike_rate, 0.0);
    EXPECT_LE(layer.spike_rate, 1.0);
  }
  const std::string text = to_string(report);
  EXPECT_NE(text.find("conv"), std::string::npos);
  EXPECT_NE(text.find("total:"), std::string::npos);
}

TEST(Sparsity, ZeroInputYieldsZeroInputSpikes) {
  Rng rng(4);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});
  data::Dataset dataset;
  dataset.num_classes = 4;
  dataset.images.push_back(TensorF(Shape{1, 10, 10}, 0.0f));
  dataset.labels.push_back(0);
  const SparsityReport report = analyze_sparsity(qnet, dataset);
  EXPECT_DOUBLE_EQ(report.layers[0].mean_spikes, 0.0);
}

TEST(Sparsity, MoreTimeStepsMoreSpikes) {
  Rng rng(5);
  nn::Network net = rsnn::testing::small_random_net(rng);
  data::SynthDigitsConfig cfg;
  cfg.canvas = 10;
  cfg.num_samples = 4;
  const auto dataset = data::make_synth_digits(cfg);

  const auto q3 = quant::quantize(net, quant::QuantizeConfig{3, 3});
  const auto q6 = quant::quantize(net, quant::QuantizeConfig{3, 6});
  const double s3 = analyze_sparsity(q3, dataset).total_spikes_per_sample;
  const double s6 = analyze_sparsity(q6, dataset).total_spikes_per_sample;
  EXPECT_GT(s6, s3);
}

}  // namespace
}  // namespace rsnn::snn
