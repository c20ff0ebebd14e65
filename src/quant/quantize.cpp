#include "quant/quantize.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/fake_quant.hpp"
#include "quant/fold.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/pool2d.hpp"

namespace rsnn::quant {
namespace {

bool is_power_of_two(std::int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

int log2_exact(std::int64_t v) {
  int log = 0;
  while ((std::int64_t{1} << log) < v) ++log;
  return log;
}

/// Bias values scaled into the accumulator domain: B = round(b * 2^(T+f)).
TensorI64 scale_bias(const TensorF& bias, int time_bits, int frac_bits) {
  TensorI64 out(bias.shape());
  const double scale = std::ldexp(1.0, time_bits + frac_bits);
  for (std::int64_t i = 0; i < bias.numel(); ++i)
    out.at_flat(i) =
        static_cast<std::int64_t>(std::llround(static_cast<double>(bias.at_flat(i)) * scale));
  return out;
}

/// Per-output-channel quantization of a weight tensor whose leading axis is
/// the output channel. Fills `weight_out` (int grid values), `bias_out`
/// (channel-scaled) and `channel_frac`.
void quantize_per_channel(const TensorF& weights, const TensorF& bias,
                          int weight_bits, int time_bits, TensorI& weight_out,
                          TensorI64& bias_out, TensorI& channel_frac) {
  const std::int64_t channels = weights.dim(0);
  const std::int64_t per_channel = weights.numel() / channels;
  weight_out = TensorI(weights.shape());
  bias_out = TensorI64(Shape{channels});
  channel_frac = TensorI(Shape{channels});

  for (std::int64_t c = 0; c < channels; ++c) {
    TensorF slice(Shape{per_channel});
    for (std::int64_t i = 0; i < per_channel; ++i)
      slice.at_flat(i) = weights.at_flat(c * per_channel + i);
    const int f = choose_frac_bits(slice, weight_bits);
    channel_frac.at_flat(c) = f;
    const TensorI q = quantize_weights(slice, f, weight_bits);
    for (std::int64_t i = 0; i < per_channel; ++i)
      weight_out.at_flat(c * per_channel + i) = q.at_flat(i);
    const double scale = std::ldexp(1.0, time_bits + f);
    bias_out.at_flat(c) = static_cast<std::int64_t>(
        std::llround(static_cast<double>(bias.at_flat(c)) * scale));
  }
}

/// True if layer index `i` is the last parameterized layer of the network.
bool is_last_parameterized(const nn::Network& network, int index) {
  for (int j = index + 1; j < network.num_layers(); ++j) {
    const auto& layer = const_cast<nn::Network&>(network).layer(j);
    if (dynamic_cast<const nn::Conv2d*>(&layer) != nullptr ||
        dynamic_cast<const nn::Linear*>(&layer) != nullptr)
      return false;
  }
  return true;
}

}  // namespace

// The weight grid is defined once in nn/fake_quant so that QAT training and
// conversion are guaranteed to agree; these wrappers keep the quant API.
int choose_frac_bits(const TensorF& weights, int weight_bits) {
  return nn::choose_weight_frac_bits(weights, weight_bits);
}

TensorI quantize_weights(const TensorF& weights, int frac_bits,
                         int weight_bits) {
  return nn::quantize_weights_to_int(weights, frac_bits, weight_bits);
}

QuantizedNetwork quantize(const nn::Network& network,
                          const QuantizeConfig& config) {
  RSNN_REQUIRE(config.time_bits >= 1 && config.time_bits <= 16,
               "time_bits " << config.time_bits << " outside 1..16");
  RSNN_REQUIRE(config.weight_bits >= 2 && config.weight_bits <= 8,
               "weight_bits " << config.weight_bits << " outside 2..8");
  auto& net = const_cast<nn::Network&>(network);  // layer() is non-const only

  QuantizedNetwork qnet;
  qnet.time_bits = config.time_bits;
  qnet.weight_bits = config.weight_bits;
  qnet.input_shape = network.input_shape();

  for (int i = 0; i < net.num_layers(); ++i) {
    nn::Layer& layer = net.layer(i);

    if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
      QConv2d q;
      q.in_channels = conv->config().in_channels;
      q.out_channels = conv->config().out_channels;
      q.kernel = conv->config().kernel;
      q.stride = conv->config().stride;
      q.padding = conv->config().padding;
      if (config.per_channel) {
        quantize_per_channel(conv->weight().value, conv->bias().value,
                             config.weight_bits, config.time_bits, q.weight,
                             q.bias, q.channel_frac);
      } else {
        q.frac_bits =
            choose_frac_bits(conv->weight().value, config.weight_bits);
        q.weight = quantize_weights(conv->weight().value, q.frac_bits,
                                    config.weight_bits);
        q.bias = scale_bias(conv->bias().value, config.time_bits, q.frac_bits);
      }
      q.requantize = !is_last_parameterized(network, i);
      qnet.layers.emplace_back(std::move(q));
    } else if (auto* fc = dynamic_cast<nn::Linear*>(&layer)) {
      QLinear q;
      q.in_features = fc->config().in_features;
      q.out_features = fc->config().out_features;
      if (config.per_channel) {
        quantize_per_channel(fc->weight().value, fc->bias().value,
                             config.weight_bits, config.time_bits, q.weight,
                             q.bias, q.channel_frac);
      } else {
        q.frac_bits = choose_frac_bits(fc->weight().value, config.weight_bits);
        q.weight = quantize_weights(fc->weight().value, q.frac_bits,
                                    config.weight_bits);
        q.bias = scale_bias(fc->bias().value, config.time_bits, q.frac_bits);
      }
      q.requantize = !is_last_parameterized(network, i);
      qnet.layers.emplace_back(std::move(q));
    } else if (auto* pool = dynamic_cast<nn::Pool2d*>(&layer)) {
      RSNN_REQUIRE(pool->config().kind == nn::PoolKind::kAverage,
                   "accelerator supports average pooling only");
      RSNN_REQUIRE(pool->config().effective_stride() == pool->config().kernel,
                   "pooling stride must equal kernel");
      RSNN_REQUIRE(is_power_of_two(pool->config().kernel),
                   "pooling kernel must be a power of two");
      QPool2d q;
      q.kernel = pool->config().kernel;
      q.shift = 2 * log2_exact(pool->config().kernel);
      qnet.layers.emplace_back(q);
    } else if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
      qnet.layers.emplace_back(QFlatten{});
    } else if (dynamic_cast<nn::BatchNorm2d*>(&layer) != nullptr) {
      // Normalization must have been absorbed into the preceding conv.
      RSNN_REQUIRE(!has_unfolded_batchnorm(network),
                   "network contains active BatchNorm2d layers; run "
                   "quant::fold_batchnorm before quantize");
    } else if (auto* act = dynamic_cast<nn::ClippedReLU*>(&layer)) {
      // Activation is absorbed into the preceding layer's requantizer; only
      // the canonical ceiling of 1.0 maps onto the radix grid.
      RSNN_REQUIRE(std::abs(act->config().ceiling - 1.0f) < 1e-6f,
                   "ClippedReLU ceiling must be 1.0 for radix conversion");
    } else {
      RSNN_REQUIRE(false, "unsupported layer for conversion: " << layer.name());
    }
  }

  RSNN_INFO("quantized network: " << qnet.num_params() << " params, "
                                  << qnet.param_bits() / 8 << " bytes");
  return qnet;
}

QuantEvalResult evaluate_quantized(const QuantizedNetwork& qnet,
                                   const std::vector<TensorF>& images,
                                   const std::vector<int>& labels) {
  RSNN_REQUIRE(images.size() == labels.size());
  QuantEvalResult result;
  result.total = static_cast<std::int64_t>(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    const TensorI input = encode_activations(images[i], qnet.time_bits);
    if (qnet.classify(input) == labels[i]) ++result.correct;
  }
  if (result.total > 0)
    result.accuracy =
        static_cast<double>(result.correct) / static_cast<double>(result.total);
  return result;
}

}  // namespace rsnn::quant
