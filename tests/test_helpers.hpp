// Shared fixtures for the test suite: small random networks and inputs, and
// a batch driver for the serving pool's typed submit(Request) path.
#pragma once

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "engine/serving_pool.hpp"
#include "hw/run_result.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"
#include "quant/quantize.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::testing {

/// Random float image in [0, 1) with the given CHW shape.
inline TensorF random_image(const Shape& shape, Rng& rng) {
  TensorF image(shape);
  for (std::int64_t i = 0; i < image.numel(); ++i)
    image.at_flat(i) = static_cast<float>(rng.next_double() * 0.999);
  return image;
}

/// Random batched tensor with values in [lo, hi).
inline TensorF random_tensor(const Shape& shape, Rng& rng, double lo = -1.0,
                             double hi = 1.0) {
  TensorF t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t.at_flat(i) = static_cast<float>(rng.next_double(lo, hi));
  return t;
}

/// A small conv->pool->fc network with randomized weights, convertible to a
/// quantized radix SNN. Input [1, 10, 10], four classes.
inline nn::Network small_random_net(Rng& rng) {
  nn::Network net(Shape{1, 10, 10});
  net.add<nn::Conv2d>(nn::Conv2dConfig{1, 3, 3, 1, 0});
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
  net.add<nn::Pool2d>(nn::Pool2dConfig{2});
  net.add<nn::Flatten>();
  net.add<nn::Linear>(nn::LinearConfig{3 * 4 * 4, 4});
  net.init_params(rng);
  // Shrink weights into a range where 3-bit quantization is meaningful and
  // biases stay small.
  for (nn::Param* p : net.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  return net;
}

/// A conv network with configurable kernel/stride/padding for sweeps.
/// Input [cin, size, size], one conv layer then (optionally) flatten+linear.
struct SweepConfig {
  std::int64_t cin = 2;
  std::int64_t cout = 3;
  std::int64_t size = 9;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
  int time_bits = 3;
};

inline nn::Network sweep_net(const SweepConfig& cfg, Rng& rng) {
  nn::Network net(Shape{cfg.cin, cfg.size, cfg.size});
  net.add<nn::Conv2d>(nn::Conv2dConfig{cfg.cin, cfg.cout, cfg.kernel,
                                       cfg.stride, cfg.padding});
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
  const std::int64_t o =
      (cfg.size + 2 * cfg.padding - cfg.kernel) / cfg.stride + 1;
  net.add<nn::Flatten>();
  net.add<nn::Linear>(nn::LinearConfig{cfg.cout * o * o, 5});
  net.init_params(rng);
  for (nn::Param* p : net.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  return net;
}

/// Full bit-identity check of two accelerator runs: totals, traffic, logits
/// and every per-layer record.
inline void expect_bit_identical(const hw::AccelRunResult& run,
                                 const hw::AccelRunResult& golden) {
  EXPECT_EQ(run.logits, golden.logits);
  EXPECT_EQ(run.predicted_class, golden.predicted_class);
  EXPECT_EQ(run.total_cycles, golden.total_cycles);
  EXPECT_EQ(run.total_adder_ops, golden.total_adder_ops);
  EXPECT_EQ(run.dram_bits, golden.dram_bits);
  EXPECT_EQ(run.traffic_total.act_read_bits, golden.traffic_total.act_read_bits);
  EXPECT_EQ(run.traffic_total.act_write_bits,
            golden.traffic_total.act_write_bits);
  EXPECT_EQ(run.traffic_total.weight_read_bits,
            golden.traffic_total.weight_read_bits);
  EXPECT_EQ(run.traffic_total.dram_bits, golden.traffic_total.dram_bits);
  ASSERT_EQ(run.layers.size(), golden.layers.size());
  for (std::size_t li = 0; li < run.layers.size(); ++li) {
    SCOPED_TRACE("layer " + std::to_string(li));
    EXPECT_EQ(run.layers[li].name, golden.layers[li].name);
    EXPECT_EQ(run.layers[li].cycles, golden.layers[li].cycles);
    EXPECT_EQ(run.layers[li].dram_cycles, golden.layers[li].dram_cycles);
    EXPECT_EQ(run.layers[li].adder_ops, golden.layers[li].adder_ops);
    EXPECT_EQ(run.layers[li].input_spikes, golden.layers[li].input_spikes);
    EXPECT_EQ(run.layers[li].traffic.act_read_bits,
              golden.layers[li].traffic.act_read_bits);
    EXPECT_EQ(run.layers[li].traffic.act_write_bits,
              golden.layers[li].traffic.act_write_bits);
    EXPECT_EQ(run.layers[li].traffic.weight_read_bits,
              golden.layers[li].traffic.weight_read_bits);
    EXPECT_EQ(run.layers[li].traffic.dram_bits,
              golden.layers[li].traffic.dram_bits);
  }
}

/// A typed serving request for `codes` with `options` and no routing key.
inline engine::Request request_for(TensorI codes,
                                   const engine::RequestOptions& options = {}) {
  engine::Request request;
  request.codes = std::move(codes);
  request.options = options;
  return request;
}

/// Submit every image of `codes` through ServingPool::submit(Request), wait
/// for all of them, and return the outcomes index-aligned with `codes`.
inline std::vector<engine::ServingResult> serve_batch(
    engine::ServingPool& pool, const std::vector<TensorI>& codes,
    const engine::RequestOptions& options = {}) {
  std::vector<std::future<engine::ServingResult>> tickets;
  tickets.reserve(codes.size());
  for (const TensorI& image : codes)
    tickets.push_back(pool.submit(request_for(image, options)));
  std::vector<engine::ServingResult> results;
  results.reserve(codes.size());
  for (auto& ticket : tickets) results.push_back(ticket.get());
  return results;
}

}  // namespace rsnn::testing
