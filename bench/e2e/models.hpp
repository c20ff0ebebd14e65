// Seeded models and inputs for the e2e benchmark, and the golden outputs every
// served reply is checked against. The daemon only ever sees the generated
// .qsnn files and the activation codes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quant/qnetwork.hpp"
#include "tensor/tensor.hpp"

namespace rsnn::e2e {

enum class ModelKind { kLeNet, kVgg };

/// "lenet" / "vgg": the model id served by the daemon and used in metric
/// names.
const char* model_name(ModelKind kind);

/// Ops in the lowered program (fixed by the architecture; the per-op metric
/// names in BENCHMARK.json depend on them).
std::size_t model_ops(ModelKind kind);

/// Logits and modeled timing of one input, from the golden engine.
struct Golden {
  std::vector<std::int64_t> logits;
  std::int64_t total_cycles = 0;
  double latency_us = 0.0;
};

/// LeNet-5 at T=8 with its seeded init scaled by 0.5, or VGG-11 at T=3 with
/// its init scaled by 2 (the default init leaves every VGG op from op 11 on
/// silent, which hides the linear kernels). 3-bit weights, as in the paper.
quant::QuantizedNetwork make_network(ModelKind kind, std::uint64_t seed);

/// Distinct seeded inputs, encoded as activation codes: 256 SynthDigits
/// images for LeNet, 8 SynthObjects images for VGG (the VGG golden engine
/// costs ~0.8 s per image).
std::vector<TensorI> make_inputs(ModelKind kind, std::uint64_t seed,
                                 int time_bits);

/// Golden outputs of `inputs` on the network stored at `qsnn_path`, lowered
/// exactly as rsnn_serve lowers it: the stepped dataflow for LeNet, the
/// integer reference model for VGG. Runs on `threads` threads.
std::vector<Golden> compute_golden(ModelKind kind, const std::string& qsnn_path,
                                   const std::vector<TensorI>& inputs,
                                   int threads);

}  // namespace rsnn::e2e
