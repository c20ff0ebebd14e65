#include "models.hpp"

#include <exception>
#include <thread>

#include "common/rng.hpp"
#include "compiler/compile.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_objects.hpp"
#include "engine/engine.hpp"
#include "nn/zoo.hpp"
#include "quant/qserialize.hpp"
#include "quant/quantize.hpp"

namespace rsnn::e2e {

const char* model_name(ModelKind kind) {
  return kind == ModelKind::kLeNet ? "lenet" : "vgg";
}

std::size_t model_ops(ModelKind kind) {
  return kind == ModelKind::kLeNet ? 8 : 17;
}

quant::QuantizedNetwork make_network(ModelKind kind, std::uint64_t seed) {
  const bool lenet = kind == ModelKind::kLeNet;
  Rng rng(seed);
  nn::Network net = lenet ? nn::make_lenet5() : nn::make_vgg11();
  net.init_params(rng);
  const float scale = lenet ? 0.5f : 2.0f;
  for (nn::Param* p : net.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= scale;
  return quant::quantize(net, quant::QuantizeConfig{3, lenet ? 8 : 3});
}

std::vector<TensorI> make_inputs(ModelKind kind, std::uint64_t seed,
                                 int time_bits) {
  data::Dataset images;
  if (kind == ModelKind::kLeNet) {
    data::SynthDigitsConfig config;
    config.num_samples = 256;
    config.seed = seed;
    images = data::make_synth_digits(config);
  } else {
    data::SynthObjectsConfig config;
    config.num_samples = 8;
    config.seed = seed;
    images = data::make_synth_objects(config);
  }
  std::vector<TensorI> codes;
  for (const TensorF& image : images.images)
    codes.push_back(quant::encode_activations(image, time_bits));
  return codes;
}

std::vector<Golden> compute_golden(ModelKind kind, const std::string& qsnn_path,
                                   const std::vector<TensorI>& inputs,
                                   int threads) {
  const quant::QuantizedNetwork qnet = quant::load_quantized(qsnn_path);
  const compiler::CompiledDesign design =
      compiler::compile(qnet, compiler::CompileOptions{});
  const engine::EngineKind golden_kind = kind == ModelKind::kLeNet
                                             ? engine::EngineKind::kStepped
                                             : engine::EngineKind::kReference;
  std::vector<Golden> golden(inputs.size());
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        const auto engine = engine::make_engine(golden_kind, design.program);
        for (std::size_t i = static_cast<std::size_t>(t); i < inputs.size();
             i += static_cast<std::size_t>(threads)) {
          const hw::AccelRunResult result = engine->run_codes(inputs[i]);
          golden[i] = {result.logits, result.total_cycles, result.latency_us};
        }
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return golden;
}

}  // namespace rsnn::e2e
