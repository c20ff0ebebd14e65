// Quickstart: the complete flow in one file.
//
//   1. Build a small CNN with ClippedReLU activations.
//   2. Train it on a synthetic digit dataset.
//   3. Convert it to a radix-encoded SNN (3-bit weights, T-bit activations).
//   4. Compile the SNN onto an accelerator instance (-> ir::LayerProgram).
//   5. Run one inference on every execution engine (they must agree
//      bit-identically), serve the test set through a replicated serving
//      pool, and print the hardware report.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <future>
#include <vector>

#include "compiler/compile.hpp"
#include "data/synth_digits.hpp"
#include "engine/engine.hpp"
#include "engine/serving_pool.hpp"
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

int main() {
  using namespace rsnn;

  // ---- 1. model ----------------------------------------------------------
  // 16x16 inputs, one conv block, one classifier. Weight QAT at 3 bits makes
  // the later conversion nearly lossless.
  nn::Network net(Shape{1, 16, 16});
  net.add<nn::Conv2d>(nn::Conv2dConfig{1, 6, 3, 1, 0, true, 3});
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 4});
  net.add<nn::Pool2d>(nn::Pool2dConfig{2});
  net.add<nn::Flatten>();
  net.add<nn::Linear>(nn::LinearConfig{6 * 7 * 7, 10, true, 3});
  std::printf("%s\n", net.summary().c_str());

  // ---- 2. data + training -------------------------------------------------
  data::SynthDigitsConfig data_cfg;
  data_cfg.canvas = 16;
  data_cfg.num_samples = 1000;
  data_cfg.max_shift = 1.5;
  auto parts = data::split(data::make_synth_digits(data_cfg), 0.8);

  Rng rng(1);
  net.init_params(rng);
  nn::Adam adam(net.params(), nn::AdamConfig{0.03f});
  nn::TrainConfig train_cfg;
  train_cfg.epochs = 10;
  train_cfg.epoch_callback = [](int epoch, float loss, float acc) {
    std::printf("epoch %d: loss %.3f  train acc %.3f\n", epoch, loss, acc);
  };
  nn::Trainer trainer(net, adam, train_cfg);
  trainer.fit(parts.train.images, parts.train.labels, rng);
  const auto eval = nn::evaluate(net, parts.test.images, parts.test.labels);
  std::printf("ANN test accuracy: %.1f%%\n\n", 100.0 * eval.accuracy);

  // ---- 3. ANN -> radix SNN ------------------------------------------------
  const int T = 4;  // spike train length == activation bits
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, T});
  std::printf("%s\n", qnet.summary().c_str());

  // ---- 4. compile onto the accelerator ------------------------------------
  compiler::CompileOptions options;
  options.num_conv_units = 2;
  options.clock_mhz = 100.0;
  const auto design = compiler::compile(qnet, options);
  std::printf("%s\n", compiler::describe(design, qnet).c_str());

  // ---- 5. run one image on every engine -----------------------------------
  // The compiled design carries the lowered LayerProgram; all four engines
  // execute it and must agree bit-identically on logits and cycles.
  hw::Accelerator accel(design.program);
  const auto& image = parts.test.images[0];
  const auto run = accel.run_image(image, hw::SimMode::kCycleAccurate);

  for (const auto kind : engine::all_engines()) {
    auto eng = engine::make_engine(kind, design.program);
    const auto result = eng->run_image(image);
    std::printf("engine %-14s -> class %d, %lld cycles, bit-exact: %s\n",
                eng->name(), result.predicted_class,
                static_cast<long long>(result.total_cycles),
                result.logits == run.logits ? "yes" : "NO");
  }
  std::printf("label: %d\n", parts.test.labels[0]);

  // Serving: two replicas — one engine and one dispatcher thread each —
  // behind one admission queue, as the rsnn_serve daemon runs them.
  engine::ServingPoolOptions pool_options;
  pool_options.replicas = 2;
  engine::ServingPool pool(design.program, engine::EngineKind::kCycleAccurate,
                           pool_options);
  std::vector<std::future<engine::ServingResult>> tickets;
  for (const auto& test_image : parts.test.images) {
    engine::Request request;
    request.codes = quant::encode_activations(test_image, T);
    tickets.push_back(pool.submit(std::move(request)));
  }
  for (auto& ticket : tickets) ticket.get();
  const engine::ServingStats served = pool.stats();
  std::printf("served %lld images -> %.1f images/sec on %d replica(s)\n",
              static_cast<long long>(served.completed),
              served.wall_images_per_sec, pool.replicas());

  std::printf("\nlatency: %.1f us (%lld cycles @ %.0f MHz)\n", run.latency_us,
              static_cast<long long>(run.total_cycles),
              design.config.clock_mhz);
  const auto resources = hw::estimate_resources(accel);
  std::printf("resources: %s\n", hw::to_string(resources).c_str());
  const auto power =
      hw::estimate_power(design.config, resources, run, accel.uses_dram());
  std::printf("power: %.2f W (static %.2f, clock %.2f, logic %.2f, bram %.2f)\n",
              power.total_w(), power.static_w, power.clock_w, power.logic_w,
              power.bram_w);
  return 0;
}
