// LeNet-5 end to end — the paper's main workload (Sec. IV-A).
//
// Trains LeNet-5 on MNIST (if IDX files are present under ./data/mnist) or
// on the SynthDigits stand-in, converts it at a chosen spike-train length,
// compiles it onto the accelerator and reports accuracy, latency, power and
// resources — the quantities of paper Tables I-III.
//
// Usage: lenet_mnist [T=4] [conv_units=4] [clock_mhz=200] [epochs=4]
#include <cstdio>
#include <cstdlib>

#include "compiler/compile.hpp"
#include "data/idx_loader.hpp"
#include "data/synth_digits.hpp"
#include "hw/accelerator.hpp"
#include "hw/power_model.hpp"
#include "hw/report.hpp"
#include "hw/resource_model.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"

int main(int argc, char** argv) {
  using namespace rsnn;
  const int T = argc > 1 ? std::atoi(argv[1]) : 4;
  const int units = argc > 2 ? std::atoi(argv[2]) : 4;
  const double mhz = argc > 3 ? std::atof(argv[3]) : 200.0;
  const int epochs = argc > 4 ? std::atoi(argv[4]) : 4;

  // ---- data ----------------------------------------------------------------
  data::Dataset train, test;
  if (auto mnist = data::load_mnist("data/mnist", /*train=*/true, 32)) {
    std::printf("using real MNIST from ./data/mnist\n");
    train = std::move(*mnist);
    test = *data::load_mnist("data/mnist", /*train=*/false, 32);
  } else {
    std::printf("MNIST not found; using the SynthDigits stand-in "
                "(README \"Synthetic stand-in datasets\")\n");
    data::SynthDigitsConfig cfg;
    cfg.num_samples = 3000;
    cfg.noise_stddev = 0.08;
    cfg.max_shift = 3.0;
    cfg.min_scale = 0.7;
    cfg.max_shear = 0.25;
    cfg.intensity_min = 0.55;
    auto parts = data::split(data::make_synth_digits(cfg), 0.8);
    train = std::move(parts.train);
    test = std::move(parts.test);
  }
  std::printf("train: %zu samples, test: %zu samples\n", train.size(),
              test.size());

  // ---- train (weight-QAT at the paper's 3-bit resolution) -------------------
  nn::ZooOptions zoo;
  zoo.weight_qat_bits = 3;
  nn::Network net = nn::make_lenet5(zoo);
  Rng rng(7);
  net.init_params(rng);
  nn::Adam adam(net.params(), nn::AdamConfig{0.005f});
  nn::TrainConfig train_cfg;
  train_cfg.epochs = epochs;
  train_cfg.epoch_callback = [](int epoch, float loss, float acc) {
    std::printf("epoch %d: loss %.3f  train acc %.3f\n", epoch, loss, acc);
    std::fflush(stdout);
  };
  nn::Trainer trainer(net, adam, train_cfg);
  trainer.fit(train.images, train.labels, rng);
  std::printf("ANN test accuracy: %.2f%%\n",
              100.0 * nn::evaluate(net, test.images, test.labels).accuracy);

  // ---- convert + compile -----------------------------------------------------
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, T});
  compiler::CompileOptions options;
  options.num_conv_units = units;
  options.clock_mhz = mhz;
  const auto design = compiler::compile(qnet, options);
  std::printf("\n%s", compiler::describe(design, qnet).c_str());

  // ---- evaluate on hardware ---------------------------------------------------
  hw::Accelerator accel(design.config, qnet);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const TensorI codes = quant::encode_activations(test.images[i], T);
    if (qnet.classify(codes) == test.labels[i]) ++correct;
  }
  const double accuracy =
      100.0 * static_cast<double>(correct) / static_cast<double>(test.size());

  const auto run = accel.run_image(test.images[0], hw::SimMode::kCycleAccurate);
  const auto resources = hw::estimate_resources(accel);
  const auto power =
      hw::estimate_power(design.config, resources, run, accel.uses_dram());

  std::printf("\n=== report (T=%d, %d conv units, %.0f MHz) ===\n", T, units,
              mhz);
  std::printf("accuracy   : %.2f%%\n", accuracy);
  std::printf("latency    : %.0f us  (throughput %.0f fps)\n", run.latency_us,
              1e6 / run.latency_us);
  std::printf("power      : %.2f W\n", power.total_w());
  std::printf("resources  : %s\n", hw::to_string(resources).c_str());
  const auto metrics = hw::compute_metrics(design.config, run, power);
  std::printf("energy     : %.3f mJ/inference, %.2f GSOP/s, adder util %.3f\n",
              metrics.energy_mj, metrics.synaptic_ops_per_second / 1e9,
              metrics.avg_adder_utilization);
  std::printf("paper ref  : 99.09%% at 294 us / 3380 fps / 3.4 W (Table III)\n");

  std::printf("\nper-layer breakdown:\n%s", hw::layer_report(run).c_str());
  return 0;
}
