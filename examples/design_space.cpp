// Design-space exploration — automating the paper's Table II trade-off.
//
// Sweeps convolution-unit count and clock frequency for a network, printing
// the latency / power / resource Pareto table, then uses
// compiler::compile_for_latency to pick the smallest design that meets a
// latency target.
//
// Usage: design_space [target_latency_us=150]
#include <cstdio>
#include <cstdlib>

#include "compiler/compile.hpp"
#include "data/synth_digits.hpp"
#include "hw/accelerator.hpp"
#include "hw/power_model.hpp"
#include "hw/report.hpp"
#include "hw/resource_model.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"

int main(int argc, char** argv) {
  using namespace rsnn;
  const double target_us = argc > 1 ? std::atof(argv[1]) : 150.0;

  // Architecture-only exploration needs no training: random weights give
  // identical latency/resources and representative activity.
  Rng rng(11);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  for (nn::Param* p : lenet.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  const auto qnet = quant::quantize(lenet, quant::QuantizeConfig{3, 4});

  data::SynthDigitsConfig img_cfg;
  img_cfg.num_samples = 1;
  const auto sample = data::make_synth_digits(img_cfg).images[0];

  std::printf("LeNet-5 design space (T=4, 3-bit weights)\n\n");
  std::printf("units  MHz   lat[us]  fps      W      mJ/inf  LUTs    FFs\n");
  for (const double mhz : {100.0, 200.0}) {
    for (const int units : {1, 2, 4, 8}) {
      compiler::CompileOptions options;
      options.num_conv_units = units;
      options.clock_mhz = mhz;
      const auto design = compiler::compile(qnet, options);
      hw::Accelerator accel(design.config, qnet);
      const auto run = accel.run_image(sample, hw::SimMode::kCycleAccurate);
      const auto resources = hw::estimate_resources(accel);
      const auto power =
          hw::estimate_power(design.config, resources, run, accel.uses_dram());
      const auto metrics = hw::compute_metrics(design.config, run, power);
      std::printf("%-6d %-5.0f %-8.0f %-8.0f %-6.2f %-7.3f %-7lld %lld\n",
                  units, mhz, run.latency_us, metrics.throughput_fps,
                  power.total_w(), metrics.energy_mj,
                  static_cast<long long>(resources.luts),
                  static_cast<long long>(resources.flip_flops));
    }
  }

  std::printf("\nauto-selecting the smallest design meeting %.0f us "
              "at 100 MHz...\n",
              target_us);
  compiler::CompileOptions base;
  base.clock_mhz = 100.0;
  const auto chosen = compiler::compile_for_latency(qnet, base, target_us);
  std::printf("-> %d conv units, predicted %.0f us\n",
              chosen.config.num_conv_units, chosen.predicted_latency_us);

  std::printf("\nwith exact accumulator sizing (size_accumulators=true):\n");
  base.size_accumulators = true;
  base.num_conv_units = chosen.config.num_conv_units;
  const auto sized = compiler::compile(qnet, base);
  hw::Accelerator tight(sized.config, qnet);
  const auto tight_res = hw::estimate_resources(tight);
  std::printf("-> conv accumulators %d bits, %s\n",
              sized.config.conv.accumulator_bits,
              hw::to_string(tight_res).c_str());
  return 0;
}
