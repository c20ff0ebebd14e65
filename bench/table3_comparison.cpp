// Reproduces paper Table III: "Efficiency and performance of SNN hardware
// accelerators" — the cross-accelerator comparison.
//
// Rows:
//   * Ju et al. [12] and Fang et al. [11]: published operating points from
//     the baseline models (src/baselines).
//   * This work / Fang-CNN: the baseline's network deployed on our
//     accelerator (200 MHz, 4 conv units, T=4).
//   * This work / LeNet-5 (200 MHz, 4 conv units, T=4).
//   * This work / VGG-11 on CIFAR-100-class data (115 MHz, 8 conv units,
//     T=6, DRAM weight streaming). Hardware metrics use the full-size
//     28.5M-parameter model; the accuracy column uses the trained
//     width-reduced VGG (substitution documented in README "Synthetic
//     stand-in datasets").
#include <cstdio>

#include "baselines/fang2020.hpp"
#include "baselines/ju2020.hpp"
#include "compiler/compile.hpp"
#include "data/synth_objects.hpp"
#include "harness.hpp"
#include "hw/accelerator.hpp"
#include "hw/power_model.hpp"
#include "hw/resource_model.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"

namespace {

using namespace rsnn;

struct OurRow {
  std::string dataset, network;
  double accuracy_pct, freq_mhz, latency_us, fps, power_w;
  std::int64_t luts, ffs;
};

OurRow run_design(const quant::QuantizedNetwork& qnet, double accuracy_pct,
                  const std::string& dataset, const std::string& network,
                  int units, double mhz, const TensorF& sample,
                  std::int64_t bram_budget_bits) {
  compiler::CompileOptions options;
  options.num_conv_units = units;
  options.clock_mhz = mhz;
  if (bram_budget_bits > 0) options.memory.weight_bram_bits = bram_budget_bits;
  const auto design = compiler::compile(qnet, options);
  hw::Accelerator accel(design.config, qnet);

  const auto run = accel.run_image(sample, hw::SimMode::kCycleAccurate);
  const auto resources = hw::estimate_resources(accel);
  const auto power =
      hw::estimate_power(design.config, resources, run, accel.uses_dram());

  OurRow row;
  row.dataset = dataset;
  row.network = network;
  row.accuracy_pct = accuracy_pct;
  row.freq_mhz = mhz;
  row.latency_us = run.latency_us;
  row.fps = 1e6 / run.latency_us;  // non-pipelined: one image at a time
  row.power_w = power.total_w();
  row.luts = resources.luts;
  row.ffs = resources.flip_flops;
  return row;
}

std::string res_str(std::int64_t luts, std::int64_t ffs) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%lldk / %lldk",
                static_cast<long long>(luts / 1000),
                static_cast<long long>(ffs / 1000));
  return buffer;
}

}  // namespace

int main() {
  std::printf("Table III reproduction: SNN accelerator comparison\n");

  bench::TablePrinter table({"Platform", "Dataset", "Network", "Acc [%]",
                             "f [MHz]", "Lat [us]", "Thrpt [fps]", "Pow [W]",
                             "LUTs / FF"});

  // --- baselines (published operating points) ---
  const auto ju = baselines::ju2020_published();
  table.add_row({ju.name, ju.dataset, "CNN 1", bench::fmt(ju.accuracy_pct, 1),
                 bench::fmt(ju.frequency_mhz, 0), bench::fmt(ju.latency_us, 0),
                 bench::fmt(ju.throughput_fps, 0), bench::fmt(ju.power_w, 1),
                 res_str(ju.luts, ju.flip_flops)});
  const auto fang = baselines::fang2020_published();
  table.add_row({fang.name, fang.dataset, "CNN 2",
                 bench::fmt(fang.accuracy_pct, 1),
                 bench::fmt(fang.frequency_mhz, 0),
                 bench::fmt(fang.latency_us, 0),
                 bench::fmt(fang.throughput_fps, 0),
                 bench::fmt(fang.power_w, 1),
                 res_str(fang.luts, fang.flip_flops)});

  // --- this work: Fang's CNN on our accelerator ---
  std::printf("\n[1/3] Fang-CNN on our accelerator...\n");
  auto fang_model = bench::load_or_train_fang_cnn(/*quiet=*/false);
  const auto fang_qnet =
      quant::quantize(fang_model.network, quant::QuantizeConfig{3, 4});
  const OurRow fang_row = run_design(
      fang_qnet, bench::quantized_accuracy_pct(fang_qnet, fang_model.test),
      "MNIST*", "CNN 2", /*units=*/4, /*mhz=*/200.0,
      fang_model.test.images[0], 0);

  // --- this work: LeNet-5 ---
  std::printf("[2/3] LeNet-5 on our accelerator...\n");
  auto lenet_model = bench::load_or_train_lenet5(/*quiet=*/false);
  const auto lenet_qnet =
      quant::quantize(lenet_model.network, quant::QuantizeConfig{3, 4});
  const OurRow lenet_row = run_design(
      lenet_qnet, bench::quantized_accuracy_pct(lenet_qnet, lenet_model.test),
      "MNIST*", "LeNet-5", /*units=*/4, /*mhz=*/200.0,
      lenet_model.test.images[0], 0);

  // --- this work: VGG-11 (full size for hardware, slim for accuracy) ---
  std::printf("[3/3] VGG-11 (28.5M parameters, DRAM streaming)...\n");
  auto vgg_slim = bench::load_or_train_vgg_slim(/*quiet=*/false);
  const auto slim_qnet =
      quant::quantize(vgg_slim.network, quant::QuantizeConfig{3, 6});
  const double vgg_accuracy =
      bench::quantized_accuracy_pct(slim_qnet, vgg_slim.test, 300);

  Rng vgg_rng(99);
  nn::Network vgg_full = nn::make_vgg11();
  vgg_full.init_params(vgg_rng);
  // Shrink weights so quantization scales are representative of a trained
  // model (hardware metrics do not depend on the values).
  for (nn::Param* p : vgg_full.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  const auto vgg_qnet =
      quant::quantize(vgg_full, quant::QuantizeConfig{3, 6});
  std::printf("  VGG-11 parameters: %.1fM (%lld KiB at 3 bits)\n",
              static_cast<double>(vgg_qnet.num_params()) / 1e6,
              static_cast<long long>(vgg_qnet.param_bits() / 8 / 1024));

  data::SynthObjectsConfig sample_cfg;
  sample_cfg.num_samples = 1;
  const auto vgg_sample = data::make_synth_objects(sample_cfg).images[0];
  const OurRow vgg_row = run_design(
      vgg_qnet, vgg_accuracy, "CIFAR-100*", "VGG-11", /*units=*/8,
      /*mhz=*/115.0, vgg_sample, std::int64_t{4} * 1024 * 1024 * 8);

  for (const OurRow* row : {&fang_row, &lenet_row, &vgg_row}) {
    table.add_row({"This work", row->dataset, row->network,
                   bench::fmt(row->accuracy_pct, 1),
                   bench::fmt(row->freq_mhz, 0), bench::fmt(row->latency_us, 0),
                   bench::fmt(row->fps, 1), bench::fmt(row->power_w, 1),
                   res_str(row->luts, row->ffs)});
  }
  table.print("Table III: efficiency and performance of SNN accelerators");

  std::printf(
      "\n(*) synthetic stand-in datasets; see README \"Synthetic stand-in "
      "datasets\".\n");
  std::printf("Paper 'This work' rows: CNN2 99.3%% 409us 2445fps 3.6W 41k/36k;"
              "\n  LeNet-5 99.1%% 294us 3380fps 3.4W 27k/24k;"
              "\n  VGG-11 60.1%% 210000us 4.7fps 4.9W 88k/84k\n");

  bench::TablePrinter ratios({"Comparison", "Ours", "Paper"});
  ratios.add_row({"Latency vs Fang et al. (x better)",
                  bench::fmt(fang.latency_us / fang_row.latency_us, 1),
                  "18.4"});
  ratios.add_row({"Power vs Fang et al. (x better)",
                  bench::fmt(fang.power_w / fang_row.power_w, 2), "1.25"});
  ratios.add_row({"LUTs vs Fang et al. (x fewer)",
                  bench::fmt(static_cast<double>(fang.luts) / fang_row.luts, 1),
                  "3.8"});
  ratios.add_row(
      {"FFs vs Fang et al. (x fewer)",
       bench::fmt(static_cast<double>(fang.flip_flops) / fang_row.ffs, 1),
       "6.5"});
  ratios.add_row({"Throughput vs Ju et al. (x better)",
                  bench::fmt(fang_row.fps / ju.throughput_fps, 1), "14.9"});
  ratios.add_row({"Power vs Ju et al. (fraction)",
                  bench::fmt(fang_row.power_w / ju.power_w, 2), "0.78"});
  ratios.print("Paper Sec. IV-D headline ratios");
  return 0;
}
