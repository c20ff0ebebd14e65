// Reproduces paper Table II: "Latency, power & resources versus convolution
// units".
//
// Setup (paper Sec. IV-C): LeNet-5, spike train length T = 3, 100 MHz,
// 1/2/4/8 convolution units. Classification results are unaffected by the
// unit count (verified in tests); latency improves sub-linearly because
// memory accesses grow and the pooling/linear units are not duplicated,
// while resources scale almost linearly.
//
// Paper reference values:
//   1: 1063 us, 3.07 W, 11k LUT / 10k FF    4: 450 us, 3.17 W, 24k / 23k
//   2:  648 us, 3.09 W, 15k LUT / 14k FF    8: 370 us, 3.28 W, 42k / 39k
#include <cstdio>

#include "compiler/compile.hpp"
#include "harness.hpp"
#include "hw/accelerator.hpp"
#include "hw/power_model.hpp"
#include "hw/resource_model.hpp"
#include "quant/quantize.hpp"

namespace {

struct PaperRow {
  int units;
  double latency_us, power_w;
  double luts_k, ffs_k;
};
constexpr PaperRow kPaperRows[] = {{1, 1063, 3.07, 11, 10},
                                   {2, 648, 3.09, 15, 14},
                                   {4, 450, 3.17, 24, 23},
                                   {8, 370, 3.28, 42, 39}};

}  // namespace

int main() {
  using namespace rsnn;
  std::printf("Table II reproduction: latency, power & resources vs conv units\n");
  std::printf("(LeNet-5, T=3, 100 MHz)\n");

  bench::TrainedModel model = bench::load_or_train_lenet5(/*quiet=*/false);
  const auto qnet =
      quant::quantize(model.network, quant::QuantizeConfig{3, 3});

  bench::TablePrinter table(
      {"Units", "Lat [us]", "Pow [W]", "LUTs", "FFs", "Lat norm",
       "Paper Lat [us]", "Paper Pow [W]", "Paper LUT/FF", "Paper norm"});

  double latency_u1 = 0.0;
  for (const PaperRow& paper : kPaperRows) {
    compiler::CompileOptions options;
    options.num_conv_units = paper.units;
    options.clock_mhz = 100.0;
    const auto design = compiler::compile(qnet, options);
    hw::Accelerator accel(design.config, qnet);

    // One representative inference provides the activity factors.
    const auto run =
        accel.run_image(model.test.images[0], hw::SimMode::kCycleAccurate);
    const auto resources = hw::estimate_resources(accel);
    const auto power =
        hw::estimate_power(design.config, resources, run, accel.uses_dram());

    const double latency = accel.predict_latency_us();
    if (paper.units == 1) latency_u1 = latency;

    char paper_res[32];
    std::snprintf(paper_res, sizeof(paper_res), "%.0fk / %.0fk", paper.luts_k,
                  paper.ffs_k);
    table.add_row({bench::fmt_int(paper.units), bench::fmt(latency, 0),
                   bench::fmt(power.total_w(), 2),
                   bench::fmt_int(resources.luts),
                   bench::fmt_int(resources.flip_flops),
                   bench::fmt(latency / latency_u1, 2),
                   bench::fmt(paper.latency_us, 0),
                   bench::fmt(paper.power_w, 2), paper_res,
                   bench::fmt(paper.latency_us / 1063.0, 2)});
  }
  table.print("Table II: latency, power & resources versus convolution units");

  std::printf(
      "\nShape checks: doubling units does not halve latency (memory access\n"
      "and the non-duplicated pool/linear units dominate at high unit\n"
      "counts), while LUT/FF grow almost linearly with the unit count.\n");
  return 0;
}
