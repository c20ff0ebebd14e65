// Ablation C: validation of the analytic latency model against the stepped
// dataflow, which counts cycles by stepping the bit-true unit simulators
// (README invariant 4), swept over randomized layer geometries and design
// points. The fast path copies its cycles from the analytic model, so any
// deviation would invalidate every fast-path and VGG-scale result. Exits
// non-zero on any mismatch.
#include <cstdio>

#include "common/rng.hpp"
#include "harness.hpp"
#include "hw/accelerator.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"
#include "quant/quantize.hpp"

int main() {
  using namespace rsnn;
  std::printf("Ablation: analytic latency model vs stepped simulation\n");

  Rng rng(2718);
  bench::TablePrinter table({"Case", "cin/cout", "size", "k/s/p", "T", "units",
                             "Stepped", "Analytic", "Match"});

  int mismatches = 0;
  const int cases = 24;
  for (int c = 0; c < cases; ++c) {
    const std::int64_t cin = rng.next_int(1, 3);
    const std::int64_t cout = rng.next_int(1, 6);
    const std::int64_t kernel = 1 + 2 * rng.next_int(0, 2);  // 1, 3, 5
    const std::int64_t stride = rng.next_int(1, 2);
    const std::int64_t padding = rng.next_int(0, 1);
    const std::int64_t size =
        std::max<std::int64_t>(kernel + 3, rng.next_int(7, 14));
    const int T = rng.next_int(1, 5);
    const int units = 1 << rng.next_int(0, 2);

    // conv -> act -> (even-sized) pool when possible -> flatten -> linear
    nn::Network net(Shape{cin, size, size});
    net.add<nn::Conv2d>(
        nn::Conv2dConfig{cin, cout, kernel, stride, padding});
    net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
    const std::int64_t o = (size + 2 * padding - kernel) / stride + 1;
    std::int64_t feat = cout * o * o;
    if (o % 2 == 0) {
      net.add<nn::Pool2d>(nn::Pool2dConfig{2});
      feat = cout * (o / 2) * (o / 2);
    }
    net.add<nn::Flatten>();
    net.add<nn::Linear>(nn::LinearConfig{feat, 5});
    net.init_params(rng);
    for (nn::Param* p : net.params())
      for (std::int64_t i = 0; i < p->value.numel(); ++i)
        p->value.at_flat(i) *= 0.5f;

    const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, T});
    hw::AcceleratorConfig cfg;
    cfg.num_conv_units = units;
    cfg.conv = hw::ConvUnitGeometry{16, 5, 24};
    cfg.pool = hw::PoolUnitGeometry{8, 2, 16};
    cfg.linear = hw::LinearUnitGeometry{4, 24};
    hw::Accelerator accel(cfg, qnet);

    TensorF image(Shape{cin, size, size});
    for (std::int64_t i = 0; i < image.numel(); ++i)
      image.at_flat(i) = static_cast<float>(rng.next_double() * 0.999);

    const auto run = accel.run_image(image, hw::SimMode::kStepped);
    const std::int64_t analytic = accel.predict_total_cycles();
    const bool match = run.total_cycles == analytic;
    if (!match) ++mismatches;

    char geom[32], chans[32];
    std::snprintf(geom, sizeof(geom), "%lld/%lld/%lld",
                  static_cast<long long>(kernel), static_cast<long long>(stride),
                  static_cast<long long>(padding));
    std::snprintf(chans, sizeof(chans), "%lld/%lld",
                  static_cast<long long>(cin), static_cast<long long>(cout));
    table.add_row({bench::fmt_int(c), chans, bench::fmt_int(size), geom,
                   bench::fmt_int(T), bench::fmt_int(units),
                   bench::fmt_int(run.total_cycles), bench::fmt_int(analytic),
                   match ? "yes" : "NO"});
  }
  table.print("Analytic vs stepped cycle counts (randomized sweep)");

  std::printf("\n%d/%d cases match exactly.%s\n", cases - mismatches, cases,
              mismatches == 0 ? " The analytic model is cycle-exact." : "");
  return mismatches == 0 ? 0 : 1;
}
