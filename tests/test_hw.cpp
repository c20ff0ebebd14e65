#include <gtest/gtest.h>

#include "encoding/radix.hpp"
#include "hw/accelerator.hpp"
#include "hw/conv_unit.hpp"
#include "hw/latency_model.hpp"
#include "hw/linear_unit.hpp"
#include "hw/pingpong.hpp"
#include "hw/pool_unit.hpp"
#include "hw/power_model.hpp"
#include "hw/report.hpp"
#include "hw/resource_model.hpp"
#include "hw/weight_memory.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

namespace rsnn::hw {
namespace {

using rsnn::testing::random_image;
using rsnn::testing::small_random_net;
using rsnn::testing::SweepConfig;
using rsnn::testing::sweep_net;

AcceleratorConfig small_config(int units = 2) {
  AcceleratorConfig cfg;
  cfg.clock_mhz = 100.0;
  cfg.num_conv_units = units;
  cfg.conv = ConvUnitGeometry{12, 5, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{4, 24};
  return cfg;
}

// ------------------------------- invariant 2: conv unit is bit-true to ref

struct ConvCase {
  SweepConfig cfg;
  const char* label;
};

class ConvUnitSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvUnitSweep, MatchesQuantizedConvolution) {
  const SweepConfig& sc = GetParam().cfg;
  Rng rng(101 + sc.kernel * 7 + sc.stride * 3 + sc.padding);
  nn::Network net = sweep_net(sc, rng);
  const quant::QuantizedNetwork qnet =
      quantize(net, quant::QuantizeConfig{3, sc.time_bits});
  const auto& conv = std::get<quant::QConv2d>(qnet.layers[0]);

  const TensorF image = random_image(Shape{sc.cin, sc.size, sc.size}, rng);
  const TensorI codes = quant::encode_activations(image, sc.time_bits);
  const auto input = encoding::radix_encode_codes(codes, sc.time_bits);

  // Reference: quantized network layer 0 output.
  std::vector<TensorI64> traces;
  qnet.forward_traced(codes, &traces);
  const TensorI64& expected = traces[0];

  ConvUnit unit(ConvUnitGeometry{32, 5, 24}, TimingParams{});
  TensorI64 out(expected.shape());
  // Process all channels one slice at a time.
  const std::int64_t ow = expected.dim(2);
  const std::int64_t share = std::clamp<std::int64_t>(32 / ow, std::int64_t{1},
                                                      conv.out_channels);
  for (std::int64_t base = 0; base < conv.out_channels; base += share) {
    const std::int64_t end = std::min(base + share, conv.out_channels);
    unit.run_layer_slice(conv, input, base, end, sc.time_bits, 1, out);
  }
  EXPECT_EQ(out, expected) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvUnitSweep,
    ::testing::Values(ConvCase{{1, 2, 8, 3, 1, 0, 3}, "k3s1p0"},
                      ConvCase{{2, 3, 9, 3, 1, 1, 3}, "k3s1p1"},
                      ConvCase{{2, 3, 9, 3, 2, 0, 3}, "k3s2p0"},
                      ConvCase{{2, 3, 10, 3, 2, 1, 4}, "k3s2p1"},
                      ConvCase{{1, 4, 11, 5, 1, 0, 4}, "k5s1p0"},
                      ConvCase{{2, 2, 11, 5, 2, 2, 4}, "k5s2p2"},
                      ConvCase{{3, 3, 8, 1, 1, 0, 3}, "k1s1p0"},
                      ConvCase{{1, 2, 8, 3, 1, 0, 1}, "T1"},
                      ConvCase{{1, 2, 8, 3, 1, 0, 7}, "T7"}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return info.param.label;
    });

TEST(ConvUnit, TilingMatchesReference) {
  // Output row wider than the array forces column tiling.
  SweepConfig sc{1, 2, 16, 3, 1, 0, 3};  // ow = 14
  Rng rng(11);
  nn::Network net = sweep_net(sc, rng);
  const quant::QuantizedNetwork qnet =
      quantize(net, quant::QuantizeConfig{3, 3});
  const auto& conv = std::get<quant::QConv2d>(qnet.layers[0]);

  const TensorF image = random_image(Shape{1, 16, 16}, rng);
  const TensorI codes = quant::encode_activations(image, 3);
  const auto input = encoding::radix_encode_codes(codes, 3);
  std::vector<TensorI64> traces;
  qnet.forward_traced(codes, &traces);

  ConvUnit unit(ConvUnitGeometry{6, 3, 24}, TimingParams{});  // X=6 < ow=14
  TensorI64 out(traces[0].shape());
  for (std::int64_t oc = 0; oc < conv.out_channels; ++oc)
    unit.run_layer_slice(conv, input, oc, oc + 1, 3, 1, out);
  EXPECT_EQ(out, traces[0]);
}

TEST(ConvUnit, RejectsOversizedKernel) {
  ConvUnit unit(ConvUnitGeometry{8, 3, 24}, TimingParams{});
  quant::QConv2d conv;
  conv.in_channels = conv.out_channels = 1;
  conv.kernel = 5;
  conv.weight = TensorI(Shape{1, 1, 5, 5});
  conv.bias = TensorI64(Shape{1});
  encoding::SpikeTrain input(Shape{1, 8, 8}, 3);
  TensorI64 out(Shape{1, 4, 4});
  EXPECT_THROW(unit.run_layer_slice(conv, input, 0, 1, 3, 1, out),
               ContractViolation);
}

// --------------------------------------------------------------- pool unit

TEST(PoolUnit, MatchesQuantizedPooling) {
  Rng rng(21);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  const auto& pool = std::get<quant::QPool2d>(qnet.layers[1]);

  const TensorF image = random_image(Shape{1, 10, 10}, rng);
  const TensorI codes = quant::encode_activations(image, 4);
  std::vector<TensorI64> traces;
  qnet.forward_traced(codes, &traces);

  // Build the pool input spike train from the conv layer output.
  const auto conv_out = traces[0].cast<std::int32_t>();
  const auto input = encoding::radix_encode_codes(conv_out, 4);

  PoolUnit unit(PoolUnitGeometry{8, 2, 16}, TimingParams{});
  TensorI64 out(traces[1].shape());
  const std::int64_t channels = conv_out.dim(0);
  const std::int64_t share = std::clamp<std::int64_t>(
      8 / out.dim(2), std::int64_t{1}, channels);
  for (std::int64_t base = 0; base < channels; base += share) {
    const std::int64_t end = std::min(base + share, channels);
    unit.run_layer_slice(pool, input, base, end, 4, out);
  }
  EXPECT_EQ(out, traces[1]);
}

// ------------------------------------------------------------- linear unit

TEST(LinearUnit, MatchesQuantizedLinear) {
  Rng rng(31);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  const auto& fc = std::get<quant::QLinear>(qnet.layers[3]);

  const TensorF image = random_image(Shape{1, 10, 10}, rng);
  const TensorI codes = quant::encode_activations(image, 4);
  std::vector<TensorI64> traces;
  const auto logits = qnet.forward_traced(codes, &traces);

  const auto fc_input = traces[2].cast<std::int32_t>();
  const auto input = encoding::radix_encode_codes(fc_input, 4);

  LinearUnit unit(LinearUnitGeometry{4, 24}, TimingParams{});
  TensorI64 out(Shape{fc.out_features});
  unit.run_layer(fc, input, 4, out);
  for (std::int64_t o = 0; o < out.numel(); ++o)
    EXPECT_EQ(out.at_flat(o), logits[static_cast<std::size_t>(o)]);
}

TEST(LinearUnit, CycleCountIsLaneGroupedFetches) {
  quant::QLinear fc;
  fc.in_features = 10;
  fc.out_features = 6;
  fc.weight = TensorI(Shape{6, 10});
  fc.bias = TensorI64(Shape{6});
  fc.requantize = false;
  encoding::SpikeTrain input(Shape{10}, 3);
  LinearUnit unit(LinearUnitGeometry{4, 24}, TimingParams{});
  TensorI64 out(Shape{6});
  const LinearRunResult r = unit.run_layer(fc, input, 3, out);
  // ceil(6/4) = 2 lane groups * 10 inputs * 3 steps.
  EXPECT_EQ(r.cycles, 60);
}

// ------------------ invariant 2 + 3: accelerator output and unit invariance

TEST(Accelerator, CycleAccurateMatchesQuantizedNetwork) {
  Rng rng(41);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  Accelerator accel(small_config(), qnet);

  for (int trial = 0; trial < 10; ++trial) {
    const TensorF image = random_image(Shape{1, 10, 10}, rng);
    const TensorI codes = quant::encode_activations(image, 4);
    const AccelRunResult run = accel.run_codes(codes);
    EXPECT_EQ(run.logits, qnet.forward(codes)) << "trial " << trial;
  }
}

class UnitCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnitCountSweep, ClassificationUnaffectedByUnitCount) {
  // Paper Sec. IV-C: "The classification result is unaffected by the number
  // of convolution units as the operations are identical."
  Rng rng(51);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});

  Accelerator reference(small_config(1), qnet);
  Accelerator accel(small_config(GetParam()), qnet);
  for (int trial = 0; trial < 5; ++trial) {
    const TensorF image = random_image(Shape{1, 10, 10}, rng);
    const TensorI codes = quant::encode_activations(image, 4);
    EXPECT_EQ(accel.run_codes(codes).logits, reference.run_codes(codes).logits);
  }
}

INSTANTIATE_TEST_SUITE_P(Units, UnitCountSweep, ::testing::Values(1, 2, 4, 8));

TEST(Accelerator, MoreUnitsNeverSlower) {
  Rng rng(61);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (const int units : {1, 2, 4, 8}) {
    Accelerator accel(small_config(units), qnet);
    const std::int64_t cycles = accel.predict_total_cycles();
    EXPECT_LE(cycles, prev) << units << " units";
    prev = cycles;
  }
}

TEST(Accelerator, LatencyScalesWithTimeSteps) {
  // Paper Table I: "latency scales linearly with the length of the spike
  // train since almost all computations are replicated for each time step".
  // Measured on LeNet-5 (the paper's workload) via the analytic model.
  Rng rng(71);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  std::vector<double> latencies;
  for (const int T : {3, 6}) {
    const quant::QuantizedNetwork qnet =
        quantize(lenet, quant::QuantizeConfig{3, T});
    Accelerator accel(lenet_reference_config(), qnet);
    latencies.push_back(accel.predict_latency_us());
  }
  const double ratio = latencies[1] / latencies[0];
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.2);
}

// --------------------- invariant 4: analytic model == stepped cycle count

class CycleModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(CycleModelSweep, SteppedMatchesModelAndFastPath) {
  Rng rng(81 + GetParam());
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  Accelerator accel(small_config(GetParam()), qnet);

  const TensorF image = random_image(Shape{1, 10, 10}, rng);
  const AccelRunResult stepped = accel.run_image(image, SimMode::kStepped);
  EXPECT_EQ(stepped.total_cycles, accel.predict_total_cycles());

  // The fast path copies its cycles from those annotations; it must agree
  // with the stepped dataflow on logits, cycles and adder ops.
  const AccelRunResult fast = accel.run_image(image, SimMode::kCycleAccurate);
  EXPECT_EQ(fast.logits, stepped.logits);
  EXPECT_EQ(fast.total_cycles, stepped.total_cycles);
  EXPECT_EQ(fast.total_adder_ops, stepped.total_adder_ops);
}

INSTANTIATE_TEST_SUITE_P(Units, CycleModelSweep, ::testing::Values(1, 2, 3, 4, 8));

TEST(CycleModel, SweepAcrossGeometries) {
  for (const auto& sc :
       {SweepConfig{1, 2, 8, 3, 1, 0, 3}, SweepConfig{2, 3, 9, 3, 1, 1, 3},
        SweepConfig{2, 3, 9, 3, 2, 0, 3}, SweepConfig{1, 4, 11, 5, 1, 0, 4},
        SweepConfig{2, 2, 11, 5, 2, 2, 4}}) {
    Rng rng(91 + sc.kernel + sc.stride);
    nn::Network net = sweep_net(sc, rng);
    const quant::QuantizedNetwork qnet =
        quantize(net, quant::QuantizeConfig{3, sc.time_bits});
    Accelerator accel(small_config(2), qnet);
    const TensorF image = random_image(Shape{sc.cin, sc.size, sc.size}, rng);
    const AccelRunResult run = accel.run_image(image, SimMode::kStepped);
    EXPECT_EQ(run.total_cycles, accel.predict_total_cycles())
        << "k=" << sc.kernel << " s=" << sc.stride << " p=" << sc.padding;
  }
}

// ------------------------------------------------------------ memory model

TEST(PingPong, SwapAlternatesBuffers) {
  PingPongPair pair("test", 1000);
  pair.store_output(500);
  EXPECT_EQ(pair.pong().used_bits, 500);
  pair.swap();
  EXPECT_EQ(pair.ping().used_bits, 500);
  EXPECT_EQ(pair.swaps(), 1);
}

TEST(PingPong, CapacityViolationThrows) {
  PingPongPair pair("test", 100);
  EXPECT_THROW(pair.store_output(101), ContractViolation);
  EXPECT_NO_THROW(pair.store_output(100));
}

TEST(PingPong, TracksTraffic) {
  PingPongPair pair("test", 1000);
  pair.load_input(200);
  pair.store_output(300);
  EXPECT_EQ(pair.total_read_bits(), 200);
  EXPECT_EQ(pair.total_write_bits(), 300);
}

TEST(WeightMemoryTest, BramIsFree) {
  WeightMemory mem(MemoryConfig{});
  const WeightFetchCost cost = mem.fetch_layer(1000, WeightPlacement::kOnChip);
  EXPECT_EQ(cost.cycles, 0);
  EXPECT_EQ(cost.dram_bits, 0);
}

TEST(WeightMemoryTest, DramCostsSetupPlusBandwidth) {
  MemoryConfig cfg;
  cfg.dram_bits_per_cycle = 64;
  cfg.dram_setup_cycles = 100;
  WeightMemory mem(cfg);
  const WeightFetchCost cost = mem.fetch_layer(6400, WeightPlacement::kDram);
  EXPECT_EQ(cost.cycles, 100 + 100);
  EXPECT_EQ(mem.dram_bits_total(), 6400);
}

TEST(Placement, SmallNetworkStaysOnChip) {
  Rng rng(101);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  const auto placement = plan_placement(qnet, MemoryConfig{});
  for (const auto p : placement) EXPECT_EQ(p, WeightPlacement::kOnChip);
}

TEST(Placement, TinyBudgetForcesDram) {
  Rng rng(102);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  MemoryConfig cfg;
  cfg.weight_bram_bits = 16;
  const auto placement = plan_placement(qnet, cfg);
  EXPECT_EQ(placement[0], WeightPlacement::kDram);   // conv
  EXPECT_EQ(placement[1], WeightPlacement::kOnChip); // pool has no params
  EXPECT_EQ(placement[3], WeightPlacement::kDram);   // linear
}

TEST(LatencyModel, RowReuseBeatsNaiveDataflow) {
  // README invariant 6 / the paper's central dataflow claim.
  ConvDims dims{16, 32, 14, 14, 5, 1, 0};
  AcceleratorConfig cfg = small_config(2);
  cfg.conv.array_columns = 16;
  const LayerLatency lat =
      conv_latency(dims, cfg, 4, WeightPlacement::kOnChip, 3);
  const std::int64_t naive = naive_conv_act_reads_bits(dims, 4);
  EXPECT_LT(lat.traffic.act_read_bits, naive / 4)
      << "row-based dataflow must cut activation reads by a large factor";
}

TEST(LatencyModel, FlattenTransferCycles) {
  TimingParams t;
  t.act_read_bits_per_cycle = 32;
  EXPECT_EQ(flatten_transfer_cycles(100, 4, t), (100 * 4 + 31) / 32);
}

// --------------------------------------------------------- resource model

TEST(ResourceModel, Table2CalibrationShape) {
  // The model must land near the paper's Table II LUT/FF columns.
  AcceleratorConfig cfg = lenet_reference_config();
  BufferPlan plan{32 * 32 * 6 * 4, 120 * 4};
  struct Row {
    int units;
    double luts_k, ffs_k;
  };
  const Row rows[] = {{1, 11, 10}, {2, 15, 14}, {4, 24, 23}, {8, 42, 39}};
  for (const Row& row : rows) {
    cfg.num_conv_units = row.units;
    const ResourceEstimate r = design_resources(cfg, plan, 0, false, 3);
    EXPECT_NEAR(static_cast<double>(r.luts) / 1000.0, row.luts_k,
                row.luts_k * 0.20)
        << row.units << " units";
    EXPECT_NEAR(static_cast<double>(r.flip_flops) / 1000.0, row.ffs_k,
                row.ffs_k * 0.20)
        << row.units << " units";
  }
}

TEST(ResourceModel, ResourcesScaleLinearlyWithUnits) {
  // Paper Sec. IV-C: "hardware resources scale almost linear with the number
  // of convolution units".
  AcceleratorConfig cfg = lenet_reference_config();
  BufferPlan plan{1000, 100};
  cfg.num_conv_units = 1;
  const auto r1 = design_resources(cfg, plan, 0, false, 3);
  cfg.num_conv_units = 8;
  const auto r8 = design_resources(cfg, plan, 0, false, 3);
  const double per_unit =
      static_cast<double>(r8.luts - r1.luts) / 7.0;
  const auto unit = conv_unit_resources(cfg.conv);
  EXPECT_NEAR(per_unit, static_cast<double>(unit.luts), 1.0);
}

TEST(ResourceModel, DramSubsystemOnlyWhenUsed) {
  AcceleratorConfig cfg = lenet_reference_config();
  BufferPlan plan{1000, 100};
  const auto without = design_resources(cfg, plan, 0, false, 3);
  const auto with = design_resources(cfg, plan, 0, true, 3);
  EXPECT_GT(with.luts, without.luts + 20000);
}

TEST(ResourceModel, BramIncludesBuffersAndWeights) {
  AcceleratorConfig cfg = lenet_reference_config();
  BufferPlan plan{5000, 700};
  const auto r = design_resources(cfg, plan, 12345, false, 3);
  EXPECT_EQ(r.bram_bits, 2 * 5000 + 2 * 700 + 12345);
}

// ------------------------------------------------------------ power model

TEST(PowerModel, MonotoneInUnitsAndFrequency) {
  Rng rng(111);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  const TensorF image = random_image(Shape{1, 10, 10}, rng);

  auto power_at = [&](int units, double mhz) {
    AcceleratorConfig cfg = small_config(units);
    cfg.clock_mhz = mhz;
    Accelerator accel(cfg, qnet);
    const AccelRunResult run = accel.run_image(image);
    const ResourceEstimate res = estimate_resources(accel);
    return estimate_power(cfg, res, run, false).total_w();
  };
  EXPECT_LT(power_at(1, 100), power_at(8, 100));
  EXPECT_LT(power_at(2, 100), power_at(2, 200));
}

TEST(PowerModel, Table2CalibrationRange) {
  // At the LeNet design point the model should land in the paper's
  // 3.0-3.4 W band.
  Rng rng(112);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 3});
  const TensorF image = random_image(Shape{1, 10, 10}, rng);
  AcceleratorConfig cfg = lenet_reference_config();
  Accelerator accel(cfg, qnet);
  const AccelRunResult run = accel.run_image(image);
  const ResourceEstimate res = estimate_resources(accel);
  const double watts = estimate_power(cfg, res, run, false).total_w();
  EXPECT_GT(watts, 2.8);
  EXPECT_LT(watts, 3.6);
}

TEST(PowerModel, DramAddsInterfacePower) {
  Rng rng(113);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  const TensorF image = random_image(Shape{1, 10, 10}, rng);
  AcceleratorConfig cfg = small_config();
  Accelerator accel(cfg, qnet);
  const AccelRunResult run = accel.run_image(image);
  const ResourceEstimate res = estimate_resources(accel);
  const double without = estimate_power(cfg, res, run, false).total_w();
  const double with = estimate_power(cfg, res, run, true).total_w();
  EXPECT_NEAR(with - without, 1.3, 0.3);
}

// -------------------------------------------------------------- reporting

TEST(Report, MetricsAreConsistent) {
  Rng rng(131);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg = small_config();
  Accelerator accel(cfg, qnet);
  const auto run = accel.run_image(random_image(Shape{1, 10, 10}, rng));
  const auto resources = estimate_resources(accel);
  const auto power = estimate_power(cfg, resources, run, false);

  const RunMetrics m = compute_metrics(cfg, run, power);
  EXPECT_NEAR(m.throughput_fps, 1e6 / run.latency_us, 1e-6);
  EXPECT_NEAR(m.energy_mj, power.total_w() * run.latency_us * 1e-3, 1e-9);
  EXPECT_GT(m.synaptic_ops_per_second, 0.0);
  EXPECT_GT(m.avg_adder_utilization, 0.0);
  EXPECT_LE(m.avg_adder_utilization, 1.0);
}

TEST(Report, CsvHasOneLinePerLayerPlusHeader) {
  Rng rng(132);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  Accelerator accel(small_config(), qnet);
  const auto run = accel.run_image(random_image(Shape{1, 10, 10}, rng));
  const std::string csv = layer_csv(run);
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, static_cast<std::int64_t>(run.layers.size()) + 1);
  EXPECT_NE(csv.find("conv"), std::string::npos);
  EXPECT_NE(csv.find("linear"), std::string::npos);
}

TEST(Report, SummaryMentionsKeyQuantities) {
  Rng rng(133);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg = small_config();
  Accelerator accel(cfg, qnet);
  const auto run = accel.run_image(random_image(Shape{1, 10, 10}, rng));
  const auto resources = estimate_resources(accel);
  const auto power = estimate_power(cfg, resources, run, false);
  const std::string text = run_summary(cfg, run, resources, power);
  EXPECT_NE(text.find("latency"), std::string::npos);
  EXPECT_NE(text.find("energy"), std::string::npos);
  EXPECT_NE(text.find("LUTs"), std::string::npos);
}

// -------------------------------------------------------------- edge cases

TEST(Accelerator, RejectsWrongInputShape) {
  Rng rng(121);
  nn::Network net = small_random_net(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  Accelerator accel(small_config(), qnet);
  TensorI wrong(Shape{1, 8, 8});
  EXPECT_THROW(accel.run_codes(wrong), ContractViolation);
}

TEST(Accelerator, RejectsKernelLargerThanUnit) {
  Rng rng(122);
  nn::Network net(Shape{1, 12, 12});
  net.add<nn::Conv2d>(nn::Conv2dConfig{1, 2, 7});
  net.add<nn::ClippedReLU>(nn::ClippedReLUConfig{1.0f, 0});
  net.add<nn::Flatten>();
  net.add<nn::Linear>(nn::LinearConfig{2 * 6 * 6, 3});
  net.init_params(rng);
  const quant::QuantizedNetwork qnet = quantize(net, quant::QuantizeConfig{3, 4});
  EXPECT_THROW(Accelerator(small_config(), qnet), ContractViolation);
}

}  // namespace
}  // namespace rsnn::hw
