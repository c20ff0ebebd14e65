#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "hw/accelerator.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

namespace rsnn::compiler {
namespace {

TEST(Compiler, LeNetGeometryMatchesPaperSetup) {
  // Paper Sec. IV-A: "(X, Y) = (30, 5) for convolution units and
  // (X, Y) = (14, 2) for pooling units, according to the network
  // configuration". Our compiler derives X from the widest output row
  // (28 for LeNet conv1, rounded up to 30 with margin 2... the paper uses
  // 30; we round to the even value >= 28).
  Rng rng(1);
  nn::Network net = nn::make_lenet5();
  net.init_params(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});
  CompileOptions options;
  options.num_conv_units = 2;
  const CompiledDesign design = compile(qnet, options);

  EXPECT_EQ(design.config.conv.kernel_rows, 5);   // Y = largest kernel
  EXPECT_GE(design.config.conv.array_columns, 28); // X >= widest row
  EXPECT_LE(design.config.conv.array_columns, 30);
  EXPECT_EQ(design.config.pool.kernel_rows, 2);
  EXPECT_EQ(design.config.pool.array_columns, 14);
}

TEST(Compiler, ScheduleCoversEveryLayer) {
  Rng rng(2);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});
  const CompiledDesign design = compile(qnet, CompileOptions{});
  ASSERT_EQ(design.program.size(), qnet.layers.size());
  EXPECT_EQ(design.program.op(0).kind, ir::OpKind::kConv);
  EXPECT_EQ(design.program.op(1).kind, ir::OpKind::kPool);
  EXPECT_EQ(design.program.op(2).kind, ir::OpKind::kFlatten);
  EXPECT_EQ(design.program.op(3).kind, ir::OpKind::kLinear);
  for (const auto& op : design.program.ops())
    EXPECT_GT(op.latency.total_cycles, 0);
}

TEST(Compiler, PredictedLatencyMatchesAccelerator) {
  Rng rng(3);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});
  CompileOptions options;
  options.num_conv_units = 2;
  const CompiledDesign design = compile(qnet, options);
  hw::Accelerator accel(design.config, qnet);
  EXPECT_EQ(design.predicted_total_cycles, accel.predict_total_cycles());
}

TEST(Compiler, PredictedCyclesPinnedToSteppedLeNet) {
  // Invariant 4 regression (latency-prediction drift guard): the schedule's
  // per-op predicted cycles must sum to exactly what the bit-true simulator
  // counts stepping LeNet-5, for several design points.
  Rng rng(42);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const auto qnet = quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const TensorF image = rsnn::testing::random_image(Shape{1, 32, 32}, rng);
  for (const int units : {1, 2, 4}) {
    CompileOptions options;
    options.num_conv_units = units;
    const CompiledDesign design = compile(qnet, options);
    std::int64_t per_op_sum = 0;
    for (const auto& op : design.program.ops())
      per_op_sum += op.latency.total_cycles;
    EXPECT_EQ(per_op_sum, design.predicted_total_cycles) << units << " units";

    hw::Accelerator accel(design.program);
    EXPECT_EQ(per_op_sum, accel.predict_total_cycles()) << units << " units";
    const auto run = accel.run_image(image, hw::SimMode::kStepped);
    EXPECT_EQ(run.total_cycles, per_op_sum) << units << " units";
  }
}

TEST(Compiler, VggGoesToDram) {
  // VGG-11's 28.5M parameters cannot fit the default BRAM budget.
  Rng rng(4);
  nn::Network net = nn::make_vgg11();
  net.init_params(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 6});
  CompileOptions options;
  options.num_conv_units = 8;
  options.clock_mhz = 115.0;
  options.memory.weight_bram_bits = std::int64_t{4} * 1024 * 1024 * 8;
  const CompiledDesign design = compile(qnet, options);
  EXPECT_TRUE(design.program.uses_dram());
}

TEST(Compiler, DescribeMentionsAllUnits) {
  Rng rng(5);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});
  const CompiledDesign design = compile(qnet, CompileOptions{});
  const std::string text = describe(design, qnet);
  EXPECT_NE(text.find("conv units"), std::string::npos);
  EXPECT_NE(text.find("pool_unit"), std::string::npos);
  EXPECT_NE(text.find("linear_unit"), std::string::npos);
  EXPECT_NE(text.find("predicted latency"), std::string::npos);
}

TEST(Compiler, HigherClockLowersLatency) {
  Rng rng(6);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});
  CompileOptions slow, fast;
  slow.clock_mhz = 100;
  fast.clock_mhz = 200;
  EXPECT_GT(compile(qnet, slow).predicted_latency_us,
            compile(qnet, fast).predicted_latency_us);
}

TEST(Compiler, CompileForLatencyPicksSmallestSufficientDesign) {
  Rng rng(7);
  nn::Network net = nn::make_lenet5();
  net.init_params(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 3});
  CompileOptions base;
  base.clock_mhz = 100.0;

  // A loose target must be met by the 1-unit design.
  const auto loose = compile_for_latency(qnet, base, 1e9);
  EXPECT_EQ(loose.config.num_conv_units, 1);

  // A mid target forces more units but not the maximum.
  const auto one_unit = compile(qnet, base);
  const auto mid = compile_for_latency(
      qnet, base, one_unit.predicted_latency_us * 0.6);
  EXPECT_GT(mid.config.num_conv_units, 1);
  EXPECT_LE(mid.predicted_latency_us, one_unit.predicted_latency_us * 0.6);

  // An impossible target yields the fastest candidate (latency floor from
  // the non-duplicated pooling/linear units).
  const auto impossible = compile_for_latency(qnet, base, 1.0);
  EXPECT_GE(impossible.config.num_conv_units, 8);
}

TEST(Compiler, CompileForLatencyRejectsBadArgs) {
  Rng rng(8);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const auto qnet = quant::quantize(net, quant::QuantizeConfig{3, 4});
  EXPECT_THROW(compile_for_latency(qnet, CompileOptions{}, 0.0),
               ContractViolation);
  EXPECT_THROW(compile_for_latency(qnet, CompileOptions{}, 10.0, {}),
               ContractViolation);
}

TEST(Compiler, RejectsEmptyNetwork) {
  quant::QuantizedNetwork empty;
  empty.time_bits = 4;
  empty.weight_bits = 3;
  EXPECT_THROW(compile(empty, CompileOptions{}), ContractViolation);
}

}  // namespace
}  // namespace rsnn::compiler
