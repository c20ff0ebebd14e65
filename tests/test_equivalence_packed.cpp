// Equivalence of the event-driven, bit-packed cycle-accurate simulator with
// the seed byte-per-bit implementation on LeNet-5, and cross-engine
// equivalence of all four execution engines over the same LayerProgram:
// logits, total cycles, adder-op counts and memory traffic are architectural
// quantities and must be exactly identical everywhere.
//
// Oracles used (all independent of the rewritten hot loops):
//   * logits        — QuantizedNetwork::forward (invariant 1/2)
//   * total_cycles  — the analytic latency model (invariant 4)
//   * adder ops     — RadixSnn's synaptic-op count (same event definition:
//                     one fired addition per (spike, consuming adder))
//   * traffic       — closed-form expressions transcribed from the seed
//                     unit simulators' accounting
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "compiler/compile.hpp"
#include "encoding/radix.hpp"
#include "engine/engine.hpp"
#include "engine/serving_pool.hpp"
#include "hw/accelerator.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "snn/radix_snn.hpp"
#include "test_helpers.hpp"

namespace rsnn::hw {
namespace {

/// Per-layer traffic of the seed cycle-accurate implementation, in closed
/// form (transcribed from the seed's per-element accounting), derived from
/// the lowered program's typed ops.
MemTraffic seed_traffic(const ir::LayerProgram& program) {
  MemTraffic total;
  const std::int64_t T = program.time_bits();
  const AcceleratorConfig& cfg = program.config();
  for (const ir::LayerOp& op : program.ops()) {
    switch (op.kind) {
      case ir::OpKind::kConv: {
        const auto& conv = *op.conv;
        const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
        const std::int64_t k = conv.kernel;
        const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
        const std::int64_t X = cfg.conv.array_columns;
        const std::int64_t share =
            std::clamp<std::int64_t>(X / ow, 1, conv.out_channels);
        const std::int64_t tiles = ow > X ? ceil_div(ow, X) : 1;
        const std::int64_t slices = ceil_div(conv.out_channels, share);
        // One full input read per (slice, time step, input channel, tile).
        total.act_read_bits += slices * T * conv.in_channels * tiles * ih * iw;
        total.act_write_bits += conv.out_channels * oh * ow * T;
        total.weight_read_bits += T * conv.in_channels * tiles * k * k *
                                  conv.out_channels * program.weight_bits();
        break;
      }
      case ir::OpKind::kPool: {
        const std::int64_t channels = op.in_shape.dim(0);
        const std::int64_t ih = op.in_shape.dim(1), iw = op.in_shape.dim(2);
        const std::int64_t oh = op.out_shape.dim(1), ow = op.out_shape.dim(2);
        const std::int64_t X = cfg.pool.array_columns;
        const std::int64_t tiles = ow > X ? ceil_div(ow, X) : 1;
        // Every channel reads its full input once per (time step, tile).
        total.act_read_bits += channels * T * tiles * ih * iw;
        total.act_write_bits += channels * oh * ow * T;
        break;
      }
      case ir::OpKind::kLinear: {
        const auto& fc = *op.linear;
        total.act_read_bits += T * fc.in_features;
        total.act_write_bits += fc.out_features * T;
        total.weight_read_bits +=
            T * fc.in_features * fc.out_features * program.weight_bits();
        break;
      }
      case ir::OpKind::kFlatten:
        break;
    }
  }
  return total;
}

TEST(PackedEquivalence, LeNetCycleAccurateMatchesSeedSemantics) {
  Rng rng(2022);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  Accelerator accel(lenet_reference_config(), qnet);
  const snn::RadixSnn snn(qnet);

  for (int trial = 0; trial < 2; ++trial) {
    const TensorF image =
        rsnn::testing::random_image(Shape{1, 32, 32}, rng);
    const TensorI codes = quant::encode_activations(image, 4);
    const AccelRunResult run = accel.run_codes(codes, SimMode::kCycleAccurate);

    // Logits: bit-identical to the integer reference model.
    EXPECT_EQ(run.logits, qnet.forward(codes)) << "trial " << trial;

    // Cycles: identical to the analytic model (seed invariant 4).
    EXPECT_EQ(run.total_cycles, accel.predict_total_cycles());

    // Adder ops: one fired addition per (spike, consuming adder) — the same
    // event count the functional radix-SNN reports as synaptic operations.
    const auto train = encoding::radix_encode_codes(codes, 4);
    const snn::RadixSnnResult fn = snn.run(train, false);
    EXPECT_EQ(run.total_adder_ops, fn.total_synaptic_ops) << "trial " << trial;
    EXPECT_EQ(run.logits, fn.logits);

    // Traffic: exactly the seed implementation's accounting.
    const MemTraffic expected = seed_traffic(accel.program());
    EXPECT_EQ(run.traffic_total.act_read_bits, expected.act_read_bits);
    EXPECT_EQ(run.traffic_total.act_write_bits, expected.act_write_bits);
    EXPECT_EQ(run.traffic_total.weight_read_bits, expected.weight_read_bits);
  }
}

// ------------------------------------------------- cross-engine equivalence

/// All four engines walk the same LayerProgram and must agree bit-for-bit:
/// logits, total cycles, adder ops and memory traffic on LeNet-5.
class EngineEquivalence
    : public ::testing::TestWithParam<engine::EngineKind> {};

TEST_P(EngineEquivalence, LeNetBitIdenticalToCycleAccurate) {
  Rng rng(2023);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const ir::LayerProgram program =
      ir::lower(qnet, lenet_reference_config());

  // Baseline: the bit-true stepped dataflow.
  const auto baseline_engine =
      engine::make_engine(engine::EngineKind::kCycleAccurate, program);
  const auto under_test = engine::make_engine(GetParam(), program);

  for (int trial = 0; trial < 2; ++trial) {
    const TensorF image =
        rsnn::testing::random_image(Shape{1, 32, 32}, rng);
    const TensorI codes = quant::encode_activations(image, 4);
    const AccelRunResult baseline = baseline_engine->run_codes(codes);
    const AccelRunResult run = under_test->run_codes(codes);

    EXPECT_EQ(run.logits, baseline.logits) << "trial " << trial;
    EXPECT_EQ(run.predicted_class, baseline.predicted_class);
    EXPECT_EQ(run.total_cycles, baseline.total_cycles);
    EXPECT_EQ(run.total_adder_ops, baseline.total_adder_ops);
    EXPECT_EQ(run.traffic_total.act_read_bits,
              baseline.traffic_total.act_read_bits);
    EXPECT_EQ(run.traffic_total.act_write_bits,
              baseline.traffic_total.act_write_bits);
    EXPECT_EQ(run.traffic_total.weight_read_bits,
              baseline.traffic_total.weight_read_bits);
    EXPECT_EQ(run.dram_bits, baseline.dram_bits);

    // Per-layer cycle totals agree as well (invariant 4 per op).
    ASSERT_EQ(run.layers.size(), baseline.layers.size());
    for (std::size_t li = 0; li < run.layers.size(); ++li) {
      EXPECT_EQ(run.layers[li].cycles, baseline.layers[li].cycles)
          << "layer " << li;
      EXPECT_EQ(run.layers[li].adder_ops, baseline.layers[li].adder_ops)
          << "layer " << li;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineEquivalence,
    ::testing::ValuesIn(engine::all_engines()),
    [](const ::testing::TestParamInfo<engine::EngineKind>& info) {
      return std::string(engine::engine_name(info.param));
    });

// ------------------------------------------------------------- serving

TEST(PackedEquivalence, ServingReplicasMatchSequentialRuns) {
  // Two cycle_accurate serving replicas (pre-allocated engine state, reused
  // across dispatches) must be bit-identical to one-shot execution, and a
  // second round through the same warm pool must agree with the first.
  // max_batch 8 groups the burst, so each multi-request dispatch is one
  // batched engine call into the replica's reused results array.
  Rng rng(11);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg;
  cfg.num_conv_units = 2;
  cfg.conv = ConvUnitGeometry{12, 5, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{4, 24};
  const ir::LayerProgram program = ir::lower(qnet, cfg);
  Accelerator accel(program);

  std::vector<TensorI> codes;
  for (int i = 0; i < 8; ++i)
    codes.push_back(quant::encode_activations(
        rsnn::testing::random_image(Shape{1, 10, 10}, rng), 4));

  engine::ServingPoolOptions options;
  options.replicas = 2;
  options.max_batch = 8;
  options.max_wait_ms = 50.0;  // long: dispatches should fill, not time out
  engine::ServingPool pool(program, engine::EngineKind::kCycleAccurate,
                           options);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto served = rsnn::testing::serve_batch(pool, codes);
    ASSERT_EQ(served.size(), codes.size());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      ASSERT_EQ(served[i].status, engine::RequestStatus::kOk) << "image " << i;
      const AccelRunResult& run = served[i].result;
      const AccelRunResult ref = accel.run_codes(codes[i]);
      EXPECT_EQ(run.logits, ref.logits) << "image " << i;
      EXPECT_EQ(run.total_cycles, ref.total_cycles);
      EXPECT_EQ(run.total_adder_ops, ref.total_adder_ops);
      EXPECT_EQ(run.traffic_total.act_read_bits,
                ref.traffic_total.act_read_bits);
      EXPECT_EQ(run.traffic_total.act_write_bits,
                ref.traffic_total.act_write_bits);
      EXPECT_EQ(run.traffic_total.weight_read_bits,
                ref.traffic_total.weight_read_bits);
      EXPECT_EQ(run.traffic_total.dram_bits, ref.traffic_total.dram_bits);
    }
  }
  const engine::ServingStats stats = pool.stats();
  EXPECT_EQ(stats.completed, 2 * static_cast<std::int64_t>(codes.size()));
  EXPECT_GT(stats.mean_batch, 1.0) << "the burst should have grouped";
}

// --------------------------------------------- engine parsing and sweeps

TEST(EngineParsing, RoundTripsCanonicalNamesAndShorthand) {
  for (const engine::EngineKind kind : engine::all_engines())
    EXPECT_EQ(engine::parse_engine(engine::engine_name(kind)), kind);
  EXPECT_EQ(engine::parse_engine("cycle"),
            engine::EngineKind::kCycleAccurate);
  // The fast path's former engine name keeps old command lines working.
  EXPECT_EQ(engine::parse_engine("analytic"),
            engine::EngineKind::kCycleAccurate);
  EXPECT_EQ(engine::all_engines().size(), 4u);
}

TEST(EngineParsing, RejectsUnknownNames) {
  EXPECT_THROW(engine::parse_engine(""), ContractViolation);
  EXPECT_THROW(engine::parse_engine("Cycle_Accurate"), ContractViolation);
  EXPECT_THROW(engine::parse_engine("analytical"), ContractViolation);
  EXPECT_THROW(engine::parse_engine("gpu"), ContractViolation);
  try {
    engine::parse_engine("warp");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    // The message names the offender and the accepted engines.
    EXPECT_NE(std::string(e.what()).find("warp"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cycle_accurate"),
              std::string::npos);
  }
}

/// Cross-engine equivalence beyond LeNet: every engine must agree on the
/// tiny test net and on VGG-11 (the DRAM-streaming Table III design).
void expect_all_engines_agree(const quant::QuantizedNetwork& qnet,
                              const ir::LayerProgram& program,
                              const TensorI& codes) {
  const auto baseline =
      engine::make_engine(engine::EngineKind::kCycleAccurate, program);
  const AccelRunResult ref = baseline->run_codes(codes);
  EXPECT_EQ(ref.logits, qnet.forward(codes));

  for (const engine::EngineKind kind : engine::all_engines()) {
    if (kind == engine::EngineKind::kCycleAccurate) continue;
    const auto under_test = engine::make_engine(kind, program);
    const AccelRunResult run = under_test->run_codes(codes);
    SCOPED_TRACE(engine::engine_name(kind));
    EXPECT_EQ(run.logits, ref.logits);
    EXPECT_EQ(run.total_cycles, ref.total_cycles);
    EXPECT_EQ(run.total_adder_ops, ref.total_adder_ops);
    EXPECT_EQ(run.dram_bits, ref.dram_bits);
    EXPECT_EQ(run.traffic_total.act_read_bits,
              ref.traffic_total.act_read_bits);
    EXPECT_EQ(run.traffic_total.act_write_bits,
              ref.traffic_total.act_write_bits);
    EXPECT_EQ(run.traffic_total.weight_read_bits,
              ref.traffic_total.weight_read_bits);
  }
}

TEST(EngineSweep, TinyModelAllEnginesAgree) {
  Rng rng(31);
  nn::Network tiny = nn::make_model("tiny");
  tiny.init_params(rng);
  for (nn::Param* p : tiny.params())
    for (std::int64_t i = 0; i < p->value.numel(); ++i)
      p->value.at_flat(i) *= 0.5f;
  const quant::QuantizedNetwork qnet =
      quant::quantize(tiny, quant::QuantizeConfig{3, 4});
  const compiler::CompiledDesign design =
      compiler::compile(qnet, compiler::CompileOptions{});

  for (int trial = 0; trial < 2; ++trial) {
    const TensorI codes = quant::encode_activations(
        rsnn::testing::random_image(qnet.input_shape, rng), qnet.time_bits);
    expect_all_engines_agree(qnet, design.program, codes);
  }
}

TEST(EngineSweep, Vgg11AllEnginesAgree) {
  Rng rng(37);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  const ir::LayerProgram program = ir::lower(qnet, vgg11_table3_config());
  EXPECT_TRUE(program.uses_dram());  // the Table III VGG row streams weights

  const TensorI codes = quant::encode_activations(
      rsnn::testing::random_image(qnet.input_shape, rng), qnet.time_bits);
  expect_all_engines_agree(qnet, program, codes);
}

}  // namespace
}  // namespace rsnn::hw
