// Per-device re-lowering: segment-scoped compilation must keep logits
// bit-identical to monolithic execution while letting per-stage placement,
// latency and resources improve (a pipeline stage whose parameters fit its
// own BRAM budget stops streaming from DRAM). Also covers the partitioner
// cost models (communication-aware balance_latency, resource-model
// fit_resources with smallest-feasible-device-count errors) and the CLI
// validation helpers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "compiler/partition.hpp"
#include "engine/engine.hpp"
#include "hw/accelerator.hpp"
#include "hw/pingpong.hpp"
#include "hw/resource_model.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

namespace rsnn::engine {
namespace {

/// LeNet-5 at T=4. `weight_bram_bits` defaults to a budget that the whole
/// model exceeds but an early-conv segment fits, so monolithic lowering
/// streams every parameter layer from DRAM while re-lowered segments can be
/// promoted on chip.
struct TightLeNetFixture {
  static constexpr std::int64_t kTightBudgetBits = 20000;

  quant::QuantizedNetwork qnet;
  ir::LayerProgram program;

  explicit TightLeNetFixture(std::int64_t weight_bram_bits = kTightBudgetBits) {
    Rng rng(2024);
    nn::Network lenet = nn::make_lenet5();
    lenet.init_params(rng);
    qnet = quant::quantize(lenet, quant::QuantizeConfig{3, 4});
    hw::AcceleratorConfig cfg = hw::lenet_reference_config();
    cfg.memory.weight_bram_bits = weight_bram_bits;
    program = ir::lower(qnet, cfg);
  }
};

std::vector<TensorI> lenet_batch(int count, int T) {
  Rng rng(77);
  std::vector<TensorI> codes;
  for (int i = 0; i < count; ++i)
    codes.push_back(quant::encode_activations(
        rsnn::testing::random_image(Shape{1, 32, 32}, rng), T));
  return codes;
}

std::vector<std::size_t> interior_cuts(
    const std::vector<ir::ProgramSegment>& segments) {
  std::vector<std::size_t> cuts;
  for (std::size_t s = 1; s < segments.size(); ++s)
    cuts.push_back(segments[s].begin);
  return cuts;
}

// ------------------------------------------- segment-scoped lowering (ir)

TEST(SegmentLowering, RangeLowerSlicesOpsAndKeepsNetworkIndices) {
  const TightLeNetFixture fx;
  const std::size_t n = fx.program.size();
  ASSERT_EQ(n, 8u);  // conv pool conv pool conv flatten fc fc
  EXPECT_TRUE(fx.program.whole_network());
  EXPECT_FALSE(fx.program.entry_buffer_is_1d());

  const ir::LayerProgram sub =
      ir::lower(fx.qnet, 2, 6, fx.program.config());
  ASSERT_EQ(sub.size(), 4u);
  EXPECT_FALSE(sub.whole_network());
  EXPECT_EQ(sub.network_begin(), 2u);
  EXPECT_EQ(sub.network_end(), 6u);
  for (std::size_t pos = 0; pos < sub.size(); ++pos) {
    EXPECT_EQ(sub.op(pos).layer_index, static_cast<int>(pos + 2));
    EXPECT_EQ(sub.op(pos).kind, fx.program.op(pos + 2).kind);
    EXPECT_EQ(sub.op(pos).in_shape, fx.program.op(pos + 2).in_shape);
  }

  // A range starting downstream of the flatten enters through the 1-D pair.
  const ir::LayerProgram tail =
      ir::lower(fx.qnet, 6, 8, fx.program.config());
  EXPECT_TRUE(tail.entry_buffer_is_1d());
  EXPECT_TRUE(ir::entry_is_1d(tail, 0));
  EXPECT_FALSE(ir::entry_is_1d(sub, 0));

  EXPECT_THROW(ir::lower(fx.qnet, 3, 3, fx.program.config()),
               ContractViolation);
  EXPECT_THROW(ir::lower(fx.qnet, 0, n + 1, fx.program.config()),
               ContractViolation);
}

TEST(SegmentLowering, TightBudgetPromotesSegmentToOnChip) {
  const TightLeNetFixture fx;
  // Monolithic plan: the whole model exceeds the budget, so every parameter
  // layer streams from DRAM.
  EXPECT_TRUE(fx.program.uses_dram());

  // The early-conv segment fits the same per-device budget on its own, so
  // segment-scoped lowering places it on chip and its predicted latency
  // drops (no DRAM prefetch).
  const ir::LayerProgram head = ir::relower_range(fx.program, 0, 4);
  EXPECT_FALSE(head.uses_dram());
  std::int64_t inherited_cycles = 0;
  for (std::size_t li = 0; li < 4; ++li)
    inherited_cycles += fx.program.op(li).latency.total_cycles;
  EXPECT_LT(head.predicted_total_cycles(), inherited_cycles);

  // The FC tail still exceeds the budget and keeps streaming.
  const ir::LayerProgram tail = ir::relower_range(fx.program, 5, 8);
  EXPECT_TRUE(tail.uses_dram());
}

TEST(SegmentLowering, BufferPlanIsSegmentScoped) {
  const TightLeNetFixture fx;
  const int T = fx.qnet.time_bits;

  // A post-flatten segment needs no 2-D buffer capacity beyond the clamp.
  const ir::LayerProgram tail = ir::relower_range(fx.program, 6, 8);
  EXPECT_EQ(tail.buffer_plan().buffer2d_bits_each, 1);
  EXPECT_LE(tail.buffer_plan().buffer1d_bits_each,
            fx.program.buffer_plan().buffer1d_bits_each);
  EXPECT_GE(tail.buffer_plan().buffer1d_bits_each,
            hw::activation_bits(tail.op(0).in_shape, T));

  // A head segment never needs more than the monolithic plan.
  const ir::LayerProgram head = ir::relower_range(fx.program, 0, 3);
  EXPECT_LE(head.buffer_plan().buffer2d_bits_each,
            fx.program.buffer_plan().buffer2d_bits_each);
}

TEST(SegmentLowering, RelowerSegmentsCarryProgramsAndCutBits) {
  const TightLeNetFixture fx;
  const int T = fx.qnet.time_bits;
  const auto segments =
      ir::make_segments(fx.program, {4, 6}, ir::SegmentLowering::kRelower);
  ASSERT_EQ(segments.size(), 3u);

  for (const ir::ProgramSegment& seg : segments) {
    ASSERT_TRUE(seg.is_relowered());
    EXPECT_EQ(seg.relowered->size(), seg.size());
    EXPECT_EQ(seg.relowered->network_begin(), seg.begin);
    EXPECT_EQ(seg.in_cut_bits, hw::activation_bits(seg.in_shape, T));
    if (seg.final_segment)
      EXPECT_EQ(seg.out_cut_bits, 0);
    else
      EXPECT_EQ(seg.out_cut_bits, hw::activation_bits(seg.out_shape, T));

    // Aggregates reflect the re-lowered annotations.
    std::int64_t cycles = 0, onchip = 0;
    for (const ir::LayerOp& op : seg.relowered->ops()) {
      cycles += op.latency.total_cycles;
      if (op.placement == hw::WeightPlacement::kOnChip)
        onchip += op.param_bits;
    }
    EXPECT_EQ(seg.predicted_cycles, cycles);
    EXPECT_EQ(seg.onchip_param_bits, onchip);
  }

  // Inherited mode stays annotation-free and bit-compatible with PR 3, and
  // each resource report rejects the other partition flavour.
  const auto inherited = ir::make_segments(fx.program, {4, 6});
  EXPECT_FALSE(inherited[0].is_relowered());
  EXPECT_THROW(hw::relowered_resources(inherited), ContractViolation);
  EXPECT_THROW(hw::partition_resources(fx.program, segments),
               ContractViolation);
}

// --------------------------------- re-lowered stage chain (all 4 engines)

class RelowerEquivalence : public ::testing::TestWithParam<EngineKind> {};

TEST_P(RelowerEquivalence, LogitsBitIdenticalWhileStageCyclesImprove) {
  const TightLeNetFixture fx;
  const auto batch = lenet_batch(3, fx.qnet.time_bits);

  const auto monolithic = make_engine(GetParam(), fx.program);
  std::vector<hw::AccelRunResult> reference;
  for (const TensorI& codes : batch)
    reference.push_back(monolithic->run_codes(codes));

  const auto segments =
      ir::make_segments(fx.program, {4}, ir::SegmentLowering::kRelower);
  // The head segment is promoted on chip under the tight budget.
  EXPECT_EQ(segments[0].onchip_param_bits, segments[0].param_bits);
  EXPECT_GT(segments[0].param_bits, 0);

  const auto engines = make_stage_engines(GetParam(), fx.program, segments);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "image " << i);
    const hw::AccelRunResult chained = run_stages(engines, batch[i]);
    ASSERT_EQ(chained.layers.size(), fx.program.size());
    // Logits are bit-identical; cycles are strictly better (the promoted
    // stage dropped its DRAM prefetch).
    EXPECT_EQ(chained.logits, reference[i].logits);
    EXPECT_EQ(chained.predicted_class, reference[i].predicted_class);
    EXPECT_EQ(chained.total_adder_ops, reference[i].total_adder_ops);
    EXPECT_LT(chained.total_cycles, reference[i].total_cycles);
    EXPECT_LT(chained.dram_bits, reference[i].dram_bits);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RelowerEquivalence,
    ::testing::Values(EngineKind::kCycleAccurate, EngineKind::kBehavioral,
                      EngineKind::kReference),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(engine_name(info.param));
    });

TEST(RelowerEquivalence, AllEnginesAgreeOnRelowereredStageCycles) {
  // The four engines must agree with each other in re-lowered mode too:
  // the stepped engine on the per-device placement has to reproduce the
  // re-lowered latency annotations (invariant 4, per device).
  const TightLeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);
  const auto segments =
      ir::make_segments(fx.program, {2, 4, 6}, ir::SegmentLowering::kRelower);

  std::vector<hw::AccelRunResult> per_engine;
  for (const EngineKind kind : all_engines())
    per_engine.push_back(
        run_stages(make_stage_engines(kind, fx.program, segments), batch[0]));
  for (std::size_t e = 1; e < per_engine.size(); ++e) {
    SCOPED_TRACE(engine_name(all_engines()[e]));
    EXPECT_EQ(per_engine[e].logits, per_engine[0].logits);
    EXPECT_EQ(per_engine[e].total_cycles, per_engine[0].total_cycles);
    EXPECT_EQ(per_engine[e].total_adder_ops, per_engine[0].total_adder_ops);
    EXPECT_EQ(per_engine[e].dram_bits, per_engine[0].dram_bits);
    for (std::size_t li = 0; li < per_engine[e].layers.size(); ++li)
      EXPECT_EQ(per_engine[e].layers[li].cycles,
                per_engine[0].layers[li].cycles)
          << "layer " << li;
  }
}

// --------------------------------------- VGG-11 promotion (acceptance)

TEST(RelowerVgg11, StagePromotedFromDramWithLowerCycles) {
  // The paper's DRAM design: every parameter layer of the monolithic VGG-11
  // program streams. After a 4-stage partition, the early stages fit the
  // 4 MiB per-device budget and must be promoted on chip with strictly
  // lower predicted *and* cycle-accurate stage cycles.
  Rng rng(37);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  const ir::LayerProgram program =
      ir::lower(qnet, hw::vgg11_table3_config());
  ASSERT_TRUE(program.uses_dram());

  // Same cuts in both modes so stages compare one to one.
  const std::vector<std::size_t> cuts =
      interior_cuts(compiler::partition_balance_latency(program, 4));
  const auto inherited = ir::make_segments(program, cuts);
  const auto relowered =
      ir::make_segments(program, cuts, ir::SegmentLowering::kRelower);
  ASSERT_EQ(inherited.size(), 4u);

  int promoted = -1;
  for (std::size_t s = 0; s < relowered.size(); ++s) {
    EXPECT_EQ(inherited[s].onchip_param_bits, 0) << "stage " << s;
    if (promoted < 0 && relowered[s].param_bits > 0 &&
        relowered[s].onchip_param_bits == relowered[s].param_bits)
      promoted = static_cast<int>(s);
  }
  ASSERT_GE(promoted, 0) << "no stage was promoted to on-chip weights";
  const std::size_t p = static_cast<std::size_t>(promoted);
  EXPECT_LT(relowered[p].predicted_cycles, inherited[p].predicted_cycles);

  // Per-stage resources: the promoted stage sheds the DRAM subsystem.
  const auto device_resources = hw::relowered_resources(relowered);
  ASSERT_EQ(device_resources.size(), relowered.size());
  EXPECT_FALSE(relowered[p].relowered->uses_dram());
  EXPECT_GE(device_resources[p].bram_bits, relowered[p].param_bits);

  // Walk the inherited cycle-accurate stages up to the promoted one to get
  // its entry codes, then race the two placements on the bit-true engine.
  const TensorI input = quant::encode_activations(
      rsnn::testing::random_image(qnet.input_shape, rng), qnet.time_bits);
  TensorI codes = input;
  for (std::size_t s = 0; s < p; ++s) {
    auto stage = make_engine(EngineKind::kCycleAccurate, program,
                             inherited[s]);
    codes = stage->run_segment(codes).boundary_codes;
  }
  auto inherited_stage =
      make_engine(EngineKind::kCycleAccurate, program, inherited[p]);
  auto relowered_stage =
      make_engine(EngineKind::kCycleAccurate, program, relowered[p]);
  const SegmentRunResult slow = inherited_stage->run_segment(codes);
  const SegmentRunResult fast = relowered_stage->run_segment(codes);

  EXPECT_LT(fast.stats.total_cycles, slow.stats.total_cycles);
  EXPECT_EQ(fast.stats.total_adder_ops, slow.stats.total_adder_ops);
  if (!relowered[p].final_segment) {
    ASSERT_EQ(fast.boundary_codes.shape(), slow.boundary_codes.shape());
    EXPECT_EQ(fast.boundary_codes.to_vector(),
              slow.boundary_codes.to_vector());
  }
  // The stepped cycle count must reproduce the re-lowered prediction
  // (invariant 4 on the per-device program).
  EXPECT_EQ(fast.stats.total_cycles, relowered[p].predicted_cycles);
  EXPECT_EQ(slow.stats.total_cycles, inherited[p].predicted_cycles);

  // End to end: the re-lowered stage chain still produces the monolithic
  // logits (fast path at VGG scale).
  const auto monolithic = make_engine(EngineKind::kCycleAccurate, program);
  const hw::AccelRunResult ref = monolithic->run_codes(input);
  const hw::AccelRunResult chained = run_stages(
      make_stage_engines(EngineKind::kCycleAccurate, program, relowered),
      input);
  EXPECT_EQ(chained.logits, ref.logits);
  EXPECT_LT(chained.total_cycles, ref.total_cycles);
}

// ----------------------------------------------- partitioner cost models

TEST(PartitionCostModel, BalanceLatencyTradesComputeAgainstCutTraffic) {
  const TightLeNetFixture fx;
  compiler::PartitionOptions options;
  options.link_bits_per_cycle = 8;  // expensive links: cuts matter

  const auto segments =
      compiler::partition_balance_latency(fx.program, 2, options);
  ASSERT_EQ(segments.size(), 2u);
  ASSERT_TRUE(segments[0].is_relowered());

  // The chosen partition minimizes max(stage compute + link transfers)
  // among every 2-way cut, with stage compute costed by re-lowering.
  const auto model_cost = [&](const std::vector<ir::ProgramSegment>& segs) {
    std::int64_t worst = 0;
    for (const ir::ProgramSegment& seg : segs) {
      std::int64_t cost = seg.predicted_cycles;
      if (seg.begin > 0)
        cost += hw::inter_device_transfer_cycles(
            seg.in_cut_bits, options.link_bits_per_cycle,
            options.link_setup_cycles);
      if (!seg.final_segment)
        cost += hw::inter_device_transfer_cycles(
            seg.out_cut_bits, options.link_bits_per_cycle,
            options.link_setup_cycles);
      worst = std::max(worst, cost);
    }
    return worst;
  };

  const std::int64_t chosen = model_cost(segments);
  for (std::size_t cut = 1; cut < fx.program.size(); ++cut)
    EXPECT_LE(chosen,
              model_cost(ir::make_segments(fx.program, {cut},
                                           ir::SegmentLowering::kRelower)))
        << "cut at " << cut;

  // options.relower = false keeps the cost model but emits inherited
  // segments for the bit-identical-cycles execution path.
  compiler::PartitionOptions inherited = options;
  inherited.relower = false;
  const auto plain =
      compiler::partition_balance_latency(fx.program, 2, inherited);
  EXPECT_FALSE(plain[0].is_relowered());
  EXPECT_EQ(interior_cuts(plain), interior_cuts(segments));
}

TEST(PartitionCostModel, FitResourcesFoldsBuffersAndDramSubsystem) {
  const TightLeNetFixture fx;
  compiler::PartitionOptions options;
  const auto segments =
      compiler::partition_fit_resources(fx.program, options);
  EXPECT_GT(segments.size(), 1u);

  const hw::BufferPlan& plan = fx.program.buffer_plan();
  const std::int64_t budget =
      fx.program.config().memory.weight_bram_bits +
      2 * plan.buffer2d_bits_each + 2 * plan.buffer1d_bits_each;
  for (const ir::ProgramSegment& seg : segments) {
    ASSERT_TRUE(seg.is_relowered());
    const hw::ResourceEstimate est =
        hw::estimate_resources(*seg.relowered);
    // The full device estimate — activation ping-pong BRAM included — fits
    // the budget, and multi-op stages hold their weights on chip.
    EXPECT_LE(est.bram_bits, budget)
        << "segment [" << seg.begin << ", " << seg.end << ")";
    if (seg.size() > 1) EXPECT_FALSE(seg.relowered->uses_dram());
  }

  // A LUT cap below the DRAM subsystem makes streaming singletons — and
  // therefore any packing — infeasible; the error says so.
  compiler::PartitionOptions lut_capped = options;
  lut_capped.device_luts = 25000;  // < DRAM subsystem alone
  try {
    compiler::partition_fit_resources(fx.program, lut_capped);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("infeasible at any device count"),
              std::string::npos)
        << e.what();
  }
}

TEST(PartitionCostModel, FitResourcesReportsSmallestFeasibleDeviceCount) {
  const TightLeNetFixture fx;
  compiler::PartitionOptions options;
  const std::size_t needed =
      compiler::partition_fit_resources(fx.program, options).size();
  ASSERT_GT(needed, 1u);

  options.max_devices = static_cast<int>(needed) - 1;
  try {
    compiler::partition_fit_resources(fx.program, options);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("smallest feasible device count is " +
                        std::to_string(needed)),
              std::string::npos)
        << what;
  }

  // partition_program treats the requested stage count as the device pool.
  EXPECT_THROW(
      compiler::partition_program(fx.program,
                                  compiler::PartitionStrategy::kFitResources,
                                  static_cast<int>(needed) - 1, options),
      ContractViolation);
  options.max_devices = 0;
  const auto exact = compiler::partition_program(
      fx.program, compiler::PartitionStrategy::kFitResources,
      static_cast<int>(needed), options);
  EXPECT_EQ(exact.size(), needed);
}

// ------------------------------------------------- CLI validation errors

TEST(CliValidation, PipelineRequestErrorsAreFriendlyOneLiners) {
  const TightLeNetFixture fx;
  const std::size_t n = fx.program.size();

  EXPECT_TRUE(compiler::pipeline_request_error(fx.program, 1).empty());
  EXPECT_TRUE(
      compiler::pipeline_request_error(fx.program, static_cast<int>(n))
          .empty());

  for (const int bad : {0, -3, static_cast<int>(n) + 1, 999}) {
    const std::string msg =
        compiler::pipeline_request_error(fx.program, bad);
    ASSERT_FALSE(msg.empty()) << bad;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(bad)), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(n)), std::string::npos) << msg;
  }
}

TEST(CliValidation, ValidatePipelineRequestCoversParseAndRangeAndStrategy) {
  const TightLeNetFixture fx;
  int stages = 0;

  EXPECT_TRUE(compiler::validate_pipeline_request(fx.program, "3", "balance",
                                                  &stages)
                  .empty());
  EXPECT_EQ(stages, 3);

  // Non-numeric stage counts get the same friendly one-liner treatment
  // instead of an uncaught std::stoi exception.
  for (const char* bad : {"two", "3x", "", "4 stages"}) {
    const std::string msg = compiler::validate_pipeline_request(
        fx.program, bad, "balance_latency", &stages);
    ASSERT_FALSE(msg.empty()) << "'" << bad << "'";
    EXPECT_NE(msg.find("invalid pipeline stage count"), std::string::npos)
        << msg;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
  }

  EXPECT_NE(compiler::validate_pipeline_request(fx.program, "99",
                                                "balance_latency", &stages)
                .find("cannot pipeline into 99"),
            std::string::npos);
  EXPECT_NE(compiler::validate_pipeline_request(fx.program, "2", "bogus",
                                                &stages)
                .find("unknown partition strategy"),
            std::string::npos);

  // For fit_resources the count is the available device pool, so any
  // positive size is a valid request — even one exceeding the op count.
  EXPECT_TRUE(
      compiler::validate_pipeline_request(fx.program, "99", "fit", &stages)
          .empty());
  EXPECT_EQ(stages, 99);
  EXPECT_NE(compiler::validate_pipeline_request(fx.program, "0",
                                                "fit_resources", &stages)
                .find("positive device count"),
            std::string::npos);
}

TEST(CliValidation, PartitionParseErrorsAreFriendlyOneLiners) {
  EXPECT_TRUE(compiler::partition_parse_error("balance_latency").empty());
  EXPECT_TRUE(compiler::partition_parse_error("balance").empty());
  EXPECT_TRUE(compiler::partition_parse_error("fit_resources").empty());
  EXPECT_TRUE(compiler::partition_parse_error("fit").empty());

  for (const char* bad : {"round_robin", "", "Balance_Latency"}) {
    const std::string msg = compiler::partition_parse_error(bad);
    ASSERT_FALSE(msg.empty()) << bad;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    EXPECT_NE(msg.find("balance_latency"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fit_resources"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace rsnn::engine
