// Partitioned execution: stage engines chained over ProgramSegments must be
// bit-identical to monolithic execution on every engine, per-segment
// resource/power reports must sum exactly to the monolithic reports, and the
// compiler partitioners must produce valid, optimal/feasible partitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "compiler/partition.hpp"
#include "engine/engine.hpp"
#include "hw/accelerator.hpp"
#include "hw/power_model.hpp"
#include "hw/resource_model.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

namespace rsnn::engine {
namespace {

using rsnn::testing::expect_bit_identical;

/// LeNet-5 at T=4 on the paper's reference design — the acceptance workload.
struct LeNetFixture {
  quant::QuantizedNetwork qnet;
  ir::LayerProgram program;

  LeNetFixture() {
    Rng rng(2024);
    nn::Network lenet = nn::make_lenet5();
    lenet.init_params(rng);
    qnet = quant::quantize(lenet, quant::QuantizeConfig{3, 4});
    program = ir::lower(qnet, hw::lenet_reference_config());
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

// ---------------------------------------------------- segment model (ir)

TEST(ProgramSegments, MakeSegmentsComputesBoundariesAndAggregates) {
  const LeNetFixture fx;
  const auto segments = ir::make_segments(fx.program, {3, 5});
  ASSERT_EQ(segments.size(), 3u);

  EXPECT_EQ(segments[0].begin, 0u);
  EXPECT_EQ(segments[0].end, 3u);
  EXPECT_EQ(segments[1].begin, 3u);
  EXPECT_EQ(segments[1].end, 5u);
  EXPECT_EQ(segments[2].begin, 5u);
  EXPECT_EQ(segments[2].end, fx.program.size());
  EXPECT_FALSE(segments[0].final_segment);
  EXPECT_TRUE(segments[2].final_segment);

  // Cut interfaces: a segment's in_shape is its predecessor's out_shape.
  EXPECT_EQ(segments[0].in_shape, fx.program.op(0).in_shape);
  EXPECT_EQ(segments[1].in_shape, segments[0].out_shape);
  EXPECT_EQ(segments[2].in_shape, segments[1].out_shape);

  // Aggregates sum to the monolithic program totals.
  std::int64_t cycles = 0, params = 0;
  for (const auto& seg : segments) {
    cycles += seg.predicted_cycles;
    params += seg.param_bits;
  }
  EXPECT_EQ(cycles, fx.program.predicted_total_cycles());
  std::int64_t op_params = 0;
  for (const ir::LayerOp& op : fx.program.ops()) op_params += op.param_bits;
  EXPECT_EQ(params, op_params);

  // A segment downstream of the flatten enters through the 1-D buffers.
  const auto around_flatten =
      ir::make_segments(fx.program, {fx.program.size() - 1});
  EXPECT_TRUE(around_flatten[1].in_is_1d);
  EXPECT_FALSE(around_flatten[0].in_is_1d);
}

TEST(ProgramSegments, RejectsInvalidCuts) {
  const LeNetFixture fx;
  EXPECT_THROW(ir::make_segments(fx.program, {0}), ContractViolation);
  EXPECT_THROW(ir::make_segments(fx.program, {fx.program.size()}),
               ContractViolation);
  EXPECT_THROW(ir::make_segments(fx.program, {4, 4}), ContractViolation);
  EXPECT_THROW(ir::make_segments(fx.program, {5, 3}), ContractViolation);
}

// ------------------------------------------------------- partitioners

TEST(Partitioners, BalanceLatencyMinimizesBottleneck) {
  const LeNetFixture fx;
  const std::size_t n = fx.program.size();
  const auto bottleneck = [&](const std::vector<ir::ProgramSegment>& segs) {
    std::int64_t worst = 0;
    for (const auto& seg : segs) worst = std::max(worst, seg.predicted_cycles);
    return worst;
  };

  for (const int k : {1, 2, 3, 4}) {
    const auto segments =
        compiler::partition_balance_latency(fx.program, k);
    ASSERT_EQ(segments.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(segments.front().begin, 0u);
    EXPECT_EQ(segments.back().end, n);

    // Exhaustively verify optimality for small k: no choice of cut points
    // achieves a smaller maximum segment latency.
    if (k == 2) {
      for (std::size_t cut = 1; cut < n; ++cut)
        EXPECT_LE(bottleneck(segments),
                  bottleneck(ir::make_segments(fx.program, {cut})));
    }
    if (k == 3) {
      for (std::size_t a = 1; a < n; ++a)
        for (std::size_t b = a + 1; b < n; ++b)
          EXPECT_LE(bottleneck(segments),
                    bottleneck(ir::make_segments(fx.program, {a, b})));
    }
  }

  EXPECT_THROW(compiler::partition_balance_latency(fx.program, 0),
               ContractViolation);
  EXPECT_THROW(compiler::partition_balance_latency(
                   fx.program, static_cast<int>(n) + 1),
               ContractViolation);
}

TEST(Partitioners, FitResourcesPacksUnderDeviceBudget) {
  const LeNetFixture fx;
  std::int64_t total_bits = 0, largest = 0;
  for (const ir::LayerOp& op : fx.program.ops()) {
    total_bits += op.param_bits;
    largest = std::max(largest, op.param_bits);
  }

  // A device that holds the whole model needs no pipeline.
  EXPECT_EQ(compiler::partition_fit_resources(fx.program, total_bits).size(),
            1u);

  // A budget of the largest single layer: every segment must fit, or be a
  // singleton (that device streams from DRAM).
  const auto tight = compiler::partition_fit_resources(fx.program, largest);
  EXPECT_GT(tight.size(), 1u);
  for (const auto& seg : tight)
    EXPECT_TRUE(seg.param_bits <= largest || seg.size() == 1)
        << "segment [" << seg.begin << ", " << seg.end << ")";

  // A budget below the largest layer forces that layer into a singleton.
  const auto starved =
      compiler::partition_fit_resources(fx.program, largest / 2);
  bool found_singleton_over_budget = false;
  for (const auto& seg : starved)
    if (seg.size() == 1 && seg.param_bits > largest / 2)
      found_singleton_over_budget = true;
  EXPECT_TRUE(found_singleton_over_budget);

  EXPECT_THROW(compiler::partition_fit_resources(fx.program, 0),
               ContractViolation);
}

TEST(Partitioners, ParsePartitionNamesRoundTrip) {
  using compiler::PartitionStrategy;
  EXPECT_EQ(compiler::parse_partition("balance_latency"),
            PartitionStrategy::kBalanceLatency);
  EXPECT_EQ(compiler::parse_partition("balance"),
            PartitionStrategy::kBalanceLatency);
  EXPECT_EQ(compiler::parse_partition("fit_resources"),
            PartitionStrategy::kFitResources);
  EXPECT_EQ(compiler::parse_partition("fit"),
            PartitionStrategy::kFitResources);
  EXPECT_STREQ(compiler::partition_name(PartitionStrategy::kBalanceLatency),
               "balance_latency");
  EXPECT_STREQ(compiler::partition_name(PartitionStrategy::kFitResources),
               "fit_resources");
  EXPECT_THROW(compiler::parse_partition("round_robin"), ContractViolation);
  EXPECT_THROW(compiler::parse_partition(""), ContractViolation);
}

// ------------------------------------- chained stage engines (acceptance)

/// For every engine, a 2- and 3-segment LeNet chain must produce
/// bit-identical logits and identical summed cycles / adder ops / traffic
/// to the monolithic run.
class PipelineEquivalence : public ::testing::TestWithParam<EngineKind> {};

TEST_P(PipelineEquivalence, LeNetSegmentedMatchesMonolithic) {
  const LeNetFixture fx;
  const auto batch = lenet_batch(4, fx.qnet.time_bits);

  const auto monolithic = make_engine(GetParam(), fx.program);
  std::vector<hw::AccelRunResult> reference;
  for (const TensorI& codes : batch)
    reference.push_back(monolithic->run_codes(codes));

  for (const int stages : {2, 3}) {
    const auto segments =
        compiler::partition_balance_latency(fx.program, stages);
    const auto engines = make_stage_engines(GetParam(), fx.program, segments);
    ASSERT_EQ(engines.size(), static_cast<std::size_t>(stages));

    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << stages << " stages, image " << i);
      const hw::AccelRunResult chained = run_stages(engines, batch[i]);
      ASSERT_EQ(chained.layers.size(), fx.program.size());
      expect_bit_identical(chained, reference[i]);
    }

    // A second pass through the same warm stage engines (reused execution
    // state) must agree as well.
    for (std::size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(run_stages(engines, batch[i]).logits, reference[i].logits)
          << "warm image " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PipelineEquivalence,
    ::testing::Values(EngineKind::kCycleAccurate, EngineKind::kBehavioral,
                      EngineKind::kReference),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      return std::string(engine_name(info.param));
    });

TEST(Pipeline, EveryInteriorCutMatchesMonolithicCycleAccurate) {
  // Sweep every 2-stage cut position (including right after the flatten, the
  // 1-D entry path) on the bit-true engine.
  const LeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);
  const auto monolithic =
      make_engine(EngineKind::kCycleAccurate, fx.program);
  const hw::AccelRunResult ref = monolithic->run_codes(batch[0]);

  for (std::size_t cut = 1; cut < fx.program.size(); ++cut) {
    SCOPED_TRACE(::testing::Message() << "cut at op " << cut);
    const auto engines =
        make_stage_engines(EngineKind::kCycleAccurate, fx.program,
                           ir::make_segments(fx.program, {cut}));
    expect_bit_identical(run_stages(engines, batch[0]), ref);
  }
}

TEST(Pipeline, SegmentEnginesComposeManually) {
  // run_segment chaining by hand (no helper): boundary codes of stage s
  // feed stage s+1; merged stats equal the monolithic run.
  const LeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);
  const auto monolithic = make_engine(EngineKind::kCycleAccurate, fx.program);
  const hw::AccelRunResult ref = monolithic->run_codes(batch[0]);

  const auto segments = compiler::partition_balance_latency(fx.program, 3);
  hw::AccelRunResult merged;
  TensorI codes = batch[0];
  for (const auto& seg : segments) {
    auto engine = make_engine(EngineKind::kCycleAccurate, fx.program, seg);
    EXPECT_EQ(engine->segment().begin, seg.begin);
    SegmentRunResult stage = engine->run_segment(codes);
    hw::merge_segment_result(merged, std::move(stage.stats));
    if (!seg.final_segment) {
      EXPECT_EQ(stage.boundary_codes.shape(), seg.out_shape);
      codes = std::move(stage.boundary_codes);
    }
  }
  hw::finalize_run(merged, fx.program.config().cycle_ns());
  expect_bit_identical(merged, ref);

  // Stage engines refuse the whole-program entry point.
  auto stage = make_engine(EngineKind::kCycleAccurate, fx.program, segments[1]);
  EXPECT_THROW(stage->run_codes(batch[0]), ContractViolation);
}

TEST(Pipeline, EmptyBatchAndShapeErrors) {
  const LeNetFixture fx;
  const auto segments = compiler::partition_balance_latency(fx.program, 2);
  const auto engines =
      make_stage_engines(EngineKind::kReference, fx.program, segments);
  const auto batch = lenet_batch(2, fx.qnet.time_bits);

  EXPECT_THROW(run_stages({}, batch[0]), ContractViolation);

  // A malformed image fails with the stage's contract violation and leaves
  // the stage engines usable.
  EXPECT_THROW(run_stages(engines, TensorI(Shape{1, 8, 8})),
               ContractViolation);
  for (const TensorI& codes : batch)
    EXPECT_FALSE(run_stages(engines, codes).logits.empty());
}

TEST(Pipeline, StageEnginesRejectMalformedPartitions) {
  // Every segment below is valid on its own, so each rejection comes from
  // the partition checks, and names what is wrong with the list.
  const LeNetFixture fx;
  const auto three = ir::make_segments(fx.program, {3, 5});
  const auto two = ir::make_segments(fx.program, {4});
  const auto relowered =
      ir::make_segments(fx.program, {4}, ir::SegmentLowering::kRelower);
  const auto expect_rejected =
      [&](const std::vector<ir::ProgramSegment>& segments,
          const std::string& reason) {
        try {
          make_stage_engines(EngineKind::kReference, fx.program, segments);
          ADD_FAILURE() << "expected ContractViolation: " << reason;
        } catch (const ContractViolation& e) {
          EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
              << e.what();
        }
      };

  expect_rejected({}, "at least one segment");
  expect_rejected({three[1], three[2]}, "cover the whole program");
  expect_rejected({three[0], three[1]}, "cover the whole program");
  expect_rejected({three[0], three[2]}, "contiguous");           // gap
  expect_rejected({two[0], three[1], three[2]}, "contiguous");   // overlap
  expect_rejected({two[0], relowered[1]}, "mix inherited and re-lowered");
  expect_rejected({relowered[0], two[1]}, "mix inherited and re-lowered");

  EXPECT_EQ(
      make_stage_engines(EngineKind::kReference, fx.program, three).size(),
      3u);
  EXPECT_EQ(make_stage_engines(EngineKind::kReference, fx.program, relowered)
                .size(),
            2u);
}

// ------------------------------- resource / power partition (acceptance)

TEST(Pipeline, SegmentResourceReportsSumToMonolithic) {
  const LeNetFixture fx;
  const hw::ResourceEstimate whole = hw::estimate_resources(fx.program);
  EXPECT_GT(whole.luts, 0);
  EXPECT_GT(whole.bram_bits, 0);

  for (const int stages : {2, 3, 4}) {
    const auto segments =
        compiler::partition_balance_latency(fx.program, stages);
    const auto parts = hw::partition_resources(fx.program, segments);
    ASSERT_EQ(parts.size(), segments.size());

    hw::ResourceEstimate sum;
    for (const auto& part : parts) {
      EXPECT_GE(part.luts, 0);
      EXPECT_GE(part.flip_flops, 0);
      EXPECT_GE(part.bram_bits, 0);
      sum += part;
    }
    EXPECT_EQ(sum.luts, whole.luts) << stages << " stages";
    EXPECT_EQ(sum.flip_flops, whole.flip_flops) << stages << " stages";
    EXPECT_EQ(sum.bram_bits, whole.bram_bits) << stages << " stages";

    // Each segment carries exactly its own on-chip parameter storage.
    for (std::size_t s = 0; s < parts.size(); ++s)
      EXPECT_GE(parts[s].bram_bits, segments[s].onchip_param_bits);
  }
}

TEST(Pipeline, SegmentPowerReportsSumToMonolithic) {
  const LeNetFixture fx;
  const auto batch = lenet_batch(1, fx.qnet.time_bits);
  const auto engine = make_engine(EngineKind::kCycleAccurate, fx.program);
  const hw::AccelRunResult run = engine->run_codes(batch[0]);

  const hw::ResourceEstimate resources = hw::estimate_resources(fx.program);
  const hw::PowerBreakdown whole = hw::estimate_power(
      fx.program.config(), resources, run, fx.program.uses_dram());

  const auto segments = compiler::partition_balance_latency(fx.program, 3);
  const auto seg_resources = hw::partition_resources(fx.program, segments);
  const auto seg_power =
      hw::partition_power(fx.program.config(), seg_resources, segments, run,
                          fx.program.uses_dram());
  ASSERT_EQ(seg_power.size(), segments.size());

  hw::PowerBreakdown sum;
  for (const auto& p : seg_power) {
    EXPECT_GE(p.total_w(), 0.0);
    sum.static_w += p.static_w;
    sum.clock_w += p.clock_w;
    sum.logic_w += p.logic_w;
    sum.bram_w += p.bram_w;
    sum.dram_w += p.dram_w;
  }
  EXPECT_DOUBLE_EQ(sum.static_w, whole.static_w);
  EXPECT_DOUBLE_EQ(sum.clock_w, whole.clock_w);
  EXPECT_DOUBLE_EQ(sum.logic_w, whole.logic_w);
  EXPECT_DOUBLE_EQ(sum.bram_w, whole.bram_w);
  EXPECT_DOUBLE_EQ(sum.dram_w, whole.dram_w);
}

}  // namespace
}  // namespace rsnn::engine
