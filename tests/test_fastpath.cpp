// The simulator fast path (hw/fast_path) against the golden stepped
// dataflow. The accounting contract is non-negotiable: logits, cycles,
// adder ops and memory traffic must be bit-identical to SimMode::kStepped
// for every geometry, fused conv+pool pairs included — the fast path changes
// how the simulator iterates, never what it counts.
//
// Also covered here: the Arena bump allocator, the zero-allocation warm
// batched property, and segment-scoped fast-path execution (a fused
// conv+pool pair split by a pipeline cut).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "engine/engine.hpp"
#include "engine/serving_pool.hpp"
#include "hw/accelerator.hpp"
#include "hw/fast_path.hpp"
#include "ir/layer_program.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RSNN_SANITIZERS_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RSNN_SANITIZERS_ACTIVE 1
#endif
#endif

namespace rsnn::hw {
namespace {

using rsnn::testing::expect_bit_identical;
using rsnn::testing::random_image;

// ------------------------------------------------------------------ Arena

TEST(Arena, BumpAllocatesAndConsolidatesOnReset) {
  common::Arena arena;
  // First round: everything overflows the (empty) primary chunk.
  std::int64_t* a = arena.alloc<std::int64_t>(100);
  std::int32_t* b = arena.alloc<std::int32_t>(7);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a[99] = 42;
  b[6] = 7;
  const std::size_t demand = arena.round_bytes();
  EXPECT_GE(demand, 100 * sizeof(std::int64_t) + 7 * sizeof(std::int32_t));

  // Reset consolidates the round's demand into the primary chunk.
  arena.reset();
  EXPECT_GE(arena.capacity(), demand);
  EXPECT_EQ(arena.round_bytes(), 0u);

  // An identical round now bumps through the primary chunk; capacity stays.
  const std::size_t capacity = arena.capacity();
  std::int64_t* a2 = arena.alloc<std::int64_t>(100);
  arena.alloc<std::int32_t>(7);
  a2[0] = 1;
  EXPECT_EQ(arena.capacity(), capacity);
  EXPECT_EQ(arena.round_bytes(), demand);
  arena.reset();
  EXPECT_EQ(arena.capacity(), capacity);
}

TEST(Arena, BlocksAreMaxAligned) {
  common::Arena arena;
  for (int i = 0; i < 5; ++i) {
    const auto p = reinterpret_cast<std::uintptr_t>(arena.alloc<char>(3));
    EXPECT_EQ(p % alignof(std::max_align_t), 0u);
  }
}

// ------------------------------------------------------------ LeNet T=4

TEST(FastPath, LeNetBitIdenticalToStepped) {
  Rng rng(711);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const TensorI codes = quant::encode_activations(
      random_image(qnet.input_shape, rng), qnet.time_bits);

  const Accelerator accel(lenet_reference_config(), qnet);
  const AccelRunResult golden = accel.run_codes(codes, SimMode::kStepped);
  ASSERT_FALSE(golden.logits.empty());
  expect_bit_identical(accel.run_codes(codes, SimMode::kCycleAccurate),
                       golden);
}

// --------------------------------- geometry sweep: stride, padding, tiling

TEST(FastPath, StridePaddingTilingGeometriesMatchStepped) {
  const rsnn::testing::SweepConfig geometries[] = {
      {1, 4, 9, 3, 1, 0, 4},   // plain k3
      {2, 3, 9, 3, 2, 1, 3},   // stride 2 with padding
      {3, 5, 11, 5, 2, 2, 4},  // k5, stride 2, padding 2
      {2, 6, 12, 3, 1, 1, 5},  // padded, wide output (tiles with X=4)
  };
  int seed = 100;
  for (const auto& geometry : geometries) {
    SCOPED_TRACE("size=" + std::to_string(geometry.size) +
                 " k=" + std::to_string(geometry.kernel) +
                 " stride=" + std::to_string(geometry.stride) +
                 " pad=" + std::to_string(geometry.padding));
    Rng rng(seed++);
    nn::Network net = rsnn::testing::sweep_net(geometry, rng);
    const quant::QuantizedNetwork qnet = quant::quantize(
        net, quant::QuantizeConfig{3, geometry.time_bits});
    const TensorI codes = quant::encode_activations(
        random_image(qnet.input_shape, rng), qnet.time_bits);

    // array_columns = 4 forces output-row tiling on every geometry above.
    AcceleratorConfig cfg;
    cfg.conv = ConvUnitGeometry{4, 5, 24};
    cfg.linear = LinearUnitGeometry{8, 24};
    const Accelerator accel(cfg, qnet);
    expect_bit_identical(accel.run_codes(codes, SimMode::kCycleAccurate),
                         accel.run_codes(codes, SimMode::kStepped));
  }
}

// ----------------------------------------------- VGG-11 (DRAM streaming)

TEST(FastPath, Vgg11BitIdenticalToStepped) {
  Rng rng(37);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  const TensorI codes = quant::encode_activations(
      random_image(qnet.input_shape, rng), qnet.time_bits);

  const Accelerator accel(vgg11_table3_config(), qnet);
  ASSERT_TRUE(accel.uses_dram());
  expect_bit_identical(accel.run_codes(codes, SimMode::kCycleAccurate),
                       accel.run_codes(codes, SimMode::kStepped));
}

// ------------------------------------- segment cut through a fused pair

TEST(FastPath, SegmentCutBetweenFusedConvPoolMatchesWholeProgram) {
  Rng rng(55);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  const Accelerator accel(cfg, qnet);
  const ir::LayerProgram& program = accel.program();

  // The plan fuses the conv (op 0) with the pool (op 1); the cut at op 1
  // splits that pair, so segment [0, 1) must execute the conv unfused and
  // emit its own boundary codes.
  ASSERT_EQ(program.op(0).kind, ir::OpKind::kConv);
  ASSERT_TRUE(program.op(0).fuse_with_next);
  const TensorI codes = quant::encode_activations(
      random_image(qnet.input_shape, rng), qnet.time_bits);
  const AccelRunResult whole = accel.run_codes(codes, SimMode::kCycleAccurate);
  expect_bit_identical(whole, accel.run_codes(codes, SimMode::kStepped));

  Accelerator::WorkerState state = accel.make_worker_state();
  TensorI boundary;
  AccelRunResult merged = accel.run_codes_range(
      state, codes, 0, 1, SimMode::kCycleAccurate, &boundary);
  ASSERT_EQ(boundary.shape(), program.op(0).out_shape);
  merge_segment_result(merged,
                       accel.run_codes_range(state, boundary, 1,
                                             program.size(),
                                             SimMode::kCycleAccurate));
  finalize_run(merged, accel.config().cycle_ns());
  expect_bit_identical(merged, whole);
}

// ------------------------------------------------- int8 prepared pack

TEST(FastPathPrepared, Vgg11PackHoldsOneBytePerRepackedWeight) {
  Rng rng(38);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  const ir::LayerProgram program = ir::lower(qnet, vgg11_table3_config());
  const FastPrepared prep = prepare_fast_path(program);

  using PackedWeight = decltype(FastPrepared::OpPrep::weights)::value_type;
  static_assert(sizeof(PackedWeight) == 1, "one byte per prepared weight");
  constexpr std::int64_t kCols = common::simd::kGemmCols;
  constexpr std::int64_t kGroup = common::simd::kGemmGroup;
  std::int64_t weights = 0;
  for (std::size_t i = 0; i < program.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const ir::LayerOp& op = program.op(i);
    // One byte per weight, with each kernel row's k * cin bytes padded to
    // whole 4-byte groups and the output channels to whole 16-wide tiles.
    std::int64_t op_weights = 0, rows = 0, row_bytes = 0, cout = 0;
    if (op.kind == ir::OpKind::kConv) {
      op_weights = op.conv->weight.numel();
      rows = op.conv->kernel;
      row_bytes = op.conv->kernel * op.conv->in_channels;
      cout = op.conv->out_channels;
    }
    if (op.kind == ir::OpKind::kLinear) {
      op_weights = op.linear->weight.numel();
      rows = 1;
      row_bytes = op.linear->in_features;
      cout = op.linear->out_features;
    }
    EXPECT_EQ(op_weights, rows * row_bytes * cout);
    const std::int64_t padded_cout = (cout + kCols - 1) / kCols * kCols;
    const std::int64_t padded_row = (row_bytes + kGroup - 1) / kGroup * kGroup;
    const std::int64_t padded = padded_cout * rows * padded_row;
    EXPECT_EQ(static_cast<std::int64_t>(prep.ops[i].weights.size() *
                                        sizeof(PackedWeight)),
              padded);
    // VGG-11's widths are multiples of 16 and its rows of 4 bytes, except
    // the 3-channel first conv (9-byte rows) and the 10-class output layer.
    if (i != 0 && cout % kCols == 0) EXPECT_EQ(padded, op_weights);
    weights += op_weights;
  }
  EXPECT_GT(weights, 20'000'000) << "VGG-11 carries ~28M weights";
}

TEST(FastPathPrepared, WeightOutsideInt8OrWideCodesAreRefused) {
  Rng rng(39);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork valid =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  ASSERT_NO_THROW(prepare_fast_path(ir::lower(valid, cfg)));

  // A hand-built network around the quantizer: one weight of 200 in the
  // conv or in the linear layer.
  for (const bool in_conv : {true, false}) {
    SCOPED_TRACE(in_conv ? "conv" : "linear");
    quant::QuantizedNetwork qnet = valid;
    for (quant::QLayer& layer : qnet.layers) {
      if (auto* conv = std::get_if<quant::QConv2d>(&layer); conv && in_conv)
        conv->weight.at_flat(0) = 200;
      if (auto* fc = std::get_if<quant::QLinear>(&layer); fc && !in_conv)
        fc->weight.at_flat(0) = 200;
    }
    const ir::LayerProgram program = ir::lower(qnet, cfg);
    EXPECT_THROW(prepare_fast_path(program), ContractViolation);
  }

  // Codes wider than 16 bits do not fit the fast path's uint16 codes.
  quant::QuantizedNetwork wide = valid;
  wide.time_bits = 17;
  const ir::LayerProgram wide_program = ir::lower(wide, cfg);
  EXPECT_THROW(prepare_fast_path(wide_program), ContractViolation);
}

// ------------------------------------------------------- SIMD dispatch

TEST(Simd, KernelsMatchScalarOnRandomVectors) {
  const common::simd::Kernels& best = common::simd::kernels();
  const common::simd::Kernels& scalar = common::simd::scalar_kernels();
  constexpr int kRows = common::simd::kGemmRows;
  constexpr int kCols = common::simd::kGemmCols;
  constexpr int kGroup = common::simd::kGemmGroup;
  Rng rng(321);

  struct Case {
    int digit_bits;       // digits span [0, 2^d)
    std::int32_t max_w;   // weights span [-max_w, max_w] (or int8's ends)
    bool extremes;        // digits at 2^d - 1, weights at the range's ends
    std::int64_t flush;   // int32 flush interval; 0 = never
    const char* label;
  };
  const Case cases[] = {
      {8, 64, false, 0, "d8_random"},
      {8, 64, true, 0, "d8_digits_255_weights_pm64"},
      {7, 127, true, 0, "d7_digits_127_weights_int8_ends"},
      {7, 127, false, 0, "d7_random"},
      // The int32-to-int64 flush path: prepare sets it only for K beyond
      // ~33k groups, so the kernel is driven with a flush every 3 groups.
      {7, 127, true, 3, "d7_flush_every_3_groups"},
  };
  // M remainders (mr 1..4), K remainders (rows x groups), digit shifts,
  // and an N remainder (zero-weight channels past cout).
  for (const Case& c : cases) {
    for (int mr = 1; mr <= kRows; ++mr) {
      for (const std::int64_t rows : {1, 3}) {
        for (const std::int64_t groups : {1, 2, 5, 40}) {
          SCOPED_TRACE(std::string(c.label) + " mr=" + std::to_string(mr) +
                       " rows=" + std::to_string(rows) +
                       " groups=" + std::to_string(groups));
          const int max_digit = (1 << c.digit_bits) - 1;
          const std::int64_t row_stride = groups * kGroup + 3;
          std::vector<std::uint8_t> digits(
              static_cast<std::size_t>(kRows * rows * row_stride));
          for (std::size_t i = 0; i < digits.size(); ++i)
            digits[i] = static_cast<std::uint8_t>(
                c.extremes ? max_digit : rng.next_int(0, max_digit));
          std::vector<std::int8_t> w(
              static_cast<std::size_t>(rows * groups * kCols * kGroup));
          for (std::size_t i = 0; i < w.size(); ++i) {
            const int lo = c.max_w == 127 && c.extremes ? -128 : -c.max_w;
            w[i] = static_cast<std::int8_t>(
                c.extremes ? (i % 3 == 0 ? c.max_w : lo)
                           : rng.next_int(lo, c.max_w));
          }
          const std::uint8_t* a[kRows];
          for (int p = 0; p < kRows; ++p)
            a[p] = digits.data() + p * rows * row_stride;
          for (const int shift : {0, c.digit_bits}) {
            std::vector<std::int64_t> out_best(kRows * kCols), out_ref;
            for (auto& v : out_best) v = rng.next_int(-1000, 1000);
            out_ref = out_best;
            best.gemm_tile(a, row_stride, rows, groups, w.data(), c.flush,
                           shift, mr, out_best.data());
            scalar.gemm_tile(a, row_stride, rows, groups, w.data(), c.flush,
                             shift, mr, out_ref.data());
            EXPECT_EQ(out_best, out_ref) << "shift=" << shift;
          }
          // N remainder: a tile's channels past cout carry zero weights in
          // the pack, and must add exactly nothing to their outputs.
          constexpr int kLive = 6;
          std::vector<std::int8_t> w_live = w;
          for (std::size_t i = 0; i < w_live.size(); ++i)
            if (static_cast<int>(i / kGroup % kCols) >= kLive) w_live[i] = 0;
          std::vector<std::int64_t> out_best(kRows * kCols, 7), out_ref;
          out_ref = out_best;
          best.gemm_tile(a, row_stride, rows, groups, w_live.data(), c.flush,
                         0, mr, out_best.data());
          scalar.gemm_tile(a, row_stride, rows, groups, w_live.data(),
                           c.flush, 0, mr, out_ref.data());
          EXPECT_EQ(out_best, out_ref);
          for (int p = 0; p < kRows; ++p)
            for (int n = kLive; n < kCols; ++n)
              EXPECT_EQ(out_best[p * kCols + n], 7);
        }
      }
    }
  }

  // The scalar body is the exact reference: 2^8 - 1 digits against a
  // weight of 64 sum to 4 * 255 * 64 per group, shifted by the digit.
  const std::vector<std::uint8_t> ones(kGroup * 4, 255);
  const std::vector<std::int8_t> w64(kCols * kGroup, 64);
  const std::uint8_t* a[kRows] = {ones.data(), ones.data(), ones.data(),
                                  ones.data()};
  std::vector<std::int64_t> out(kRows * kCols, 0);
  best.gemm_tile(a, kGroup, 1, 1, w64.data(), 0, 8, kRows, out.data());
  EXPECT_EQ(out[0], std::int64_t{4} * 255 * 64 * 256);
  EXPECT_EQ(out[kRows * kCols - 1], std::int64_t{4} * 255 * 64 * 256);
}

TEST(Simd, ScopedForceScalarSwitchesDispatch) {
  ASSERT_STREQ(common::simd::scalar_kernels().isa, "scalar");
  const bool was_forced = common::simd::force_scalar_active();
  {
    common::simd::ScopedForceScalar force(true);
    EXPECT_TRUE(common::simd::force_scalar_active());
    EXPECT_STREQ(common::simd::active_isa(), "scalar");
  }
  EXPECT_EQ(common::simd::force_scalar_active(), was_forced);
}

TEST(FastPath, SimdAndScalarDispatchBitIdentical) {
  Rng rng(911);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const TensorI codes = quant::encode_activations(
      random_image(qnet.input_shape, rng), qnet.time_bits);

  const Accelerator accel(lenet_reference_config(), qnet);
  const AccelRunResult vec = accel.run_codes(codes, SimMode::kCycleAccurate);
  common::simd::ScopedForceScalar force(true);
  expect_bit_identical(accel.run_codes(codes, SimMode::kCycleAccurate), vec);
}

// --------------------------------------------------- batched fast path

/// Distinct random images, encoded for `qnet`.
std::vector<TensorI> random_code_batch(const quant::QuantizedNetwork& qnet,
                                       std::size_t count, Rng& rng) {
  std::vector<TensorI> codes;
  codes.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    codes.push_back(quant::encode_activations(
        random_image(qnet.input_shape, rng), qnet.time_bits));
  return codes;
}

/// Batched runs over every prefix size in `batch_sizes` must match the
/// sequential per-image runs record for record.
void expect_batched_matches_sequential(
    const Accelerator& accel, const std::vector<TensorI>& codes,
    std::initializer_list<std::size_t> batch_sizes, SimMode mode) {
  Accelerator::WorkerState state = accel.make_worker_state();
  std::vector<AccelRunResult> sequential(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i)
    accel.run_codes_into(state, codes[i], sequential[i], mode);

  for (const std::size_t batch : batch_sizes) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ASSERT_LE(batch, codes.size());
    std::vector<AccelRunResult> results(batch);
    accel.run_codes_batched_into(state, codes.data(), batch, results.data(),
                                 mode);
    for (std::size_t b = 0; b < batch; ++b) {
      SCOPED_TRACE("image " + std::to_string(b));
      expect_bit_identical(results[b], sequential[b]);
    }
  }
}

TEST(FastPathBatched, LeNetMatchesSequential) {
  Rng rng(812);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const std::vector<TensorI> codes = random_code_batch(qnet, 8, rng);

  const Accelerator accel(lenet_reference_config(), qnet);
  expect_batched_matches_sequential(accel, codes, {1, 3, 8},
                                    SimMode::kCycleAccurate);
}

TEST(FastPathBatched, Vgg11MatchesSequential) {
  Rng rng(814);
  nn::Network vgg = nn::make_vgg11();
  vgg.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(vgg, quant::QuantizeConfig{3, 3});
  const std::vector<TensorI> codes = random_code_batch(qnet, 8, rng);
  const Accelerator accel(vgg11_table3_config(), qnet);
  expect_batched_matches_sequential(accel, codes, {1, 3, 8},
                                    SimMode::kCycleAccurate);
}

TEST(FastPathBatched, SimdAndScalarDispatchBitIdentical) {
  Rng rng(815);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const std::vector<TensorI> codes = random_code_batch(qnet, 3, rng);
  const Accelerator accel(lenet_reference_config(), qnet);
  Accelerator::WorkerState state = accel.make_worker_state();

  std::vector<AccelRunResult> vec(codes.size());
  accel.run_codes_batched_into(state, codes.data(), codes.size(), vec.data());
  common::simd::ScopedForceScalar force(true);
  std::vector<AccelRunResult> scalar(codes.size());
  accel.run_codes_batched_into(state, codes.data(), codes.size(),
                               scalar.data());
  for (std::size_t b = 0; b < codes.size(); ++b) {
    SCOPED_TRACE("image " + std::to_string(b));
    expect_bit_identical(scalar[b], vec[b]);
  }
}

TEST(FastPathBatched, SteppedModeFallsBackToSequentialLoop) {
  Rng rng(816);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  const Accelerator accel(cfg, qnet);
  const std::vector<TensorI> codes = random_code_batch(qnet, 3, rng);
  expect_batched_matches_sequential(accel, codes, {3}, SimMode::kStepped);
}

TEST(FastPathBatched, WarmBatchedInferenceAllocatesNothing) {
#ifdef RSNN_SANITIZERS_ACTIVE
  GTEST_SKIP() << "allocation counting is not meaningful under sanitizers";
#else
  Rng rng(817);
  nn::Network net = rsnn::testing::small_random_net(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(net, quant::QuantizeConfig{3, 4});
  AcceleratorConfig cfg;
  cfg.conv = ConvUnitGeometry{16, 3, 24};
  cfg.pool = PoolUnitGeometry{8, 2, 16};
  cfg.linear = LinearUnitGeometry{8, 24};
  const Accelerator accel(cfg, qnet);
  const std::vector<TensorI> codes = random_code_batch(qnet, 8, rng);
  Accelerator::WorkerState state = accel.make_worker_state();
  std::vector<AccelRunResult> results(codes.size());

  // Two warm batches: the first builds the prepared weights and sizes every
  // scratch buffer; the second consolidates the arena's primary chunk.
  accel.run_codes_batched_into(state, codes.data(), codes.size(),
                               results.data());
  accel.run_codes_batched_into(state, codes.data(), codes.size(),
                               results.data());
  const AccelRunResult warm = results.at(0);

  const std::uint64_t before = common::allocation_count();
  ASSERT_GT(before, 0u) << "allocation hook not linked";
  accel.run_codes_batched_into(state, codes.data(), codes.size(),
                               results.data());
  const std::uint64_t after = common::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "warm batched fast-path inference must not touch the heap";
  expect_bit_identical(results.at(0), warm);
#endif
}

// -------------------------------------- replica-shared prepared weights

TEST(FastPathShared, AcceleratorsOverSameNetworkShareOnePack) {
  Rng rng(905);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const AcceleratorConfig cfg = lenet_reference_config();
  const Accelerator a(cfg, qnet);
  const Accelerator b(cfg, qnet);

  const std::uint64_t before = fast_prepared_build_count();
  const std::shared_ptr<const FastPrepared> pa = a.fast_prepared_shared();
  const std::shared_ptr<const FastPrepared> pb = b.fast_prepared_shared();
  ASSERT_NE(pa, nullptr);
  EXPECT_EQ(pa.get(), pb.get()) << "replicas must share one prepared pack";
  EXPECT_EQ(fast_prepared_build_count() - before, 1u)
      << "two accelerators over the same program must build exactly once";

  // Another network with the same weights is a different pack: sharing
  // keys on the weights' identity, not on their values.
  const quant::QuantizedNetwork copy = qnet;
  const Accelerator c(cfg, copy);
  EXPECT_NE(c.fast_prepared_shared().get(), pa.get());
}

TEST(FastPathShared, ServingReplicasReuseTheSharedPack) {
  Rng rng(906);
  nn::Network lenet = nn::make_lenet5();
  lenet.init_params(rng);
  const quant::QuantizedNetwork qnet =
      quant::quantize(lenet, quant::QuantizeConfig{3, 4});
  const ir::LayerProgram program = ir::lower(qnet, lenet_reference_config());
  const std::vector<TensorI> codes = random_code_batch(qnet, 8, rng);

  // Build the pack once up front (and hold it live through `warm`): every
  // replica the pool spins up must then attach to it without building.
  auto warm =
      engine::make_engine(engine::EngineKind::kCycleAccurate, program);
  AccelRunResult tmp;
  warm->run_codes_into(codes[0], tmp);
  const std::uint64_t before = fast_prepared_build_count();

  engine::ServingPoolOptions opts;
  opts.replicas = 2;
  {
    engine::ServingPool pool(program, engine::EngineKind::kCycleAccurate,
                             opts);
    const auto run = rsnn::testing::serve_batch(pool, codes);
    // Shared prepared weights never blur the results: every served answer
    // matches the warm monolithic engine bit for bit.
    for (std::size_t i = 0; i < codes.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      ASSERT_EQ(run[i].status, engine::RequestStatus::kOk) << run[i].error;
      warm->run_codes_into(codes[i], tmp);
      EXPECT_EQ(run[i].result.logits, tmp.logits);
    }
  }
  EXPECT_EQ(fast_prepared_build_count(), before)
      << "serving replicas must reuse the shared prepared pack, not rebuild";
}

// ------------------------------------------------------- mode plumbing

static_assert(SimMode::kAnalytic == SimMode::kCycleAccurate,
              "kAnalytic is an alias of the fast-path mode");

TEST(FastPath, SteppedEngineIsRegisteredEverywhere) {
  EXPECT_EQ(engine::parse_engine("stepped"), engine::EngineKind::kStepped);
  EXPECT_STREQ(engine::engine_name(engine::EngineKind::kStepped), "stepped");
  bool found = false;
  for (const engine::EngineKind kind : engine::all_engines())
    found = found || kind == engine::EngineKind::kStepped;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace rsnn::hw
