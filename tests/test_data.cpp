#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/idx_loader.hpp"
#include "data/synth_digits.hpp"
#include "data/synth_objects.hpp"

namespace rsnn::data {
namespace {

TEST(SynthDigits, DeterministicGivenSeed) {
  SynthDigitsConfig cfg;
  cfg.num_samples = 20;
  const Dataset a = make_synth_digits(cfg);
  const Dataset b = make_synth_digits(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.images[i], b.images[i]);
    EXPECT_EQ(a.labels[i], b.labels[i]);
  }
}

TEST(SynthDigits, DifferentSeedsDiffer) {
  SynthDigitsConfig a_cfg, b_cfg;
  a_cfg.num_samples = b_cfg.num_samples = 10;
  b_cfg.seed = 999;
  const Dataset a = make_synth_digits(a_cfg);
  const Dataset b = make_synth_digits(b_cfg);
  EXPECT_NE(a.images[0], b.images[0]);
}

TEST(SynthDigits, PixelRangeIsRadixEncodable) {
  SynthDigitsConfig cfg;
  cfg.num_samples = 50;
  const Dataset d = make_synth_digits(cfg);
  for (const auto& img : d.images) {
    EXPECT_EQ(img.shape(), Shape({1, 32, 32}));
    EXPECT_GE(img.min(), 0.0f);
    EXPECT_LT(img.max(), 1.0f);
  }
}

TEST(SynthDigits, BalancedClasses) {
  SynthDigitsConfig cfg;
  cfg.num_samples = 100;
  const Dataset d = make_synth_digits(cfg);
  const auto hist = class_histogram(d);
  for (const auto count : hist) EXPECT_EQ(count, 10u);
}

TEST(SynthDigits, DigitsAreVisuallyDistinct) {
  // Render each digit with no jitter; pairwise pixel distance must be
  // substantial, otherwise the classification task would be degenerate.
  Rng rng(1);
  std::vector<TensorF> digits;
  for (int d = 0; d < 10; ++d)
    digits.push_back(
        render_digit(d, 32, 0, 0, 1.0, 0.0, 0.4, 0.9, 0.0, rng));
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      double dist = 0.0;
      for (std::int64_t i = 0; i < digits[a].numel(); ++i) {
        const double diff = digits[a].at_flat(i) - digits[b].at_flat(i);
        dist += diff * diff;
      }
      EXPECT_GT(dist, 1.0) << "digits " << a << " and " << b << " too similar";
    }
  }
}

TEST(SynthDigits, SamplesOfSameClassVary) {
  SynthDigitsConfig cfg;
  cfg.num_samples = 30;
  const Dataset d = make_synth_digits(cfg);
  // samples 0, 10, 20 are all digit 0 with different transforms.
  EXPECT_NE(d.images[0], d.images[10]);
  EXPECT_NE(d.images[10], d.images[20]);
}

TEST(SynthDigits, CustomCanvas) {
  SynthDigitsConfig cfg;
  cfg.canvas = 16;
  cfg.num_samples = 5;
  const Dataset d = make_synth_digits(cfg);
  EXPECT_EQ(d.sample_shape(), Shape({1, 16, 16}));
}

TEST(SynthObjects, ShapeAndRange) {
  SynthObjectsConfig cfg;
  cfg.num_samples = 50;
  cfg.num_classes = 10;
  const Dataset d = make_synth_objects(cfg);
  EXPECT_EQ(d.sample_shape(), Shape({3, 32, 32}));
  for (const auto& img : d.images) {
    EXPECT_GE(img.min(), 0.0f);
    EXPECT_LT(img.max(), 1.0f);
  }
}

TEST(SynthObjects, Deterministic) {
  SynthObjectsConfig cfg;
  cfg.num_samples = 8;
  const Dataset a = make_synth_objects(cfg);
  const Dataset b = make_synth_objects(cfg);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.images[i], b.images[i]);
}

TEST(SynthObjects, HundredClassesBalanced) {
  SynthObjectsConfig cfg;
  cfg.num_samples = 200;
  const Dataset d = make_synth_objects(cfg);
  EXPECT_EQ(d.num_classes, 100);
  const auto hist = class_histogram(d);
  for (const auto count : hist) EXPECT_EQ(count, 2u);
}

TEST(SynthObjects, ClassStylesDiffer) {
  SynthObjectsConfig cfg;
  cfg.num_samples = 100;
  cfg.noise_stddev = 0.0;
  const Dataset d = make_synth_objects(cfg);
  // Compare class 0 and class 1 prototypes.
  double dist = 0.0;
  for (std::int64_t i = 0; i < d.images[0].numel(); ++i) {
    const double diff = d.images[0].at_flat(i) - d.images[1].at_flat(i);
    dist += diff * diff;
  }
  EXPECT_GT(dist, 5.0);
}

TEST(Dataset, SplitFractions) {
  SynthDigitsConfig cfg;
  cfg.num_samples = 100;
  const Dataset d = make_synth_digits(cfg);
  const TrainTestSplit s = split(d, 0.8);
  EXPECT_EQ(s.train.size(), 80u);
  EXPECT_EQ(s.test.size(), 20u);
  EXPECT_EQ(s.train.num_classes, 10);
}

TEST(Dataset, TakeClamps) {
  SynthDigitsConfig cfg;
  cfg.num_samples = 10;
  const Dataset d = make_synth_digits(cfg);
  EXPECT_EQ(d.take(3).size(), 3u);
  EXPECT_EQ(d.take(100).size(), 10u);
}

TEST(Dataset, AppendChecksClassCount) {
  Dataset a, b;
  a.num_classes = 10;
  b.num_classes = 5;
  EXPECT_THROW(a.append(b), ContractViolation);
}

TEST(IdxLoader, MissingFilesReturnNullopt) {
  EXPECT_FALSE(load_mnist("/nonexistent_dir", true).has_value());
  EXPECT_FALSE(
      load_idx_pair("/no/file1", "/no/file2", 32).has_value());
}

TEST(IdxLoader, ParsesWellFormedFiles) {
  // Write a 2-image 3x3 IDX pair and read it back.
  const std::string img_path = ::testing::TempDir() + "/imgs.idx";
  const std::string lbl_path = ::testing::TempDir() + "/lbls.idx";
  {
    std::ofstream img(img_path, std::ios::binary);
    const unsigned char img_header[] = {0, 0, 8, 3, 0, 0, 0, 2,
                                        0, 0, 0, 3, 0, 0, 0, 3};
    img.write(reinterpret_cast<const char*>(img_header), sizeof(img_header));
    for (int i = 0; i < 18; ++i) {
      const unsigned char pixel = static_cast<unsigned char>(i * 14);
      img.write(reinterpret_cast<const char*>(&pixel), 1);
    }
    std::ofstream lbl(lbl_path, std::ios::binary);
    const unsigned char lbl_header[] = {0, 0, 8, 1, 0, 0, 0, 2};
    lbl.write(reinterpret_cast<const char*>(lbl_header), sizeof(lbl_header));
    const unsigned char labels[] = {7, 2};
    lbl.write(reinterpret_cast<const char*>(labels), 2);
  }
  const auto d = load_idx_pair(img_path, lbl_path, 5);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->size(), 2u);
  EXPECT_EQ(d->labels[0], 7);
  EXPECT_EQ(d->labels[1], 2);
  EXPECT_EQ(d->sample_shape(), Shape({1, 5, 5}));
  // Padding centers the 3x3 image: corner pixel (0,0) of the canvas is 0.
  EXPECT_FLOAT_EQ(d->images[0](0, 0, 0), 0.0f);
  // First image pixel lands at (1,1).
  EXPECT_NEAR(d->images[0](0, 1, 1), 0.0f, 1e-6f);
  EXPECT_GT(d->images[0](0, 1, 2), 0.0f);
  std::remove(img_path.c_str());
  std::remove(lbl_path.c_str());
}

}  // namespace
}  // namespace rsnn::data
