// LatencyHistogram: a fixed-size log-linear histogram of durations.
//
// Buckets are microseconds with 32 linear sub-buckets per power of two, up to
// 2^40 us (~12.7 days; longer values land in the last bucket): 1,152 counters
// (~9 KB) whatever the number of samples. record() is O(1) and a quantile
// walks the counters without copying or sorting. A quantile is reported as
// its bucket's midpoint: above 32 us a bucket spans 1/32 of its lower bound,
// so the result is within 1/32 of the exact order statistic.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace rsnn::common {

class LatencyHistogram {
 public:
  /// Count one duration of `ms` milliseconds (negative or NaN counts as 0).
  void record(double ms) {
    const double us = ms * 1000.0;
    const std::uint64_t v =
        us >= 1.0 ? (us < kMaxUs ? static_cast<std::uint64_t>(us) : kMaxUs - 1)
                  : 0;
    ++counts_[bucket(v)];
    ++total_;
  }

  /// The sample at rank floor(q * (count - 1)) in ascending order, as its
  /// bucket's midpoint in milliseconds; 0 when empty.
  double quantile_ms(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) {
        const std::uint64_t width =
            i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
        const std::uint64_t lower = i < kSub ? i : (kSub + i % kSub) * width;
        return (static_cast<double>(lower) + 0.5 * static_cast<double>(width)) /
               1000.0;
      }
    }
    return 0.0;
  }

  std::uint64_t count() const { return total_; }

  void clear() {
    counts_.fill(0);
    total_ = 0;
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;  ///< linear sub-buckets per octave
  static constexpr int kMaxExp = 40;          ///< values up to 2^40 us
  static constexpr std::uint64_t kMaxUs = std::uint64_t{1} << kMaxExp;
  static constexpr int kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

  /// Values below 32 us get one bucket per microsecond; above, octave e
  /// (2^e <= v < 2^(e+1)) splits into 32 buckets of width 2^(e-5).
  static int bucket(std::uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int e = std::bit_width(v) - 1;
    return kSub * (e - kSubBits + 1) +
           static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace rsnn::common
