#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>

#include "common/rng.hpp"

namespace rsnn::e2e {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::vector<Sample> run_traffic(const Traffic& traffic, const InferFn& infer) {
  Rng rng(traffic.seed);
  std::vector<Sample> samples;
  if (!traffic.saturate && traffic.rate_rps > 0.0) {
    const double mean_gap_ms = 1000.0 / traffic.rate_rps;
    for (double at = 0.0;;) {
      at += -std::log(1.0 - rng.next_double()) * mean_gap_ms;
      if (at >= traffic.seconds * 1000.0) break;
      Sample sample;
      sample.intended_ms = at;
      sample.input = static_cast<std::uint32_t>(rng.next_below(traffic.inputs));
      samples.push_back(sample);
    }
  }
  const std::size_t scheduled = samples.size();

  // A short lead lets every thread reach its first wait before the first
  // arrival is due.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(traffic.seconds));
  const auto call = [&](int connection, Sample& sample, std::int64_t id) {
    sample.sent_ms = ms_between(start, Clock::now());
    try {
      sample.ok = infer(connection, sample.input, sample.bulk, id);
    } catch (...) {
      sample.ok = false;
    }
    sample.done_ms = ms_between(start, Clock::now());
  };

  std::atomic<std::size_t> next_arrival{0};
  std::atomic<std::int64_t> next_closed_id{
      static_cast<std::int64_t>(scheduled)};
  std::mutex closed_mutex;
  std::vector<Sample> closed_samples;
  const auto open_loop = [&](int c) {
    // The default 50 µs timer slack would make every send that late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (;;) {
      const std::size_t i = next_arrival.fetch_add(1);
      if (i >= scheduled) break;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          samples[i].intended_ms)));
      call(c, samples[i], static_cast<std::int64_t>(i));
    }
  };
  const auto closed_loop = [&](int c, bool bulk) {
    Rng lane_rng(traffic.seed ^ (0x9E3779B97F4A7C15ull * (c + 1)));
    std::vector<Sample> mine;
    std::this_thread::sleep_until(start);
    while (Clock::now() < end) {
      Sample sample;
      sample.bulk = bulk;
      sample.input =
          static_cast<std::uint32_t>(lane_rng.next_below(traffic.inputs));
      sample.intended_ms = ms_between(start, Clock::now());
      call(c, sample, next_closed_id.fetch_add(1));
      mine.push_back(sample);
    }
    const std::lock_guard<std::mutex> lock(closed_mutex);
    closed_samples.insert(closed_samples.end(), mine.begin(), mine.end());
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < traffic.latency_connections; ++c) {
    if (traffic.saturate)
      threads.emplace_back(closed_loop, c, false);
    else
      threads.emplace_back(open_loop, c);
  }
  for (int b = 0; b < traffic.bulk_connections; ++b)
    threads.emplace_back(closed_loop, traffic.latency_connections + b, true);
  for (std::thread& thread : threads) thread.join();

  samples.insert(samples.end(), closed_samples.begin(), closed_samples.end());
  return samples;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

PhaseMetrics summarize(const std::vector<Sample>& samples, double seconds,
                       int windows) {
  PhaseMetrics out;
  const double window_ms = seconds * 1000.0 / windows;
  std::vector<std::vector<double>> latency(static_cast<std::size_t>(windows));
  std::vector<double> completions(static_cast<std::size_t>(windows), 0.0);
  std::vector<double> all_latency, lateness;
  for (const Sample& s : samples) {
    ++out.attempted;
    if (!s.ok) ++out.failed;
    const int done_window = static_cast<int>(s.done_ms / window_ms);
    if (s.ok && done_window >= 0 && done_window < windows)
      completions[static_cast<std::size_t>(done_window)] += 1.0;
    if (s.bulk) continue;
    const double ms = s.ok ? s.done_ms - s.intended_ms
                           : std::numeric_limits<double>::infinity();
    const int due_window =
        std::min(windows - 1, static_cast<int>(s.intended_ms / window_ms));
    latency[static_cast<std::size_t>(due_window)].push_back(ms);
    all_latency.push_back(ms);
    lateness.push_back(s.sent_ms - s.intended_ms);
  }
  std::vector<double> p50, p90, throughput;
  for (int w = 0; w < windows; ++w) {
    const auto& window = latency[static_cast<std::size_t>(w)];
    if (!window.empty()) {
      p50.push_back(quantile(window, 0.5));
      p90.push_back(quantile(window, 0.9));
    }
    throughput.push_back(completions[static_cast<std::size_t>(w)] * 1000.0 /
                         window_ms);
  }
  out.lat_p50_ms = median(p50);
  out.lat_p90_ms = median(p90);
  out.lat_p99_ms = quantile(all_latency, 0.99);
  out.lat_p999_ms = quantile(all_latency, 0.999);
  out.throughput_ips = median(throughput);
  out.late_ms_p90 = quantile(lateness, 0.9);
  out.latency_samples = all_latency.size();
  return out;
}

}  // namespace rsnn::e2e
