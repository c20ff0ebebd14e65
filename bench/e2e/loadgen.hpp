// Open-loop load generator. Latency-lane arrivals follow a seeded Poisson
// schedule and are sent on time whether or not earlier requests have
// answered; each request's latency is timed from when it was due, so a stall
// also charges the requests queued behind it. Bulk lanes are closed loops that
// send their next request as soon as the previous one answers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace rsnn::e2e {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `from` to `to`.
double ms_between(Clock::time_point from, Clock::time_point to);

struct Traffic {
  double seconds = 0.0;
  double rate_rps = 0.0;        ///< latency-lane Poisson arrival rate
  int latency_connections = 0;  ///< connections sharing the latency lane
  int bulk_connections = 0;     ///< closed-loop bulk connections
  std::uint64_t seed = 0;       ///< arrival times and input choice
  std::size_t inputs = 0;       ///< distinct inputs to draw from
  /// Run the latency-lane connections closed loop too (no schedule): the
  /// highest rate the daemon sustains with this many connections.
  bool saturate = false;
};

/// One Infer as the generator saw it, in ms since the phase started.
struct Sample {
  double intended_ms = 0.0;  ///< when it was due (bulk: when it was sent)
  double sent_ms = 0.0;
  double done_ms = 0.0;
  std::uint32_t input = 0;
  bool bulk = false;
  bool ok = false;  ///< kOk and equal to its golden output
};

/// Send one Infer of `input` and report whether it came back kOk and equal to
/// its golden output. Connections 0..latency_connections-1 carry the latency
/// lane, the rest the bulk lane; each connection is driven by one thread.
using InferFn = std::function<bool(int connection, std::size_t input,
                                   bool bulk, std::int64_t request)>;

/// Run `traffic` through `infer` and return one sample per request sent.
std::vector<Sample> run_traffic(const Traffic& traffic, const InferFn& infer);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

struct PhaseMetrics {
  double lat_p50_ms = 0.0;      ///< median over windows of the window p50
  double lat_p90_ms = 0.0;      ///< median over windows of the window p90
  double lat_p99_ms = 0.0;      ///< whole phase (diagnostic)
  double lat_p999_ms = 0.0;     ///< whole phase (diagnostic)
  double throughput_ips = 0.0;  ///< median over windows, every lane
  double late_ms_p90 = 0.0;     ///< how late the generator sent
  std::size_t latency_samples = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Latency-lane latency is done - intended; a failed request counts as
/// infinitely slow. Windows split the phase by due time (latency) and
/// completion time (throughput).
PhaseMetrics summarize(const std::vector<Sample>& samples, double seconds,
                       int windows);

}  // namespace rsnn::e2e
