// The untraced run: every end-to-end metric, measured over the wire.
//
//   setup     spawn rsnn_serve kSetupRuns times; each time from spawn until
//             the preloaded model answered one warm Infer (lazy prepare
//             included). The last daemon stays up.
//   warm-up   kWarmupSeconds of the workload's traffic, checked, not timed.
//   then kSegments rounds of
//     measured  the workload's traffic for (1 - kCapacityShare) of the
//               round. Joined end to end, these make kWindows windows; the
//               latency percentiles are medians over the windows, which
//               keeps a host stall in one window out of the result.
//     capacity  every connection closed loop for the rest of the round:
//               completions per second at saturation.
//   Alternating the two spreads each metric over the whole run. On a shared
//   4-vCPU VM single-thread speed was seen to change by up to 2x within
//   seconds, and a metric measured in one stretch of the run inherits that.
// On the control workload a fourth connection hot-swaps the model and reads
// Metrics for the whole run.
#include <memory>
#include <thread>

#include "runs.hpp"

namespace rsnn::e2e {
namespace {

constexpr int kSetupRuns = 5;
constexpr double kWarmupSeconds = 0.5;
constexpr int kSegments = 5;
constexpr int kWindows = 10;
constexpr double kCapacityShare = 0.3;

// Purposes for derive_seed, distinct from the model and input ones.
constexpr std::uint64_t kWarmupTraffic = 10;
constexpr std::uint64_t kMeasuredTraffic = 11;
constexpr std::uint64_t kCapacityTraffic = 12;

/// The control connection: a Metrics frame every 100 ms and a hot-swap to
/// the other model file every 2 s, from 1 s into the phase.
void control_loop(WorkloadRun& run, int port, Clock::time_point start,
                  Clock::time_point end, std::vector<double>* swap_ms,
                  std::vector<double>* metrics_ms) {
  serve::Client client;
  if (!client.connect_loopback(port).empty()) {
    run.count_request(false);
    return;
  }
  Clock::time_point next_metrics = start + std::chrono::milliseconds(100);
  Clock::time_point next_swap = start + std::chrono::seconds(1);
  bool to_swap_file = true;
  for (;;) {
    const Clock::time_point due = std::min(next_metrics, next_swap);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    bool ok = false;
    if (due == next_swap) {
      serve::LoadModelReply reply;
      const std::string error = client.load_model(
          run.model_id(),
          to_swap_file ? run.swap_path() : run.model_path(), &reply);
      swap_ms->push_back(ms_between(sent, Clock::now()));
      ok = error.empty() && reply.ok && reply.swapped;
      to_swap_file = !to_swap_file;
      next_swap += std::chrono::seconds(2);
    } else {
      serve::MetricsReply reply;
      const std::string error = client.metrics(run.model_id(), &reply);
      metrics_ms->push_back(ms_between(sent, Clock::now()));
      ok = error.empty() && reply.models.size() == 1;
      next_metrics += std::chrono::milliseconds(100);
    }
    run.count_request(ok);
  }
}

}  // namespace

RunOutcome run_untraced(WorkloadRun& run, double seconds) {
  RunOutcome out;
  const Workload& workload = run.workload();

  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int spawn = 0; spawn < kSetupRuns; ++spawn) {
    daemon = std::make_unique<Daemon>();
    double seconds_to_ready = 0.0;
    out.error = run.start_daemon(*daemon, &seconds_to_ready);
    if (!out.error.empty()) return out;
    setup_s.push_back(seconds_to_ready);
    if (spawn + 1 < kSetupRuns) {
      out.error = daemon->stop();
      if (!out.error.empty()) return out;
    }
  }

  std::vector<serve::Client> clients;
  out.error = run.connect(daemon->port(), &clients);
  if (!out.error.empty()) return out;
  const InferFn infer = run.wire_infer(clients, nullptr);
  const std::vector<Sample> warmup =
      run_traffic(run.traffic(kWarmupSeconds, kWarmupTraffic), infer);

  std::vector<double> swap_ms, metrics_ms;
  std::thread control;
  const struct JoinOnExit {
    std::thread& thread;
    ~JoinOnExit() {
      if (thread.joinable()) thread.join();
    }
  } join_control{control};
  if (workload.control) {
    control = std::thread([&, start = Clock::now()] {
      try {
        control_loop(run, daemon->port(), start,
                     start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds)),
                     &swap_ms, &metrics_ms);
      } catch (...) {
        run.count_request(false);
      }
    });
  }
  const double measured_s = seconds * (1.0 - kCapacityShare);
  const double capacity_s = seconds * kCapacityShare;
  std::vector<Sample> measured;
  double completed_at_capacity = 0.0;
  std::int64_t capacity_attempted = 0, capacity_failed = 0;
  for (int round = 0; round < kSegments; ++round) {
    const double offset_ms = measured_s * 1000.0 * round / kSegments;
    for (Sample sample :
         run_traffic(run.traffic(measured_s / kSegments,
                                     kMeasuredTraffic + 100 * round),
                     infer)) {
      sample.intended_ms += offset_ms;
      sample.sent_ms += offset_ms;
      sample.done_ms += offset_ms;
      measured.push_back(sample);
    }
    Traffic saturate = run.traffic(capacity_s / kSegments,
                                       kCapacityTraffic + 100 * round);
    saturate.saturate = true;
    for (const Sample& sample : run_traffic(saturate, infer)) {
      ++capacity_attempted;
      if (!sample.ok) ++capacity_failed;
      if (sample.ok && sample.done_ms < saturate.seconds * 1000.0)
        completed_at_capacity += 1.0;
    }
  }
  if (control.joinable()) control.join();

  serve::MetricsReply stats;
  const std::string stats_error =
      clients.front().metrics(run.model_id(), &stats);
  run.count_request(stats_error.empty() && stats.models.size() == 1);
  const double rss_mib = daemon->peak_rss_mib();
  clients.clear();
  out.error = daemon->stop();
  if (!out.error.empty()) return out;

  const PhaseMetrics phase = summarize(measured, measured_s, kWindows);
  const PhaseMetrics warm = summarize(warmup, kWarmupSeconds, 1);
  out.attempted = phase.attempted + capacity_attempted + warm.attempted +
                  run.extra_attempted();
  out.failed = phase.failed + capacity_failed + warm.failed +
               run.extra_failed();

  double modeled_sum = 0.0;
  std::int64_t modeled_count = 0;
  for (const Sample& sample : measured) {
    if (!sample.ok) continue;
    modeled_sum += run.golden()[sample.input].latency_us;
    ++modeled_count;
  }

  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"lat_p90_ms", phase.lat_p90_ms, "ms"},
      {"rss_peak_mb", rss_mib, "MiB"},
  };
  out.diagnostics = {
      {"lat_p50_ms", phase.lat_p50_ms, "ms"},
      {"throughput_ips", completed_at_capacity / capacity_s, "img/s"},
      {"goodput_ips", phase.throughput_ips, "img/s"},
      {"lat_p99_ms", phase.lat_p99_ms, "ms"},
      {"lat_p999_ms", phase.lat_p999_ms, "ms"},
      {"latency_samples", static_cast<double>(phase.latency_samples), "count"},
      {"loadgen.late_ms_p90", phase.late_ms_p90, "ms"},
      {"fail_frac",
       out.attempted > 0 ? static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted)
                         : 0.0,
       "ratio"},
      {"rejected_replies", static_cast<double>(run.rejected_replies()),
       "count"},
      {"modeled_latency_us",
       modeled_count > 0 ? modeled_sum / static_cast<double>(modeled_count)
                         : 0.0,
       "us"},
      {"golden_latency_us", run.golden_latency_us(), "us"},
      {"setup_s_min", quantile(setup_s, 0.0), "s"},
      {"setup_s_max", quantile(setup_s, 1.0), "s"},
  };
  if (workload.control) {
    out.diagnostics.push_back({"swap_ms_p50", median(swap_ms), "ms"});
    out.diagnostics.push_back({"metrics_ms_p50", median(metrics_ms), "ms"});
  }
  if (stats.models.size() == 1) {
    const serve::ModelMetrics& m = stats.models.front();
    out.diagnostics.push_back({"engine.mean_batch", m.mean_batch, "count"});
    out.diagnostics.push_back(
        {"engine.rejected", static_cast<double>(m.rejected), "count"});
    out.diagnostics.push_back(
        {"engine.retries", static_cast<double>(m.retries), "count"});
    out.diagnostics.push_back({"engine.deadline_exceeded",
                               static_cast<double>(m.deadline_exceeded),
                               "count"});
  }
  return out;
}

}  // namespace rsnn::e2e
