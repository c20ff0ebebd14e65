#include "serve/serve_flags.hpp"

#include <algorithm>

#include "engine/fault.hpp"

namespace rsnn::serve {

using flags::count_flag;
using flags::FlagSpec;
using flags::number_flag;
using flags::text_flag;
using flags::toggle_flag;

std::vector<FlagSpec> serving_pool_flags() {
  return {
      count_flag("replicas", "1",
                 "identical replicas behind the admission queue", 1),
      text_flag("policy", "fifo",
                "fifo (one request per dispatch), batch (up to --max-batch) "
                "or reject (as fifo, but a full queue sheds)",
                "NAME"),
      count_flag("queue-depth", "64",
                 "bounded admission-queue capacity in requests"),
      count_flag("max-batch", "8",
                 "batch: most requests one dispatch takes", 1),
      number_flag("max-wait-ms", "1",
                  "batch: never hold the oldest request longer", 0.0,
                  engine::kMaxDeadlineMs, "MS"),
      count_flag("max-retries", "2",
                 "failed-dispatch retry budget per request (0 = off)"),
      number_flag("backoff-ms", "0.1", "retry backoff base (exponential, capped)",
                  0.0, engine::kMaxDeadlineMs, "MS"),
      number_flag("stall-timeout-ms", "0",
                  "dispatches slower than this count as stalls (0 = off)",
                  0.0, flags::kUnbounded, "MS"),
      toggle_flag("rebuild", "0",
                  "rebuild quarantined replicas instead of retiring them"),
      text_flag("fault", "", "seeded fault plan, e.g. seed:7,kill:r2@5,err:p0.05",
                "PLAN"),
  };
}

std::vector<FlagSpec> serving_request_flags() {
  return {
      number_flag("deadline-ms", "0",
                  "per-request queueing deadline (0 = none)", 0.0,
                  engine::kMaxDeadlineMs, "MS"),
      count_flag("bulk-every", "0",
                 "submit every Nth request on the bulk lane (0 = off)"),
  };
}

std::string pool_options_from_flags(const flags::FlagSet& flag_set,
                                    engine::ServingPoolOptions* options) {
  // The three policy names are aliases for a dispatch size and an on-full
  // choice: only "batch" takes more than one request per dispatch.
  const std::string& policy = flag_set.text("policy");
  if (policy != "fifo" && policy != "batch" && policy != "reject")
    return "unknown admission policy '" + policy +
           "' (expected fifo, batch or reject)";
  options->on_full =
      policy == "reject" ? engine::OnFull::kReject : engine::OnFull::kBlock;
  options->max_batch =
      policy == "batch" ? static_cast<std::size_t>(flag_set.count("max-batch"))
                        : 1;
  options->max_wait_ms = flag_set.number("max-wait-ms");
  options->replicas = static_cast<int>(flag_set.count("replicas"));
  options->queue_capacity =
      static_cast<std::size_t>(flag_set.count("queue-depth"));
  options->max_retries = static_cast<int>(flag_set.count("max-retries"));
  options->backoff_base_ms = flag_set.number("backoff-ms");
  options->backoff_cap_ms =
      std::max(options->backoff_cap_ms, options->backoff_base_ms);
  options->stall_timeout_ms = flag_set.number("stall-timeout-ms");
  options->rebuild_quarantined = flag_set.toggle("rebuild");
  const std::string& fault = flag_set.text("fault");
  if (!fault.empty()) {
    std::string fault_error;
    if (!engine::parse_fault_plan(fault, &options->fault_plan, &fault_error))
      return fault_error;
  }
  return {};
}

}  // namespace rsnn::serve
