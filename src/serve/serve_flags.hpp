// The shared serving flag tables: the single declaration of every serving
// knob (dispatch policy, queue, batching, fault tolerance) and of the
// per-request options. The `rsnn_serve` daemon (and bench/e2e's in-process
// replay) parses the pool table and `rsnn_client infer` the request table,
// so the generated usage text cannot drift from the parser.
#pragma once

#include <string>
#include <vector>

#include "common/flags.hpp"
#include "engine/serving_pool.hpp"

namespace rsnn::serve {

/// Flags that configure an engine::ServingPoolOptions: replicas, policy,
/// queue-depth, max-batch, max-wait-ms, max-retries, backoff-ms,
/// stall-timeout-ms, rebuild, fault.
std::vector<flags::FlagSpec> serving_pool_flags();

/// Per-request flags layered on top by front ends that submit work
/// themselves: deadline-ms, bulk-every.
std::vector<flags::FlagSpec> serving_request_flags();

/// Build pool options from a parsed FlagSet containing serving_pool_flags().
/// --policy is an alias: fifo is max_batch 1 with a blocking full queue,
/// batch is --max-batch with a blocking full queue, and reject is max_batch
/// 1 with a rejecting full queue. Validates the text-typed domains (policy
/// name, fault plan) and returns a friendly diagnostic, empty on success.
/// Fields without a flag (model_id, backoff_cap_ms) keep `options`'
/// incoming values; the cap is raised to the backoff base when below it.
std::string pool_options_from_flags(const flags::FlagSet& flag_set,
                                    engine::ServingPoolOptions* options);

}  // namespace rsnn::serve
