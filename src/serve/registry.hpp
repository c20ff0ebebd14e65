// ModelRegistry: several quantized networks served concurrently, each
// behind its own engine::ServingPool, routed by model id.
//
// Lifecycle of one model slot:
//
//   load_model(id, path)            load_model(id, path')        unload(id)
//        │                               │ hot-swap                  │
//        ▼                               ▼                           ▼
//   [generation 1] ──serving──► [generation 2] ──serving──► (drained, gone)
//                        │ old generation
//                        ▼
//            drain admitted work, retire
//
// Each slot owns its full lifetime chain in one Instance: the heap-pinned
// QuantizedNetwork, the CompiledDesign whose program borrows it, and the
// ServingPool executing that program — kept alive by shared_ptr so a
// hot-swap can replace the slot immediately while requests already admitted
// to the old generation finish on the old pool (ServingPool's destructor
// drains before joining, so their futures resolve kOk with the *old*
// model's bit-identical logits). New work routed after the swap lands on
// the new generation; a racing submit that caught the old instance after
// its shutdown is offered to the generation that replaced it — admitted
// work is never dropped, and a swap never turns a request away.
//
// Routing: submit() looks the pool up by Request::model_id and forwards to
// ServingPool::submit(Request) — the same typed core every in-process
// caller uses. Unknown ids resolve immediately with kRejected (no queueing,
// connection stays usable).
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "engine/serving_pool.hpp"
#include "quant/qnetwork.hpp"

namespace rsnn::serve {

struct RegistryOptions {
  /// Design derivation for every loaded model (units, clock, memory).
  compiler::CompileOptions compile;
  engine::EngineKind kind = engine::EngineKind::kCycleAccurate;
  /// Pool template applied to every model (replicas, batching, queue, fault
  /// tolerance). model_id is overwritten per slot.
  engine::ServingPoolOptions pool;
};

/// Snapshot of one served model, for Health/Metrics frames and reports.
struct ModelInfo {
  std::string model_id;
  std::uint64_t generation = 0;  ///< bumped on every load of this id
  int time_bits = 0;
  Shape input_shape;
  int replicas = 0;
  engine::ServingStats stats;
};

class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryOptions options);
  /// Drains every pool (admitted work completes) before returning.
  ~ModelRegistry();
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Load (or hot-swap) `model_id` from a .qsnn file. The new instance is
  /// built off-lock — compile time never blocks serving — then swapped in;
  /// the displaced generation (if any) stops admitting and drains in the
  /// background. Returns a diagnostic, empty on success; `*swapped`
  /// (optional) reports whether an existing generation was replaced.
  std::string load_model(const std::string& model_id, const std::string& path,
                         bool* swapped = nullptr);

  /// As load_model, from an in-memory network (tests, embedded callers).
  std::string load_network(const std::string& model_id,
                           quant::QuantizedNetwork qnet,
                           bool* swapped = nullptr);

  /// Remove `model_id`; admitted work drains before the slot's resources
  /// are released. Returns a diagnostic, empty on success.
  std::string unload_model(const std::string& model_id);

  /// Route a typed request to its model's pool. Unknown model ids (and a
  /// shut-down registry) resolve immediately with kRejected. A request the
  /// routed pool refused because a hot-swap closed it is resubmitted to the
  /// current generation. `admitted` as in ServingPool::submit.
  std::future<engine::ServingResult> submit(engine::Request request,
                                            bool* admitted = nullptr);

  bool has_model(const std::string& model_id) const;
  std::vector<std::string> model_ids() const;

  /// Snapshot one model (empty vector when the id is unknown) or, with an
  /// empty id, every model ordered by id.
  std::vector<ModelInfo> snapshot(const std::string& model_id = {}) const;

  /// Stop admitting everywhere and drain (or cancel) every pool.
  void shutdown(bool drain = true);

  const RegistryOptions& options() const { return options_; }

 private:
  /// One generation of one model slot. Member order is the teardown
  /// contract reversed: the pool dies first, then the design whose program
  /// it ran, then the network the program borrows.
  struct Instance {
    std::unique_ptr<quant::QuantizedNetwork> qnet;  ///< heap-pinned
    compiler::CompiledDesign design;  ///< program borrows *qnet
    std::uint64_t generation = 0;
    std::unique_ptr<engine::ServingPool> pool;
  };

  std::shared_ptr<Instance> build_instance(const std::string& model_id,
                                           quant::QuantizedNetwork&& qnet,
                                           std::string* error);
  std::string install(const std::string& model_id,
                      std::shared_ptr<Instance> instance, bool* swapped);
  std::shared_ptr<Instance> find(const std::string& model_id) const;

  RegistryOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Instance>> models_;
  std::uint64_t next_generation_ = 1;
  bool closed_ = false;
};

}  // namespace rsnn::serve
