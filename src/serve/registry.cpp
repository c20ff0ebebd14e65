#include "serve/registry.hpp"

#include <utility>

#include "quant/qserialize.hpp"

namespace rsnn::serve {
namespace {

/// An already-resolved kRejected future, for requests no pool ever sees.
std::future<engine::ServingResult> rejected(std::string error) {
  std::promise<engine::ServingResult> promise;
  engine::ServingResult outcome;
  outcome.status = engine::RequestStatus::kRejected;
  outcome.error = std::move(error);
  promise.set_value(std::move(outcome));
  return promise.get_future();
}

}  // namespace

ModelRegistry::ModelRegistry(RegistryOptions options)
    : options_(std::move(options)) {}

ModelRegistry::~ModelRegistry() { shutdown(/*drain=*/true); }

std::shared_ptr<ModelRegistry::Instance> ModelRegistry::build_instance(
    const std::string& model_id, quant::QuantizedNetwork&& qnet,
    std::string* error) {
  auto instance = std::make_shared<Instance>();
  try {
    instance->qnet =
        std::make_unique<quant::QuantizedNetwork>(std::move(qnet));
    instance->design = compiler::compile(*instance->qnet, options_.compile);
    engine::ServingPoolOptions pool_options = options_.pool;
    pool_options.model_id = model_id;
    instance->pool = std::make_unique<engine::ServingPool>(
        instance->design.program, options_.kind, std::move(pool_options));
  } catch (const std::exception& e) {
    *error = "cannot serve model '" + model_id + "': " + e.what();
    return nullptr;
  }
  return instance;
}

std::string ModelRegistry::install(const std::string& model_id,
                                   std::shared_ptr<Instance> instance,
                                   bool* swapped) {
  std::shared_ptr<Instance> displaced;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return "registry is shut down";
    instance->generation = next_generation_++;
    auto& slot = models_[model_id];
    displaced = std::move(slot);
    slot = std::move(instance);
  }
  if (swapped != nullptr) *swapped = displaced != nullptr;
  // The displaced generation stops admitting now; work it already admitted
  // keeps its futures and drains on the old pool — in the background if a
  // routed submit still holds the shared_ptr, else as this reference dies.
  if (displaced != nullptr) displaced->pool->shutdown(/*drain=*/true);
  return {};
}

std::string ModelRegistry::load_model(const std::string& model_id,
                                      const std::string& path, bool* swapped) {
  if (model_id.empty()) return "model id must be non-empty";
  if (!quant::is_quantized_file(path))
    return "'" + path + "' is not a .qsnn file";
  quant::QuantizedNetwork qnet;
  try {
    qnet = quant::load_quantized(path);
  } catch (const std::exception& e) {
    return "cannot load '" + path + "': " + e.what();
  }
  return load_network(model_id, std::move(qnet), swapped);
}

std::string ModelRegistry::load_network(const std::string& model_id,
                                        quant::QuantizedNetwork qnet,
                                        bool* swapped) {
  if (model_id.empty()) return "model id must be non-empty";
  std::string error;
  auto instance = build_instance(model_id, std::move(qnet), &error);
  if (instance == nullptr) return error;
  return install(model_id, std::move(instance), swapped);
}

std::string ModelRegistry::unload_model(const std::string& model_id) {
  std::shared_ptr<Instance> removed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = models_.find(model_id);
    if (it == models_.end()) return "unknown model '" + model_id + "'";
    removed = std::move(it->second);
    models_.erase(it);
  }
  removed->pool->shutdown(/*drain=*/true);
  return {};
}

std::future<engine::ServingResult> ModelRegistry::submit(
    engine::Request request, bool* admitted) {
  // Copy the shared_ptr under the lock, submit outside it: a hot-swap or
  // unload during the (possibly blocking) admission cannot free the pool
  // out from under us, and its drain guarantees cover this request.
  std::shared_ptr<Instance> instance = find(request.model_id);
  if (instance == nullptr) {
    if (admitted != nullptr) *admitted = false;
    return rejected("unknown model '" + request.model_id + "'");
  }
  bool entered = false;
  std::future<engine::ServingResult> ticket =
      instance->pool->submit(std::move(request), &entered);
  // A hot-swap may close the routed pool between find() and admission, or
  // while a blocking admission waits for queue space. The pool leaves a
  // refused request intact, so offer it to the generation that replaced it;
  // each retry needs a newer generation, so this ends.
  while (!entered) {
    std::shared_ptr<Instance> current = find(request.model_id);
    if (current == nullptr || current == instance) break;
    instance = std::move(current);
    ticket = instance->pool->submit(std::move(request), &entered);
  }
  if (admitted != nullptr) *admitted = entered;
  return ticket;
}

std::shared_ptr<ModelRegistry::Instance> ModelRegistry::find(
    const std::string& model_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(model_id);
  return it == models_.end() ? nullptr : it->second;
}

bool ModelRegistry::has_model(const std::string& model_id) const {
  return find(model_id) != nullptr;
}

std::vector<std::string> ModelRegistry::model_ids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [id, instance] : models_) ids.push_back(id);
  return ids;
}

std::vector<ModelInfo> ModelRegistry::snapshot(
    const std::string& model_id) const {
  std::vector<std::shared_ptr<Instance>> instances;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, instance] : models_)
      if (model_id.empty() || id == model_id) instances.push_back(instance);
  }
  // stats() takes the pool's own lock; snapshot off the registry lock so a
  // slow pool never stalls routing.
  std::vector<ModelInfo> infos;
  infos.reserve(instances.size());
  for (const auto& instance : instances) {
    ModelInfo info;
    info.model_id = instance->pool->model_id();
    info.generation = instance->generation;
    info.time_bits = instance->qnet->time_bits;
    info.input_shape = instance->qnet->input_shape;
    info.replicas = instance->pool->replicas();
    info.stats = instance->pool->stats();
    infos.push_back(std::move(info));
  }
  return infos;
}

void ModelRegistry::shutdown(bool drain) {
  std::map<std::string, std::shared_ptr<Instance>> models;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    models.swap(models_);
  }
  for (auto& [id, instance] : models) instance->pool->shutdown(drain);
  // Instances die here (or when the last routed submit releases its ref);
  // ~ServingPool joins the dispatchers, so admitted work has fully resolved
  // for every slot this call actually released.
}

}  // namespace rsnn::serve
