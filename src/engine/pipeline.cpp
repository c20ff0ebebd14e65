#include "engine/pipeline.hpp"

#include <chrono>
#include <utility>

#include "common/assert.hpp"

namespace rsnn::engine {

bool PipelineExecutor::BoundedQueue::push(Token&& token) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] {
    return items_.size() < capacity_ || abort_->load(std::memory_order_acquire);
  });
  if (abort_->load(std::memory_order_acquire)) return false;
  items_.push_back(std::move(token));
  cv_.notify_all();
  return true;
}

bool PipelineExecutor::BoundedQueue::pop(Token& token) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] {
    return !items_.empty() || abort_->load(std::memory_order_acquire);
  });
  if (items_.empty()) return false;  // aborted with nothing left to drain
  token = std::move(items_.front());
  items_.pop_front();
  cv_.notify_all();
  return true;
}

void PipelineExecutor::BoundedQueue::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  items_.clear();
}

PipelineExecutor::PipelineExecutor(const ir::LayerProgram& program,
                                   std::vector<ir::ProgramSegment> segments,
                                   EngineKind kind, std::size_t queue_capacity)
    : program_(program), segments_(std::move(segments)), kind_(kind) {
  RSNN_REQUIRE(program.has_hw_annotations(),
               "pipelining needs a hardware-lowered program");
  RSNN_REQUIRE(!segments_.empty(), "pipeline needs at least one segment");
  RSNN_REQUIRE(queue_capacity >= 1, "queue capacity must be positive");
  RSNN_REQUIRE(segments_.front().begin == 0 &&
                   segments_.back().end == program.size(),
               "segments must cover the whole program");
  for (std::size_t s = 0; s + 1 < segments_.size(); ++s)
    RSNN_REQUIRE(segments_[s].end == segments_[s + 1].begin,
                 "segments must be contiguous (segment " << s << " ends at "
                     << segments_[s].end << ", segment " << s + 1
                     << " begins at " << segments_[s + 1].begin << ")");
  for (std::size_t s = 0; s < segments_.size(); ++s)
    RSNN_REQUIRE(segments_[s].is_relowered() == segments_.front().is_relowered(),
                 "segments mix inherited and re-lowered annotations (segment "
                     << s << " differs from segment 0)");

  queues_.reserve(segments_.size() - 1);
  for (std::size_t s = 0; s + 1 < segments_.size(); ++s)
    queues_.push_back(std::make_unique<BoundedQueue>(queue_capacity, &abort_));

  threads_.reserve(segments_.size());
  try {
    for (std::size_t s = 0; s < segments_.size(); ++s)
      threads_.emplace_back([this, s] { stage_main(s); });
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& thread : threads_) thread.join();
    throw;
  }
}

PipelineExecutor::~PipelineExecutor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void PipelineExecutor::record_error() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!error_) error_ = std::current_exception();
}

void PipelineExecutor::abort_batch() {
  abort_.store(true, std::memory_order_release);
  for (const auto& queue : queues_) queue->notify_abort();
}

void PipelineExecutor::stage_main(std::size_t stage) {
  // Each stage constructs its engine (and thus its pre-allocated state)
  // once, on its own thread, and keeps it for the executor's lifetime.
  std::unique_ptr<Engine> engine;
  try {
    engine = make_engine(kind_, program_, segments_[stage]);
  } catch (...) {
    record_error();
  }

  const bool is_first = stage == 0;
  const bool is_last = stage + 1 == segments_.size();
  const double cycle_ns = program_.config().cycle_ns();

  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }

    const std::size_t total = batch_->size();
    for (std::size_t processed = 0; processed < total; ++processed) {
      if (abort_.load(std::memory_order_acquire)) break;
      Token token;
      if (is_first) {
        token.index = processed;
        token.codes = (*batch_)[processed];
      } else if (!queues_[stage - 1]->pop(token)) {
        break;  // aborted upstream
      }
      try {
        RSNN_REQUIRE(engine != nullptr, "stage engine failed to construct");
        SegmentRunResult seg = engine->run_segment(token.codes);
        hw::merge_segment_result(token.partial, std::move(seg.stats));
        if (is_last) {
          hw::finalize_run(token.partial, cycle_ns);
          (*results_)[token.index] = std::move(token.partial);
        } else {
          token.codes = std::move(seg.boundary_codes);
          if (!queues_[stage]->push(std::move(token))) break;
        }
      } catch (...) {
        record_error();
        abort_batch();  // fail fast: unblock every stage
        break;
      }
    }

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

std::vector<hw::AccelRunResult> PipelineExecutor::run_pipeline(
    const std::vector<TensorI>& codes) {
  std::vector<hw::AccelRunResult> results(codes.size());
  stats_ = PipelineStats{};
  stats_.stages = stages();
  if (codes.empty()) return results;

  const auto begin = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& queue : queues_) queue->clear();  // stale aborted tokens
    abort_.store(false, std::memory_order_release);
    batch_ = &codes;
    results_ = &results;
    active_ = threads_.size();
    ++generation_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return active_ == 0; });
    batch_ = nullptr;
    results_ = nullptr;
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }
  const auto end = std::chrono::steady_clock::now();

  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - begin)
          .count();
  stats_.images = static_cast<std::int64_t>(codes.size());
  stats_.wall_ms = seconds * 1e3;
  stats_.images_per_sec =
      seconds > 0.0 ? static_cast<double>(codes.size()) / seconds : 0.0;
  stats_.ns_per_inference = seconds * 1e9 / static_cast<double>(codes.size());
  return results;
}

std::vector<hw::AccelRunResult> PipelineExecutor::run_pipeline_images(
    const std::vector<TensorF>& images) {
  std::vector<TensorI> codes;
  codes.reserve(images.size());
  const int T = program_.time_bits();
  for (const TensorF& image : images)
    codes.push_back(quant::encode_activations(image, T));
  return run_pipeline(codes);
}

}  // namespace rsnn::engine
