#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "json.hpp"

namespace rsnn::e2e {
namespace {

int this_thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanSummary> Tracer::summarize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::int64_t> covered_ns;
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans_) by_id[span.id] = &span;
  for (const SpanRecord& child : spans_) {
    const auto parent = by_id.find(child.parent);
    if (parent == by_id.end()) continue;
    const SpanRecord& outer = *parent->second;
    const std::int64_t begin = std::max(child.start_ns, outer.start_ns);
    const std::int64_t end = std::min(child.end_ns, outer.end_ns);
    if (end > begin) covered_ns[child.parent] += end - begin;
  }
  std::map<std::string, SpanSummary> by_name;
  for (const SpanRecord& span : spans_) {
    SpanSummary& summary = by_name[span.name];
    summary.name = span.name;
    const std::int64_t duration = span.end_ns - span.start_ns;
    const auto covered = covered_ns.find(span.id);
    const std::int64_t self =
        covered == covered_ns.end() ? duration
                                    : std::max<std::int64_t>(
                                          0, duration - covered->second);
    summary.self_ms += self * 1e-6;
  }
  std::vector<SpanSummary> out;
  for (auto& [name, summary] : by_name) out.push_back(summary);
  return out;
}

std::string Tracer::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return "cannot write " + path;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const std::string name = json_quote(s.name);
    const std::string layer = json_quote(s.name.substr(0, s.name.find('.')));
    std::fprintf(out,
                 "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %lld}}%s\n",
                 name.c_str(), layer.c_str(), s.thread, s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0 ? std::string() : "cannot write " + path;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent,
                       std::int64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.request = request;
  span_.thread = this_thread_index();
  span_.start_ns = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  tracer_->record(std::move(span_));
}

}  // namespace rsnn::e2e
