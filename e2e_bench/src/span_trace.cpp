#include "span_trace.h"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

namespace e2e {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::open(const char* name, int parent, std::uint64_t op) {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::int64_t start = now_ns();
  const std::lock_guard lock(mutex_);
  auto it = std::find(thread_keys_.begin(), thread_keys_.end(), key);
  if (it == thread_keys_.end()) it = thread_keys_.insert(it, key);
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = start;
  span.parent = parent;
  span.op = op;
  span.thread = static_cast<std::uint32_t>(it - thread_keys_.begin());
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int index) {
  const std::int64_t end = now_ns();
  const std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

std::string SpanRecorder::to_chrome_json(const std::string& env_json) const {
  const std::vector<Span> all = spans();
  std::ostringstream out;
  out.precision(17);
  out << "{\"env\": " << env_json << ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"args\": {\"op\": " << s.op << ", \"id\": " << i
        << ", \"parent\": " << s.parent << "}}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

OpAttribution attribute_op(const std::vector<Span>& spans, std::uint64_t op) {
  OpAttribution out;
  std::map<std::string, double> by_name;
  std::map<int, std::vector<int>> children;
  int root = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op != op) continue;
    const int index = static_cast<int>(i);
    if (s.parent < 0) {
      if (root >= 0) {
        out.well_formed = false;
        out.problem = "op has two root spans";
      }
      root = index;
      continue;
    }
    by_name[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    children[s.parent].push_back(index);
  }
  if (root < 0) {
    out.well_formed = false;
    out.problem = "op has no root span";
    return out;
  }
  const Span& r = spans[static_cast<std::size_t>(root)];
  out.root_ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;

  // Every child lies inside its parent; children on the parent's own thread
  // run one after another (pool workers' spans may overlap each other).
  for (const auto& [parent, kids] : children) {
    const Span& p = spans[static_cast<std::size_t>(parent)];
    std::int64_t last_end = p.start_ns;
    for (const int k : kids) {
      const Span& c = spans[static_cast<std::size_t>(k)];
      if (c.start_ns < p.start_ns || c.end_ns > p.end_ns) {
        out.well_formed = false;
        out.problem = std::string(c.name) + " escapes its parent " + p.name;
      }
      if (c.thread == p.thread) {
        if (c.start_ns < last_end) {
          out.well_formed = false;
          out.problem = std::string(c.name) + " overlaps a sibling";
        }
        last_end = c.end_ns;
      }
    }
  }
  double direct = 0.0;
  for (const int k : children[root]) {
    const Span& c = spans[static_cast<std::size_t>(k)];
    direct += static_cast<double>(c.end_ns - c.start_ns) / 1e6;
  }
  out.self_ms = out.root_ms - direct;
  out.by_name.assign(by_name.begin(), by_name.end());
  return out;
}

}  // namespace e2e
