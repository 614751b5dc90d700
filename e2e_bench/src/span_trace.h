#pragma once

// In-memory span recorder for the traced run.  The traced drivers open a
// span around every call they make into a library layer; spans are kept in
// memory (one mutex-guarded vector: a traced op records at most a few
// hundred spans, on at most a handful of threads) and written out once the
// run has ended.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";  // "<layer>.<call>"; static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into SpanRecorder::spans(), -1 for an op root
  std::uint64_t op = 0;
  std::uint32_t thread = 0;  // small per-recorder thread id
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span and returns its index (the parent handle for children).
  int open(const char* name, int parent, std::uint64_t op);
  void close(int index);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::int64_t now_ns() const;

  // Chrome trace_event JSON ("X" events, microseconds); args carry the op
  // id and the parent span index.
  [[nodiscard]] std::string to_chrome_json(const std::string& env_json) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> thread_keys_;
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int parent,
             std::uint64_t op)
      : recorder_(recorder),
        index_(recorder ? recorder->open(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

// Where an op's traced time went.  Span durations are summed per name
// (thread time: spans of parallel replications add up); `root_ms` is the
// op root span and `self_ms` its self time (root minus its direct
// children, which run sequentially on the calling thread).
struct OpAttribution {
  double root_ms = 0.0;
  double self_ms = 0.0;
  std::vector<std::pair<std::string, double>> by_name;  // sorted by name
  bool well_formed = true;  // children nested in parents, siblings serial
  std::string problem;
};

[[nodiscard]] OpAttribution attribute_op(const std::vector<Span>& spans,
                                         std::uint64_t op);

}  // namespace e2e
