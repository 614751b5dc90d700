#pragma once

/// \file trace.h
/// Lightweight trace spans with a ring-buffer recorder and Chrome
/// `trace_event` JSON export.
///
/// A `Span` is an RAII probe around a scope (a protocol round, one
/// replication, an epoch): construction stamps a start time, destruction
/// records a completed event into the process-wide `TraceRecorder`.  The
/// recorder keeps one bounded ring buffer per recording thread, so a long
/// run keeps the most recent spans per thread and counts what it dropped
/// instead of growing without bound.
///
/// `to_chrome_json()` emits the Trace Event Format ("ph":"X" complete
/// events, microsecond timestamps) that chrome://tracing and Perfetto
/// open directly, so a whole replicated round can be inspected on a
/// per-thread timeline.
///
/// Cost: with recording off, a Span is one relaxed load in the
/// constructor and a null check in the destructor; compiled out
/// (`LBMV_OBS=0`) it is an empty object.  Span names/categories must be
/// string literals (or otherwise outlive the recorder) — they are stored
/// as pointers, never copied.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lbmv/obs/obs.h"
#include "lbmv/obs/thread_rings.h"

namespace lbmv::obs {

/// Nanoseconds on the steady clock (arbitrary epoch; only differences and
/// per-process ordering matter).
[[nodiscard]] std::uint64_t now_ns();

/// One completed span.
struct TraceEvent {
  const char* name = nullptr;  ///< static string (see file comment)
  const char* category = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t tid = 0;  ///< recorder-assigned small thread id
};

/// Per-thread ring buffers of completed spans.
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;

  explicit TraceRecorder(std::size_t capacity_per_thread = kDefaultCapacity);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Append a completed span to the calling thread's ring (oldest entry
  /// overwritten when full).  No-op while recording is disabled.
  void record(const char* name, const char* category, std::uint64_t start_ns,
              std::uint64_t duration_ns);

  /// All retained events across threads, sorted by start time.
  [[nodiscard]] std::vector<TraceEvent> events() const {
    return rings_.collect();
  }

  /// Chrome trace_event JSON ({"traceEvents": [...]}); timestamps are
  /// microseconds relative to the earliest retained span.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Spans overwritten because a ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return rings_.dropped(); }

  /// Forget every retained span (ring capacity and thread ids kept).
  void clear() { rings_.clear(); }

  /// The process-wide recorder `Span` writes to.
  static TraceRecorder& global();

 private:
  detail::ThreadRings<TraceEvent, &TraceEvent::start_ns> rings_;
};

/// RAII scope probe recording into TraceRecorder::global().
class Span {
 public:
  explicit Span(const char* name, const char* category = "lbmv") {
#if LBMV_OBS
    if (enabled()) {
      name_ = name;
      category_ = category;
      start_ns_ = now_ns();
    }
#else
    (void)name;
    (void)category;
#endif
  }

  ~Span() {
#if LBMV_OBS
    if (name_ != nullptr) {
      TraceRecorder::global().record(name_, category_, start_ns_,
                                     now_ns() - start_ns_);
    }
#endif
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace lbmv::obs
