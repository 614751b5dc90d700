#pragma once

/// \file flight_recorder.h
/// Flight recorder: per-thread rings of structured records.
///
/// A `FlightRecord` is one structured event — severity, subsystem, a
/// static message and up to four numeric key/value pairs — stamped with
/// the steady clock and the recording thread.  The recorder keeps one
/// fixed-capacity ring per thread (overwrite-oldest, mirroring
/// `TraceRecorder`), so a long run always retains the most recent
/// anomalies and counts what it dropped instead of growing without bound.
///
/// Two ways out of the rings:
///
///   * `records()` / `to_jsonl()` — drained on scrape (the `lbmv obs`
///     dashboard and the time-series sampler surface recent records);
///   * `dump_jsonl(path)` — on-demand post-mortem artifact, one JSON
///     object per line (`lbmv obs --flight`, and `lbmv_bench_perf` when
///     its invariant-monitor gate fails).
///
/// Cost: with recording off, `record()` is one relaxed load; compiled out
/// (`LBMV_OBS=0`) the recorder still links but retains nothing.  Like
/// trace spans, subsystem/message/key strings must be string literals (or
/// otherwise outlive the recorder) — they are stored as pointers, never
/// copied.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "lbmv/obs/obs.h"
#include "lbmv/obs/thread_rings.h"

namespace lbmv::obs {

enum class Severity : std::uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

/// Lower-case label ("info" / "warn" / "error").
[[nodiscard]] const char* severity_name(Severity severity);

/// One retained record.  At most `kMaxKeyValues` numeric payload entries;
/// extra entries passed to record() are dropped (the count is clamped).
struct FlightRecord {
  static constexpr std::size_t kMaxKeyValues = 4;

  struct KeyValue {
    const char* key = nullptr;  ///< static string (see file comment)
    double value = 0.0;
  };

  std::uint64_t t_ns = 0;  ///< steady clock (trace.h now_ns epoch)
  std::uint32_t tid = 0;   ///< recorder-assigned small thread id
  Severity severity = Severity::kInfo;
  const char* subsystem = nullptr;  ///< static string
  const char* message = nullptr;    ///< static string
  std::size_t kv_count = 0;
  KeyValue kv[kMaxKeyValues];
};

/// Per-thread ring buffers of flight records.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 10;

  explicit FlightRecorder(std::size_t capacity_per_thread = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append a record to the calling thread's ring (oldest entry
  /// overwritten when full).  No-op while recording is disabled.
  void record(Severity severity, const char* subsystem, const char* message,
              std::initializer_list<FlightRecord::KeyValue> payload = {});

  /// Same, from a caller-built payload array (first kMaxKeyValues kept).
  void record(Severity severity, const char* subsystem, const char* message,
              const FlightRecord::KeyValue* payload, std::size_t count);

  /// All retained records across threads, sorted by timestamp.
  [[nodiscard]] std::vector<FlightRecord> records() const {
    return rings_.collect();
  }

  /// JSON-lines export: one object per record, sorted by timestamp.
  /// {"t_ns":..,"tid":..,"severity":"..","subsystem":"..",
  ///  "message":"..","data":{"key":value,...}}
  [[nodiscard]] std::string to_jsonl() const;

  /// Write to_jsonl() to \p path (truncating).  Returns false on I/O error.
  bool dump_jsonl(const std::string& path) const;

  /// Records overwritten because a ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return rings_.dropped(); }

  /// Forget every retained record (capacity and thread ids kept).
  void clear() { rings_.clear(); }

  /// The process-wide recorder the built-in monitors write to.
  static FlightRecorder& global();

 private:
  detail::ThreadRings<FlightRecord, &FlightRecord::t_ns> rings_;
};

/// Shorthand: record into FlightRecorder::global().
inline void flight(Severity severity, const char* subsystem,
                   const char* message,
                   std::initializer_list<FlightRecord::KeyValue> payload = {}) {
#if LBMV_OBS
  FlightRecorder::global().record(severity, subsystem, message, payload);
#else
  (void)severity;
  (void)subsystem;
  (void)message;
  (void)payload;
#endif
}

}  // namespace lbmv::obs
