#pragma once

/// \file metrics.h
/// Sharded metrics registry: named counters, additive gauges, and
/// log-linear (HDR-style) histograms.
///
/// ## Design
///
/// A `Registry` owns metric *families* (name -> index, registered once,
/// cheap handles returned) and a list of per-thread **shards**.  Every
/// recording thread lazily gets its own shard; a probe writes only to its
/// shard's cells (single-writer relaxed atomics, no cross-thread
/// contention and no locked instructions), and
/// `snapshot()` merges all shards.  Instrumenting the simulation hot path
/// and the ReplicationRunner's pool workers therefore never makes threads
/// fight over a cache line: merge cost is paid by the scraper, not the
/// hot path.
///
/// Merge semantics are chosen so shard merging is associative and
/// commutative regardless of which thread recorded what:
///
///   * **Counter** — monotone sum of u64 increments.
///   * **Gauge** — *additive* gauge (OpenTelemetry's UpDownCounter):
///     `add(+d)` / `add(-d)`; the merged value is the sum of all deltas.
///     Use it for occupancy-style quantities (queue depth, tasks in
///     flight), not for last-value sampling.
///   * **Histogram** — log-linear buckets (16 linear sub-buckets per
///     power of two, ~6% relative width) spanning [2^-34, 2^30), with an
///     underflow bucket (zero, negatives, subnormals below range) and an
///     overflow bucket (+inf and anything >= 2^30).  NaN samples are
///     counted separately and excluded from count/sum/quantiles.
///     Merging sums bucket counts, counts and sums, and takes min/max.
///
/// ## Cost model
///
/// With recording off (`obs::enabled()` false) a probe is one relaxed
/// load and a predicted branch; compiled out (`LBMV_OBS=0`) it is
/// nothing.  With recording on, a probe is a thread-local shard lookup
/// plus a relaxed load and a relaxed store per touched field: cells are
/// **single-writer** (only the shard's owning thread writes them), so no
/// locked read-modify-write is needed, and min/max are a compare followed
/// by a store.  Measured on a 4-core x86-64 VM (GCC 12, -O2, one thread):
/// counter ~5 ns, gauge ~5.5 ns, histogram ~9 ns per probe, against ~12,
/// ~15 and ~27 ns with the fetch_add/CAS cells they replaced.
/// `Histogram::record_each` records a whole batch with one shard lookup.
/// Hot loops that fire several probes per event go further and keep plain
/// deltas that they publish every few thousand events (sim::Simulation,
/// sim::Server; DESIGN.md §9).
///
/// ## Reset contract
///
/// `reset()` may run while other threads record.  It only requests the
/// reset; each shard's owner zeroes its own cells before its next write,
/// and a snapshot reads a shard with a reset still pending as empty.  A
/// sample recorded concurrently with `reset()` lands on one side of it or
/// the other, never half on each, and totals recorded after every
/// recording thread has observed the reset (e.g. after a join) are exact.
///
/// The registry deliberately depends on nothing else in lbmv (it sits
/// below util so the thread pool itself can be instrumented); snapshots
/// serialise to Prometheus text and plain JSON strings.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "lbmv/obs/obs.h"

namespace lbmv::obs {

// ---- histogram bucket geometry -------------------------------------------

inline constexpr int kHistogramSubBits = 4;  ///< 16 sub-buckets per octave
inline constexpr int kHistogramSubBuckets = 1 << kHistogramSubBits;
inline constexpr int kHistogramMinExp = -34;  ///< lower edge 2^-34 ~ 5.8e-11
inline constexpr int kHistogramMaxExp = 30;   ///< upper edge 2^30 ~ 1.07e9
/// Total bucket count: one underflow, (maxExp-minExp)*16 in-range, one
/// overflow.
inline constexpr std::size_t kHistogramBuckets =
    static_cast<std::size_t>(kHistogramMaxExp - kHistogramMinExp) *
        kHistogramSubBuckets +
    2;

/// Bucket index for \p value: 0 for v <= 0 (and subnormals below range),
/// kHistogramBuckets-1 for v >= 2^30 (including +inf).  NaN is the
/// caller's problem (Histogram::record filters it first).  O(1): the index
/// is read straight out of the double's exponent and top mantissa bits.
[[nodiscard]] std::size_t histogram_bucket(double value);

/// Inclusive upper bound of bucket \p index (+inf for the overflow
/// bucket, the range's lower edge for the underflow bucket).
[[nodiscard]] double histogram_bucket_upper(std::size_t index);

// ---- handles --------------------------------------------------------------

class Registry;

/// Monotone counter handle.  Cheap to copy; default-constructed handles
/// are inert no-ops (useful for conditionally-resolved per-instance
/// probes).
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) {
#if LBMV_OBS
    if (registry_ != nullptr && enabled()) detail_add(n);
#else
    (void)n;
#endif
  }

 private:
  friend class Registry;
  Counter(Registry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  void detail_add(std::uint64_t n);

  Registry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

/// Additive gauge handle (merged value = sum of all deltas).
class Gauge {
 public:
  Gauge() = default;

  void add(double delta) {
#if LBMV_OBS
    if (registry_ != nullptr && enabled()) detail_add(delta);
#else
    (void)delta;
#endif
  }

 private:
  friend class Registry;
  Gauge(Registry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  void detail_add(double delta);

  Registry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

/// Log-linear histogram handle.
class Histogram {
 public:
  Histogram() = default;

  void record(double value) {
#if LBMV_OBS
    if (registry_ != nullptr && enabled()) detail_record(value);
#else
    (void)value;
#endif
  }

  /// Record value_at(0), ..., value_at(count - 1) with one shard lookup.
  /// The merged histogram is bit-identical to \p count record() calls in
  /// index order.
  template <typename ValueAt>
  void record_each(std::size_t count, const ValueAt& value_at) {
#if LBMV_OBS
    if (registry_ != nullptr && count > 0 && enabled()) {
      detail_record_each(count, &value_at, [](const void* fn, std::size_t i) {
        return static_cast<double>((*static_cast<const ValueAt*>(fn))(i));
      });
    }
#else
    (void)count;
    (void)value_at;
#endif
  }

 private:
  friend class Registry;
  Histogram(Registry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  void detail_record(double value);
  void detail_record_each(std::size_t count, const void* fn,
                          double (*value_at)(const void*, std::size_t));

  Registry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

// ---- snapshots ------------------------------------------------------------

/// Merged view of one histogram family.
struct HistogramSnapshot {
  std::uint64_t count = 0;      ///< finite samples (NaN excluded)
  std::uint64_t nan_count = 0;  ///< dropped NaN samples
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
  std::vector<std::uint64_t> buckets;  ///< kHistogramBuckets entries

  [[nodiscard]] double mean() const;
  /// Upper bound of the bucket where the cumulative count first reaches
  /// q * count (q in [0, 1]); clamped to [min, max] so in-bucket
  /// resolution never reports beyond an observed extreme.  0 when empty.
  [[nodiscard]] double quantile(double q) const;
};

/// Point-in-time merge of every shard of a registry.
struct MetricsSnapshot {
  /// Wall clock at merge time (Unix milliseconds), stamped by
  /// Registry::snapshot(); the exposition timestamp base shared with the
  /// time-series sampler (sampler.h).
  std::uint64_t timestamp_ms = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Prometheus text exposition format (counters, gauges, cumulative
  /// histogram buckets with `le` labels).  With \p with_timestamps every
  /// sample line carries the snapshot's timestamp_ms.
  [[nodiscard]] std::string to_prometheus(bool with_timestamps = false) const;
  /// Plain JSON document: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, min, max, mean, p50, p95, p99,
  /// buckets: [{le, count}...]}}}.  Only non-empty buckets are emitted;
  /// the overflow bucket's le serialises as max-double (JSON has no inf).
  [[nodiscard]] std::string to_json() const;
};

// ---- registry -------------------------------------------------------------

/// Family registration plus per-thread shard management.  All methods are
/// thread-safe; family registration, snapshotting and reset take locks,
/// recording does not (beyond first-touch shard/cell setup).
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-register a family and return its handle.  Call once per
  /// probe site (e.g. at component construction), not per event.
  [[nodiscard]] Counter counter(const std::string& name);
  [[nodiscard]] Gauge gauge(const std::string& name);
  [[nodiscard]] Histogram histogram(const std::string& name);

  /// Merge every shard (live and retired threads alike) into a snapshot.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero every cell in every shard, keeping families and shard storage.
  /// Safe to call while other threads record (see "Reset contract" above).
  void reset();

  /// The process-wide default registry all built-in probes use.
  static Registry& global();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  struct Shard;

  Shard& local_shard();
  void counter_add(std::uint32_t index, std::uint64_t n);
  void gauge_add(std::uint32_t index, double delta);
  void histogram_record(std::uint32_t index, double value);
  void histogram_record_each(std::uint32_t index, std::size_t count,
                             const void* fn,
                             double (*value_at)(const void*, std::size_t));

  const std::uint64_t id_;  ///< process-unique; keys thread-local caches
  mutable std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::map<std::string, std::uint32_t> counter_index_;
  std::map<std::string, std::uint32_t> gauge_index_;
  std::map<std::string, std::uint32_t> histogram_index_;
  std::vector<std::shared_ptr<Shard>> shards_;
};

/// Compose a Prometheus-style labelled family name:
/// labeled("lbmv_server_arrivals_total", "server", "C1") ->
/// `lbmv_server_arrivals_total{server="C1"}`.
[[nodiscard]] std::string labeled(std::string_view family,
                                  std::string_view key,
                                  std::string_view value);

}  // namespace lbmv::obs
