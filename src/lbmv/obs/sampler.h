#pragma once

/// \file sampler.h
/// Time-series sampler: the sharded registry, scraped on a cadence into
/// bounded ring-buffered series.
///
/// The registry only holds monotone totals; a live dashboard wants *rates*
/// and *deltas*.  `TimeSeriesSampler` snapshots a `Registry` on a fixed
/// cadence — driven either by its own background thread (`start`/`stop`)
/// or by the caller's clock (`sample` / `sample_at`, e.g. per simulated
/// epoch) — and appends one point per metric into a fixed-capacity ring
/// (overwrite-oldest, like the trace and flight rings):
///
///   * counters    -> the running total,
///   * histograms  -> two series, `<name>:count` and `<name>:sum`.
///
/// From the rings it answers windowed queries (`rate_per_sec`,
/// `last_delta`) for the `lbmv obs --watch` panels and exports the whole
/// buffer as a timestamped JSON timeseries (`to_json`) for `--snapshot
/// timeseries`.
///
/// Cost: sampling cost is the scraper's (one shard merge per cadence
/// tick), never the hot path's; a sampler that is never started costs
/// nothing.  All methods are thread-safe; the background thread and a
/// dashboard reader may overlap freely.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lbmv/obs/metrics.h"

namespace lbmv::obs {

/// Milliseconds on the wall clock (Unix epoch) — the exposition timestamp
/// base shared with MetricsSnapshot::timestamp_ms.
[[nodiscard]] std::uint64_t wall_now_ms();

/// One retained sample of one series.
struct SeriesPoint {
  std::uint64_t t_ms = 0;  ///< wall clock unless the caller stamps its own
  double value = 0.0;
};

/// A copied-out view of one series.
struct SeriesView {
  std::string name;
  /// "counter", "histogram_count" or "histogram_sum".
  std::string kind;
  std::vector<SeriesPoint> points;  ///< oldest first
};

class TimeSeriesSampler {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit TimeSeriesSampler(Registry& registry = Registry::global(),
                             std::size_t capacity_per_series = kDefaultCapacity);
  ~TimeSeriesSampler();
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Take one sample now (wall clock).
  void sample();

  /// Take one sample stamped with the caller's clock (monotone per
  /// sampler; e.g. simulated milliseconds).
  void sample_at(std::uint64_t t_ms);

  /// Start the background scraper at \p period.  No-op when running.
  void start(std::chrono::milliseconds period);

  /// Stop the background scraper (joins).  No-op when not running.
  void stop();
  [[nodiscard]] bool running() const;

  /// Samples taken so far (each covers every registered family).
  [[nodiscard]] std::uint64_t sample_count() const;

  /// Points discarded to ring overwrite, across all series.
  [[nodiscard]] std::uint64_t dropped_points() const;

  /// All series, oldest point first, sorted by name.
  [[nodiscard]] std::vector<SeriesView> series() const;

  /// One series by name (histograms: "<name>:count" / "<name>:sum");
  /// empty view when unknown.
  [[nodiscard]] SeriesView series_for(const std::string& name) const;

  /// Mean increase per second over (up to) the last \p window intervals —
  /// the delta between the newest point and the one \p window samples
  /// back, divided by the timestamp span.  0 with fewer than two points.
  /// For counters this is the windowed rate.
  [[nodiscard]] double rate_per_sec(const std::string& name,
                                    std::size_t window = 8) const;

  /// Newest value minus previous value (0 with fewer than two points).
  [[nodiscard]] double last_delta(const std::string& name) const;

  /// The whole buffer as a timestamped JSON timeseries:
  /// {"capacity": C, "samples": N, "dropped_points": D,
  ///  "series": [{"name", "kind", "points": [[t_ms, value], ...]}, ...]}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Series {
    std::string kind;
    std::vector<SeriesPoint> buf;  ///< ring once buf.size() == capacity
    std::size_t next = 0;
    std::uint64_t recorded = 0;

    void append(std::uint64_t t_ms, double value, std::size_t capacity);
    [[nodiscard]] std::vector<SeriesPoint> ordered() const;
  };

  void append_sample_locked(std::uint64_t t_ms, const MetricsSnapshot& snap);
  void run_loop(std::chrono::milliseconds period);

  Registry* registry_;
  std::size_t capacity_;

  mutable std::mutex mutex_;
  std::map<std::string, Series> series_;
  std::uint64_t samples_ = 0;

  mutable std::mutex thread_mutex_;  ///< guards start/stop vs each other
  std::condition_variable cv_;
  std::thread thread_;
  bool stop_requested_ = false;
  bool running_ = false;
};

}  // namespace lbmv::obs
