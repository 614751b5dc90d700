#include "lbmv/obs/sampler.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace lbmv::obs {
namespace {

// Labelled metric names embed quotes (`family{key="value"}`); escape them
// for the JSON export.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::uint64_t wall_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

TimeSeriesSampler::TimeSeriesSampler(Registry& registry,
                                     std::size_t capacity_per_series)
    : registry_(&registry),
      capacity_(capacity_per_series < 2 ? 2 : capacity_per_series) {}

TimeSeriesSampler::~TimeSeriesSampler() { stop(); }

void TimeSeriesSampler::Series::append(std::uint64_t t_ms, double value,
                                       std::size_t capacity) {
  if (buf.size() < capacity) {
    buf.push_back(SeriesPoint{t_ms, value});
  } else {
    buf[next] = SeriesPoint{t_ms, value};
    next = (next + 1) % capacity;
  }
  ++recorded;
}

std::vector<SeriesPoint> TimeSeriesSampler::Series::ordered() const {
  std::vector<SeriesPoint> out;
  out.reserve(buf.size());
  out.insert(out.end(), buf.begin() + static_cast<std::ptrdiff_t>(next),
             buf.end());
  out.insert(out.end(), buf.begin(),
             buf.begin() + static_cast<std::ptrdiff_t>(next));
  return out;
}

void TimeSeriesSampler::sample() { sample_at(wall_now_ms()); }

void TimeSeriesSampler::sample_at(std::uint64_t t_ms) {
  // Snapshot outside the series lock: the shard merge is the expensive
  // part and must not block dashboard readers.
  const MetricsSnapshot snap = registry_->snapshot();
  std::lock_guard lock(mutex_);
  append_sample_locked(t_ms, snap);
}

void TimeSeriesSampler::append_sample_locked(std::uint64_t t_ms,
                                             const MetricsSnapshot& snap) {
  const auto touch = [&](const std::string& name, const char* kind,
                         double value) {
    Series& series = series_[name];
    if (series.kind.empty()) series.kind = kind;
    series.append(t_ms, value, capacity_);
  };
  for (const auto& [name, value] : snap.counters) {
    touch(name, "counter", static_cast<double>(value));
  }
  for (const auto& [name, hist] : snap.histograms) {
    touch(name + ":count", "histogram_count",
          static_cast<double>(hist.count));
    touch(name + ":sum", "histogram_sum", hist.sum);
  }
  ++samples_;
}

void TimeSeriesSampler::start(std::chrono::milliseconds period) {
  std::lock_guard lock(thread_mutex_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this, period] { run_loop(period); });
}

void TimeSeriesSampler::stop() {
  std::thread to_join;
  {
    std::lock_guard lock(thread_mutex_);
    if (!running_) return;
    {
      std::lock_guard data_lock(mutex_);
      stop_requested_ = true;
    }
    cv_.notify_all();
    to_join = std::move(thread_);
    running_ = false;
  }
  if (to_join.joinable()) to_join.join();
}

bool TimeSeriesSampler::running() const {
  std::lock_guard lock(thread_mutex_);
  return running_;
}

void TimeSeriesSampler::run_loop(std::chrono::milliseconds period) {
  if (period <= std::chrono::milliseconds::zero()) {
    period = std::chrono::milliseconds(1);
  }
  for (;;) {
    sample();
    std::unique_lock lock(mutex_);
    if (cv_.wait_for(lock, period, [this] { return stop_requested_; })) {
      return;
    }
  }
}

std::uint64_t TimeSeriesSampler::sample_count() const {
  std::lock_guard lock(mutex_);
  return samples_;
}

std::uint64_t TimeSeriesSampler::dropped_points() const {
  std::lock_guard lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& [name, series] : series_) {
    (void)name;
    dropped += series.recorded - series.buf.size();
  }
  return dropped;
}

std::vector<SeriesView> TimeSeriesSampler::series() const {
  std::lock_guard lock(mutex_);
  std::vector<SeriesView> out;
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) {
    out.push_back(SeriesView{name, series.kind, series.ordered()});
  }
  return out;
}

SeriesView TimeSeriesSampler::series_for(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end()) return SeriesView{name, "", {}};
  return SeriesView{name, it->second.kind, it->second.ordered()};
}

double TimeSeriesSampler::rate_per_sec(const std::string& name,
                                       std::size_t window) const {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end()) return 0.0;
  const std::vector<SeriesPoint> pts = it->second.ordered();
  if (pts.size() < 2) return 0.0;
  if (window == 0) window = 1;
  const std::size_t span = std::min(window, pts.size() - 1);
  const SeriesPoint& newest = pts.back();
  const SeriesPoint& oldest = pts[pts.size() - 1 - span];
  if (newest.t_ms <= oldest.t_ms) return 0.0;
  return (newest.value - oldest.value) * 1000.0 /
         static_cast<double>(newest.t_ms - oldest.t_ms);
}

double TimeSeriesSampler::last_delta(const std::string& name) const {
  std::lock_guard lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end()) return 0.0;
  const std::vector<SeriesPoint> pts = it->second.ordered();
  if (pts.size() < 2) return 0.0;
  return pts.back().value - pts[pts.size() - 2].value;
}

std::string TimeSeriesSampler::to_json() const {
  const std::vector<SeriesView> all = series();
  std::uint64_t samples, dropped;
  {
    std::lock_guard lock(mutex_);
    samples = samples_;
    dropped = 0;
    for (const auto& [name, series] : series_) {
      (void)name;
      dropped += series.recorded - series.buf.size();
    }
  }
  std::ostringstream os;
  os << "{\n  \"capacity\": " << capacity_ << ",\n  \"samples\": " << samples
     << ",\n  \"dropped_points\": " << dropped << ",\n  \"series\": [";
  for (std::size_t s = 0; s < all.size(); ++s) {
    const SeriesView& view = all[s];
    os << (s == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << json_escape(view.name) << "\", \"kind\": \"" << view.kind
       << "\", \"points\": [";
    for (std::size_t p = 0; p < view.points.size(); ++p) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.17g", view.points[p].value);
      os << (p == 0 ? "" : ", ") << '[' << view.points[p].t_ms << ", " << buf
         << ']';
    }
    os << "]}";
  }
  os << (all.empty() ? "" : "\n  ") << "]\n}";
  return os.str();
}

}  // namespace lbmv::obs
