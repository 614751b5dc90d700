#include "lbmv/obs/metrics.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace lbmv::obs {

namespace {

constexpr double kHistogramMinValue = 1.0 / (1ull << 34);  // 2^-34
constexpr double kHistogramMaxValue = double(1ull << 30);  // 2^30

// Single-writer cells: only the thread that owns a shard ever writes its
// cells, so an update is a relaxed load plus a relaxed store instead of a
// locked read-modify-write (fetch_add, or a CAS loop for min/max).
// Scrapers read the same atomics relaxed, so they never see a torn value,
// only one that is a few updates old.
template <typename T>
void bump(std::atomic<T>& cell, T delta) {
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

/// JSON has no inf/nan: clamp to the largest finite double (the overflow
/// bucket's `le` round-trips as max-double by design).
void append_json_number(std::ostringstream& os, double v) {
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) {
    v = v > 0 ? std::numeric_limits<double>::max()
              : std::numeric_limits<double>::lowest();
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Split `family{key="value"}` into the bare family name and the label
/// body (without braces); the label body is empty for unlabelled names.
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string_view::npos || name.back() != '}') {
    return {name, {}};
  }
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

}  // namespace

// ---- bucket geometry -------------------------------------------------------

std::size_t histogram_bucket(double value) {
  if (!(value >= kHistogramMinValue)) return 0;  // zero, negative, tiny
  if (value >= kHistogramMaxValue) return kHistogramBuckets - 1;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const int exp = static_cast<int>(bits >> 52) - 1023;  // normal: in range
  const auto sub = static_cast<std::size_t>(
      (bits >> (52 - kHistogramSubBits)) & (kHistogramSubBuckets - 1));
  return static_cast<std::size_t>(exp - kHistogramMinExp) *
             kHistogramSubBuckets +
         sub + 1;
}

double histogram_bucket_upper(std::size_t index) {
  if (index == 0) return kHistogramMinValue;
  if (index >= kHistogramBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  const std::size_t group = (index - 1) / kHistogramSubBuckets;
  const std::size_t sub = (index - 1) % kHistogramSubBuckets;
  return std::ldexp(
      1.0 + static_cast<double>(sub + 1) / kHistogramSubBuckets,
      kHistogramMinExp + static_cast<int>(group));
}

// ---- shard storage ---------------------------------------------------------

namespace {

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct HistogramCell {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> nan_count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};

  /// Fold value_at(0), ..., value_at(n-1) into the cell: one bucket bump
  /// per sample, the scalar fields loaded and stored once.  Samples are
  /// summed in order, so the cell ends up bit-identical to n single
  /// records.
  template <typename ValueAt>
  void record(std::size_t n, ValueAt value_at) {
    std::uint64_t finite = count.load(std::memory_order_relaxed);
    std::uint64_t nans = nan_count.load(std::memory_order_relaxed);
    double total = sum.load(std::memory_order_relaxed);
    double lo = min.load(std::memory_order_relaxed);
    double hi = max.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      const double value = value_at(i);
      if (std::isnan(value)) {
        ++nans;
        continue;
      }
      bump<std::uint64_t>(buckets[histogram_bucket(value)], 1);
      ++finite;
      total += value;
      if (value < lo) lo = value;
      if (value > hi) hi = value;
    }
    count.store(finite, std::memory_order_relaxed);
    nan_count.store(nans, std::memory_order_relaxed);
    sum.store(total, std::memory_order_relaxed);
    min.store(lo, std::memory_order_relaxed);
    max.store(hi, std::memory_order_relaxed);
  }

  void zero() {
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
    count.store(0, std::memory_order_relaxed);
    nan_count.store(0, std::memory_order_relaxed);
    sum.store(0.0, std::memory_order_relaxed);
    min.store(std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
    max.store(-std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
  }
};

}  // namespace

/// One thread's private cells.  The owning thread grows the cell vectors
/// (under `mutex`, because a scraper may be iterating them) and is the only
/// writer of cell contents; scrapers only ever read, under `mutex`.  The
/// registry keeps the shard alive after its thread exits so no sample is
/// lost.
///
/// Reset is a request, not a write: Registry::reset() bumps
/// `resets_requested`, and the owner zeroes its own cells before its next
/// write (apply_pending_reset), so a reset can never interleave with an
/// owner's load-then-store.  Until the owner catches up, snapshots read the
/// shard as empty.
struct Registry::Shard {
  std::mutex mutex;  ///< guards vector *structure*, not cell contents
  std::vector<std::unique_ptr<CounterCell>> counters;
  std::vector<std::unique_ptr<HistogramCell>> histograms;
  std::atomic<std::uint64_t> resets_requested{0};
  std::atomic<std::uint64_t> resets_applied{0};

  template <typename Cell>
  Cell& cell(std::vector<std::unique_ptr<Cell>>& cells, std::uint32_t index) {
    if (index >= cells.size()) {
      // Rare first-touch growth; the lock only excludes scrapers (other
      // threads never touch this shard's vectors).
      std::lock_guard lock(mutex);
      while (cells.size() <= index) cells.push_back(std::make_unique<Cell>());
    }
    return *cells[index];
  }

  /// Owner only: honour every reset requested since the last write.
  void apply_pending_reset() {
    const std::uint64_t requested =
        resets_requested.load(std::memory_order_relaxed);
    if (requested == resets_applied.load(std::memory_order_relaxed)) return;
    for (auto& c : counters) c->value.store(0, std::memory_order_relaxed);
    for (auto& h : histograms) h->zero();
    // Release: a scraper that sees the reset applied also sees the zeros.
    resets_applied.store(requested, std::memory_order_release);
  }

  /// Scraper side: true while the owner has not yet zeroed its cells for
  /// the latest reset, in which case the shard merges as empty.
  [[nodiscard]] bool reset_pending() const {
    return resets_applied.load(std::memory_order_acquire) !=
           resets_requested.load(std::memory_order_relaxed);
  }
};

namespace {

/// Thread-local shard cache, keyed by process-unique registry id so a
/// destroyed registry's entries can never be mistaken for a live one's.
/// The cache is bounded; eviction merely means the thread re-registers a
/// fresh shard, and shard merging is a sum, so duplicates are harmless.
struct TlsShardRef {
  std::uint64_t registry_id;
  void* shard;
};
thread_local std::vector<TlsShardRef> t_shard_cache;

std::atomic<std::uint64_t> g_next_registry_id{1};

}  // namespace

// ---- registry --------------------------------------------------------------

Registry::Registry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Registry::Shard& Registry::local_shard() {
  for (const TlsShardRef& ref : t_shard_cache) {
    if (ref.registry_id == id_) {
      Shard& shard = *static_cast<Shard*>(ref.shard);
      shard.apply_pending_reset();
      return shard;
    }
  }
  auto shard = std::make_shared<Shard>();
  {
    std::lock_guard lock(mutex_);
    shards_.push_back(shard);
  }
  if (t_shard_cache.size() >= 8) t_shard_cache.erase(t_shard_cache.begin());
  t_shard_cache.push_back(TlsShardRef{id_, shard.get()});
  return *shard;
}

namespace {

std::uint32_t find_or_register(std::vector<std::string>& names,
                               std::map<std::string, std::uint32_t>& index,
                               const std::string& name) {
  const auto it = index.find(name);
  if (it != index.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(names.size());
  names.push_back(name);
  index.emplace(name, idx);
  return idx;
}

}  // namespace

Counter Registry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  return Counter(this, find_or_register(counter_names_, counter_index_, name));
}

Histogram Registry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  return Histogram(
      this, find_or_register(histogram_names_, histogram_index_, name));
}

void Registry::counter_add(std::uint32_t index, std::uint64_t n) {
  Shard& shard = local_shard();
  bump(shard.cell(shard.counters, index).value, n);
}

void Registry::histogram_record(std::uint32_t index, double value) {
  Shard& shard = local_shard();
  shard.cell(shard.histograms, index).record(1, [value](std::size_t) {
    return value;
  });
}

void Registry::histogram_record_each(std::uint32_t index, std::size_t count,
                                     const void* fn,
                                     double (*value_at)(const void*,
                                                        std::size_t)) {
  Shard& shard = local_shard();
  shard.cell(shard.histograms, index).record(count, [&](std::size_t i) {
    return value_at(fn, i);
  });
}

void Counter::detail_add(std::uint64_t n) { registry_->counter_add(index_, n); }
void Histogram::detail_record(double value) {
  registry_->histogram_record(index_, value);
}
void Histogram::detail_record_each(std::size_t count, const void* fn,
                                   double (*value_at)(const void*,
                                                      std::size_t)) {
  registry_->histogram_record_each(index_, count, fn, value_at);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.timestamp_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::vector<std::string> counter_names, histogram_names;
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard lock(mutex_);
    counter_names = counter_names_;
    histogram_names = histogram_names_;
    shards = shards_;
  }
  for (const auto& name : counter_names) snap.counters[name] = 0;
  for (const auto& name : histogram_names) {
    snap.histograms[name].buckets.assign(kHistogramBuckets, 0);
  }

  for (const auto& shard : shards) {
    if (shard->reset_pending()) continue;  // reads as empty until applied
    std::lock_guard lock(shard->mutex);
    for (std::size_t i = 0;
         i < shard->counters.size() && i < counter_names.size(); ++i) {
      snap.counters[counter_names[i]] +=
          shard->counters[i]->value.load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0;
         i < shard->histograms.size() && i < histogram_names.size(); ++i) {
      const HistogramCell& cell = *shard->histograms[i];
      HistogramSnapshot& hs = snap.histograms[histogram_names[i]];
      const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
      hs.count += count;
      hs.nan_count += cell.nan_count.load(std::memory_order_relaxed);
      hs.sum += cell.sum.load(std::memory_order_relaxed);
      if (count > 0) {
        const double mn = cell.min.load(std::memory_order_relaxed);
        const double mx = cell.max.load(std::memory_order_relaxed);
        if (hs.count == count) {  // first contributing shard
          hs.min = mn;
          hs.max = mx;
        } else {
          hs.min = std::min(hs.min, mn);
          hs.max = std::max(hs.max, mx);
        }
      }
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        hs.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
      }
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& shard : shards_) {
    shard->resets_requested.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- snapshot maths --------------------------------------------------------

double HistogramSnapshot::mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    if (cumulative >= target && buckets[b] > 0) {
      return std::clamp(histogram_bucket_upper(b), min, max);
    }
  }
  return max;
}

// ---- exposition ------------------------------------------------------------

std::string MetricsSnapshot::to_prometheus(bool with_timestamps) const {
  std::ostringstream os;
  std::string stamp;
  if (with_timestamps) {
    stamp = ' ' + std::to_string(timestamp_ms);
  }
  std::string last_type_line;
  const auto type_line = [&](std::string_view name, const char* type) {
    const auto [family, labels] = split_labels(name);
    (void)labels;
    std::string line = "# TYPE " + std::string(family) + " " + type + "\n";
    if (line != last_type_line) {
      os << line;
      last_type_line = std::move(line);
    }
  };
  for (const auto& [name, value] : counters) {
    type_line(name, "counter");
    os << name << ' ' << value << stamp << '\n';
  }
  for (const auto& [name, hist] : histograms) {
    type_line(name, "histogram");
    const auto [family, labels] = split_labels(name);
    const auto with_labels = [&, family = family,
                              labels = labels](const char* suffix,
                                               const std::string& extra) {
      std::string out(family);
      out += suffix;
      if (!labels.empty() || !extra.empty()) {
        out += '{';
        out += labels;
        if (!labels.empty() && !extra.empty()) out += ',';
        out += extra;
        out += '}';
      }
      return out;
    };
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      if (hist.buckets[b] == 0) continue;
      cumulative += hist.buckets[b];
      char le[48];
      const double upper = histogram_bucket_upper(b);
      if (std::isinf(upper)) {
        std::snprintf(le, sizeof le, "le=\"+Inf\"");
      } else {
        std::snprintf(le, sizeof le, "le=\"%.10g\"", upper);
      }
      os << with_labels("_bucket", le) << ' ' << hist.buckets[b] << stamp
         << '\n';
    }
    os << with_labels("_bucket", "le=\"+Inf\"") << ' ' << hist.count << stamp
       << '\n';
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", hist.sum);
    os << with_labels("_sum", "") << ' ' << buf << stamp << '\n';
    os << with_labels("_count", "") << ' ' << hist.count << stamp << '\n';
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {"
       << "\"count\": " << hist.count << ", \"nan_count\": " << hist.nan_count
       << ", \"sum\": ";
    append_json_number(os, hist.sum);
    os << ", \"min\": ";
    append_json_number(os, hist.min);
    os << ", \"max\": ";
    append_json_number(os, hist.max);
    os << ", \"mean\": ";
    append_json_number(os, hist.mean());
    os << ", \"p50\": ";
    append_json_number(os, hist.quantile(0.50));
    os << ", \"p95\": ";
    append_json_number(os, hist.quantile(0.95));
    os << ", \"p99\": ";
    append_json_number(os, hist.quantile(0.99));
    os << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      if (hist.buckets[b] == 0) continue;
      os << (first_bucket ? "" : ", ") << "{\"le\": ";
      append_json_number(os, histogram_bucket_upper(b));
      os << ", \"count\": " << hist.buckets[b] << '}';
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}";
  return os.str();
}

std::string labeled(std::string_view family, std::string_view key,
                    std::string_view value) {
  std::string out(family);
  out += '{';
  out += key;
  out += "=\"";
  out += value;
  out += "\"}";
  return out;
}

}  // namespace lbmv::obs
