// Tests for the sharded metrics registry: histogram bucket geometry at the
// edges of the double range, merge associativity across thread counts,
// single-writer cells under concurrent scrapes and resets, and the
// zero-cost-when-off contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/util/json.h"
#include "lbmv/util/thread_pool.h"

namespace {

using namespace lbmv::obs;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// RAII guard: enable recording for one test, restore "off" after.
struct EnabledScope {
  EnabledScope() { set_enabled(true); }
  ~EnabledScope() { set_enabled(false); }
};

// Recording-behaviour tests only apply with probes compiled in; under
// -DLBMV_OBS=OFF every record call is an intentional no-op.  Bucket
// geometry and name composition stay testable in both modes.
#define SKIP_IF_COMPILED_OUT()                                          \
  if (!lbmv::obs::kCompiledIn)                                          \
  GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)"

TEST(HistogramBuckets, EdgeValuesLandInUnderflowAndOverflow) {
  // Zero, negatives, subnormals and anything below 2^-34 share the
  // underflow bucket.
  EXPECT_EQ(histogram_bucket(0.0), 0u);
  EXPECT_EQ(histogram_bucket(-0.0), 0u);
  EXPECT_EQ(histogram_bucket(-1.5), 0u);
  EXPECT_EQ(histogram_bucket(-kInf), 0u);
  EXPECT_EQ(histogram_bucket(5e-324), 0u);  // smallest subnormal
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::denorm_min()), 0u);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::min()), 0u);
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, -35)), 0u);

  // +inf, max-double and anything >= 2^30 share the overflow bucket.
  EXPECT_EQ(histogram_bucket(kInf), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<double>::max()),
            kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, 30)), kHistogramBuckets - 1);

  // The range edges themselves are in range.
  EXPECT_EQ(histogram_bucket(std::ldexp(1.0, -34)), 1u);
  EXPECT_EQ(histogram_bucket(std::nextafter(std::ldexp(1.0, 30), 0.0)),
            kHistogramBuckets - 2);
}

TEST(HistogramBuckets, UpperBoundsAreMonotoneAndBracketValues) {
  for (std::size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
    EXPECT_LT(histogram_bucket_upper(b - 1), histogram_bucket_upper(b))
        << "bucket " << b;
  }
  EXPECT_TRUE(std::isinf(histogram_bucket_upper(kHistogramBuckets - 1)));

  // Every in-range value falls strictly below its bucket's upper bound and
  // at/above the previous bucket's.
  for (double v : {6e-11, 1e-6, 0.4375, 1.0, 1.0624, 3.14159, 12345.678,
                   9.9e8}) {
    const std::size_t b = histogram_bucket(v);
    ASSERT_GT(b, 0u);
    ASSERT_LT(b, kHistogramBuckets - 1);
    EXPECT_LT(v, histogram_bucket_upper(b)) << v;
    EXPECT_GE(v, histogram_bucket_upper(b - 1)) << v;
  }
}

TEST(HistogramBuckets, RelativeResolutionIsAboutSixPercent) {
  // Log-linear with 16 sub-buckets: bucket width / lower edge <= 1/16.
  for (double v : {1e-8, 0.77, 42.0, 1e6}) {
    const std::size_t b = histogram_bucket(v);
    const double lo = histogram_bucket_upper(b - 1);
    const double hi = histogram_bucket_upper(b);
    EXPECT_LE((hi - lo) / lo, 1.0 / 16 + 1e-12) << v;
  }
}

TEST(Registry, HistogramRecordsEdgeValuesBySpec) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Histogram h = registry.histogram("h");
  h.record(0.0);
  h.record(5e-324);  // subnormal
  h.record(kInf);
  h.record(std::numeric_limits<double>::max());
  h.record(kNaN);

  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot& hs = snap.histograms.at("h");
  EXPECT_EQ(hs.count, 4u);  // NaN excluded from the sample count
  EXPECT_EQ(hs.nan_count, 1u);
  EXPECT_EQ(hs.buckets.front(), 2u);  // zero + subnormal
  EXPECT_EQ(hs.buckets.back(), 2u);   // +inf + max-double
  EXPECT_EQ(hs.min, 0.0);
  EXPECT_TRUE(std::isinf(hs.max));

  // JSON must stay parseable despite the inf max/sum: non-finite values
  // are clamped to finite doubles, never emitted as bare inf/nan tokens.
  const lbmv::util::JsonValue doc =
      lbmv::util::JsonValue::parse(snap.to_json());
  const auto& h_doc = doc.at("histograms").at("h");
  EXPECT_DOUBLE_EQ(h_doc.at("count").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(h_doc.at("nan_count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h_doc.at("max").as_number(),
                   std::numeric_limits<double>::max());
}

TEST(Registry, QuantilesTrackRecordedRange) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Histogram h = registry.histogram("h");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot hs = registry.snapshot().histograms.at("h");
  EXPECT_EQ(hs.count, 100u);
  EXPECT_DOUBLE_EQ(hs.min, 1.0);
  EXPECT_DOUBLE_EQ(hs.max, 100.0);
  EXPECT_NEAR(hs.mean(), 50.5, 1e-9);
  // Log-linear resolution: quantile returns a bucket upper bound within
  // one bucket (~6%) of the exact order statistic, clamped to [min, max].
  EXPECT_NEAR(hs.quantile(0.5), 50.0, 50.0 * 0.07);
  EXPECT_NEAR(hs.quantile(0.95), 95.0, 95.0 * 0.07);
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), 100.0);
}

TEST(Registry, CounterHandlesAreNoOpsWhenDisabled) {
  set_enabled(false);
  Registry registry;
  Counter c = registry.counter("c");
  Gauge g = registry.gauge("g");
  Histogram h = registry.histogram("h");
  c.inc(7);
  g.add(3.0);
  h.record(1.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.0);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);

  // Default-constructed (unresolved) handles are inert even when enabled.
  EnabledScope on;
  Counter inert;
  inert.inc();  // must not crash
}

TEST(Registry, ShardMergeIsInvariantAcrossThreadCounts) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  // The same logical workload recorded under different pool sizes (and
  // hence different shard splits) must merge to identical snapshots:
  // counter sums, additive-gauge sums, and histogram bucket contents are
  // all associative and commutative.
  constexpr std::size_t kItems = 400;
  std::vector<MetricsSnapshot> snaps;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    Registry registry;
    Counter c = registry.counter("c");
    Gauge g = registry.gauge("g");
    Histogram h = registry.histogram("h");
    lbmv::util::ThreadPool pool(threads);
    pool.parallel_for(
        0, kItems,
        [&](std::size_t i) {
          c.inc(i % 3 + 1);
          g.add(i % 2 == 0 ? 1.0 : -1.0);
          h.record(static_cast<double>(i % 10) * 0.5);
        },
        /*grain=*/7);
    snaps.push_back(registry.snapshot());
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i].counters.at("c"), snaps[0].counters.at("c"));
    EXPECT_DOUBLE_EQ(snaps[i].gauges.at("g"), snaps[0].gauges.at("g"));
    const HistogramSnapshot& a = snaps[0].histograms.at("h");
    const HistogramSnapshot& b = snaps[i].histograms.at("h");
    EXPECT_EQ(b.count, a.count);
    EXPECT_DOUBLE_EQ(b.sum, a.sum);
    EXPECT_DOUBLE_EQ(b.min, a.min);
    EXPECT_DOUBLE_EQ(b.max, a.max);
    EXPECT_EQ(b.buckets, a.buckets);
  }
}

TEST(Registry, ResetZeroesSamplesButKeepsFamilies) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Counter c = registry.counter("c");
  Histogram h = registry.histogram("h");
  c.inc(5);
  h.record(2.0);
  registry.reset();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
  // Handles stay valid after reset.
  c.inc();
  EXPECT_EQ(registry.snapshot().counters.at("c"), 1u);
}

TEST(Registry, RecordEachMatchesOneRecordPerValue) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry one_by_one;
  Registry batched;
  Histogram a = one_by_one.histogram("h");
  Histogram b = batched.histogram("h");
  const auto expect_same = [&] {
    const HistogramSnapshot x = one_by_one.snapshot().histograms.at("h");
    const HistogramSnapshot y = batched.snapshot().histograms.at("h");
    EXPECT_EQ(y.count, x.count);
    EXPECT_EQ(y.nan_count, x.nan_count);
    EXPECT_EQ(y.sum, x.sum);  // bit-identical, not merely close
    EXPECT_EQ(y.min, x.min);
    EXPECT_EQ(y.max, x.max);
    EXPECT_EQ(y.buckets, x.buckets);
  };
  const auto record_both = [&](const std::vector<double>& values) {
    for (const double v : values) a.record(v);
    b.record_each(values.size(), [&](std::size_t i) { return values[i]; });
  };
  a.record(5.0);  // batches fold into existing cell state
  b.record(5.0);
  // Magnitudes whose running sum rounds differently in any other order.
  std::vector<double> values;
  for (int i = 1; i <= 200; ++i) values.push_back(1.0 / (i * 3.0 + 0.7));
  record_both(values);
  expect_same();
  // Edge values: NaN, zero, negatives, below and above the bucket range.
  record_both({0.0, -1.0, kNaN, 1e-40, 3.0, kInf, 1e30, kNaN});
  expect_same();

  // Disabled and empty batches record nothing.
  const std::uint64_t count = batched.snapshot().histograms.at("h").count;
  b.record_each(0, [](std::size_t) { return 1.0; });
  set_enabled(false);
  b.record_each(3, [](std::size_t) { return 1.0; });
  set_enabled(true);
  EXPECT_EQ(batched.snapshot().histograms.at("h").count, count);
}

TEST(Registry, SnapshotsDuringRecordingAreMonotoneAndExactAfterJoin) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  // Single-writer cells: each worker is the only writer of its shard while
  // the main thread scrapes every shard.  Scrapes never see a count go
  // backwards or past the total, and the joined totals are exact.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  Registry registry;
  Counter c = registry.counter("c");
  Gauge g = registry.gauge("g");
  Histogram h = registry.histogram("h");
  std::atomic<int> done{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(0.5);
        h.record(static_cast<double>(i % 64 + 1));
      }
      done.fetch_add(1);
    });
  }
  std::uint64_t last_count = 0;
  std::uint64_t last_hist = 0;
  int scrapes = 0;
  // At least a few scrapes even if the workers finish first.
  while (done.load() < kThreads || scrapes < 8) {
    const MetricsSnapshot snap = registry.snapshot();
    const std::uint64_t count = snap.counters.at("c");
    const std::uint64_t hist = snap.histograms.at("h").count;
    EXPECT_GE(count, last_count);
    EXPECT_LE(count, kTotal);
    EXPECT_GE(hist, last_hist);
    EXPECT_LE(hist, kTotal);
    last_count = count;
    last_hist = hist;
    ++scrapes;
  }
  for (auto& w : workers) w.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), kTotal);
  EXPECT_EQ(snap.gauges.at("g"), 0.5 * static_cast<double>(kTotal));
  const HistogramSnapshot& hs = snap.histograms.at("h");
  EXPECT_EQ(hs.count, kTotal);
  // Per thread: kPerThread / 64 full cycles of 1..64 (sum 2080 each).
  EXPECT_EQ(hs.sum, kThreads * (kPerThread / 64) * 2080.0 +
                        kThreads * ((kPerThread % 64) * (kPerThread % 64 + 1) /
                                    2.0));
  EXPECT_EQ(hs.min, 1.0);
  EXPECT_EQ(hs.max, 64.0);
}

TEST(Registry, ResetWhileRecordingIsSafeAndLaterTotalsAreExact) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  // reset() only requests a reset; each owner zeroes its own cells before
  // its next write.  Resets racing the writers (under TSan, too) must
  // leave every count within bounds, and a reset taken while the writers
  // are idle must make the next burst's totals exact.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kBurst = 20000;
  constexpr std::uint64_t kTotal = kThreads * kBurst;
  Registry registry;
  Counter c = registry.counter("c");
  Histogram h = registry.histogram("h");
  const auto burst = [&] {
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      c.inc();
      h.record(1.0);
    }
  };
  std::atomic<int> arrived{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      burst();  // races the resets below
      arrived.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      burst();  // after a reset taken while every writer was idle
    });
  }
  int resets = 0;
  while (arrived.load() < kThreads || resets < 8) {
    registry.reset();
    c.inc();  // the resetting thread records too
    ++resets;
    const MetricsSnapshot snap = registry.snapshot();
    EXPECT_LE(snap.counters.at("c"), kTotal + 1);
    EXPECT_LE(snap.histograms.at("h").count, kTotal);
  }
  registry.reset();
  EXPECT_EQ(registry.snapshot().counters.at("c"), 0u);
  EXPECT_EQ(registry.snapshot().histograms.at("h").count, 0u);
  go.store(true);
  for (auto& w : workers) w.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c"), kTotal);
  const HistogramSnapshot& hs = snap.histograms.at("h");
  EXPECT_EQ(hs.count, kTotal);
  EXPECT_EQ(hs.sum, static_cast<double>(kTotal));
  EXPECT_EQ(hs.min, 1.0);
  EXPECT_EQ(hs.max, 1.0);
}

TEST(Registry, FindOrRegisterReturnsTheSameFamily) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Counter a = registry.counter("same");
  Counter b = registry.counter("same");
  a.inc();
  b.inc();
  EXPECT_EQ(registry.snapshot().counters.at("same"), 2u);
}

TEST(Exposition, PrometheusHasTypeLinesAndLabels) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  registry.counter(labeled("family_total", "server", "C1")).inc(3);
  registry.histogram("lat").record(0.5);
  const std::string text = registry.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE family_total counter"), std::string::npos);
  EXPECT_NE(text.find("family_total{server=\"C1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1"), std::string::npos);
}

TEST(Exposition, LabeledComposesPrometheusNames) {
  EXPECT_EQ(labeled("f_total", "server", "C2"), "f_total{server=\"C2\"}");
}

}  // namespace
