// Tests for trace spans and the ring-buffer recorder, plus the end-to-end
// acceptance check: a protocol round's per-server completion counters must
// equal the SystemMetrics totals when no warmup is discarded.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/flight_recorder.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/obs/sampler.h"
#include "lbmv/obs/trace.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/util/json.h"

namespace {

using namespace lbmv::obs;

struct EnabledScope {
  EnabledScope() { set_enabled(true); }
  ~EnabledScope() { set_enabled(false); }
};

// Recording-behaviour tests only apply with probes compiled in; under
// -DLBMV_OBS=OFF every record call is an intentional no-op.
#define SKIP_IF_COMPILED_OUT()                                          \
  if (!lbmv::obs::kCompiledIn)                                          \
  GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)"

TEST(TraceRecorder, SpanRecordsIntoGlobalRecorderWhenEnabled) {
  SKIP_IF_COMPILED_OUT();
  TraceRecorder::global().clear();
  {
    EnabledScope on;
    const Span span("unit_test_span", "test");
  }
  const auto events = TraceRecorder::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "unit_test_span");
  EXPECT_STREQ(events[0].category, "test");
  EXPECT_GT(events[0].tid, 0u);
}

TEST(TraceRecorder, SpanIsANoOpWhenDisabled) {
  TraceRecorder::global().clear();
  set_enabled(false);
  { const Span span("invisible", "test"); }
  EXPECT_TRUE(TraceRecorder::global().events().empty());
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  TraceRecorder recorder(/*capacity_per_thread=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.record("s", "test", /*start_ns=*/i, /*duration_ns=*/1);
  }
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 3u);
  // The two most recent spans (starts 3 and 4) survive.
  EXPECT_EQ(events.front().start_ns + events.back().start_ns, 7u);
}

TEST(TraceRecorder, ChromeJsonParsesAndCarriesCompleteEvents) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  TraceRecorder recorder;
  recorder.record("alpha", "test", 1000, 2500);
  recorder.record("beta", "test", 4000, 500);
  const lbmv::util::JsonValue doc =
      lbmv::util::JsonValue::parse(recorder.to_chrome_json());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").as_string(), "alpha");
  EXPECT_EQ(events[0].at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(events[0].at("ts").as_number(), 0.0);   // rebased
  EXPECT_DOUBLE_EQ(events[0].at("dur").as_number(), 2.5);  // us
  EXPECT_DOUBLE_EQ(events[1].at("ts").as_number(), 3.0);
  EXPECT_GT(events[0].at("tid").as_number(), 0.0);
}

TEST(TraceRecorder, EmptyRecorderStillEmitsValidJson) {
  const TraceRecorder recorder;
  const auto doc = lbmv::util::JsonValue::parse(recorder.to_chrome_json());
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

TEST(TraceRecorder, ConcurrentSpanEmissionKeepsEveryThreadsTail) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  TraceRecorder recorder(/*capacity_per_thread=*/64);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kSpansPerThread = 200;  // > capacity: rings wrap
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorder] {
      for (std::uint64_t i = 0; i < kSpansPerThread; ++i) {
        recorder.record("worker_span", "test", /*start_ns=*/i,
                        /*duration_ns=*/1);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto events = recorder.events();
  EXPECT_EQ(events.size(), std::size_t{kThreads} * 64u);
  EXPECT_EQ(recorder.dropped(), kThreads * (kSpansPerThread - 64));
}

TEST(TraceRecorder, ScrapeDuringEmissionSeesConsistentSpans) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  TraceRecorder recorder(/*capacity_per_thread=*/128);
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < 2; ++t) {
    emitters.emplace_back([&] {
      // At least one ring-wrap's worth even if the scraper finishes first.
      std::uint64_t i = 0;
      while (i < 300 || !stop.load(std::memory_order_relaxed)) {
        recorder.record("live_span", "test", ++i, 7);
      }
    });
  }
  // Scrape concurrently with the emitters; every copied-out event must be
  // fully formed (the JSON export also walks the rings under the lock).
  for (int scrape = 0; scrape < 50; ++scrape) {
    for (const TraceEvent& e : recorder.events()) {
      EXPECT_EQ(std::string_view(e.name), "live_span");
      EXPECT_EQ(e.duration_ns, 7u);
      EXPECT_GT(e.start_ns, 0u);
    }
    (void)recorder.to_chrome_json();
  }
  stop.store(true);
  for (auto& e : emitters) e.join();
}

TEST(FlightRecorder, ScrapeDuringEmissionSeesConsistentRecords) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  FlightRecorder recorder(/*capacity_per_thread=*/128);
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < 2; ++t) {
    emitters.emplace_back([&] {
      // At least one ring-wrap's worth even if the scraper finishes first.
      std::uint64_t i = 0;
      while (i < 300 || !stop.load(std::memory_order_relaxed)) {
        recorder.record(Severity::kWarn, "test", "live_record",
                        {{"i", static_cast<double>(++i)}, {"k", 2.0}});
      }
    });
  }
  for (int scrape = 0; scrape < 50; ++scrape) {
    for (const FlightRecord& rec : recorder.records()) {
      EXPECT_EQ(std::string_view(rec.message), "live_record");
      EXPECT_EQ(rec.severity, Severity::kWarn);
      ASSERT_EQ(rec.kv_count, 2u);
      EXPECT_GT(rec.kv[0].value, 0.0);
      EXPECT_DOUBLE_EQ(rec.kv[1].value, 2.0);
    }
    (void)recorder.to_jsonl();
  }
  stop.store(true);
  for (auto& e : emitters) e.join();
  EXPECT_EQ(recorder.records().size(), 2u * 128u);
}

TEST(SamplerConcurrency, BackgroundScraperOverlapsEmittersAndReaders) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Counter ticks = registry.counter("lbmv_test_concurrent_ticks_total");
  TimeSeriesSampler sampler(registry, /*capacity_per_series=*/32);
  sampler.start(std::chrono::milliseconds(1));
  EXPECT_TRUE(sampler.running());

  std::atomic<bool> stop{false};
  std::thread emitter([&] {
    while (!stop.load(std::memory_order_relaxed)) ticks.inc();
  });
  // Reads race the background scraper on purpose.
  for (int i = 0; i < 20; ++i) {
    (void)sampler.rate_per_sec("lbmv_test_concurrent_ticks_total");
    (void)sampler.series();
    (void)sampler.to_json();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  emitter.join();
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.sample_count(), 2u);

  // Monotone counter: the sampled series must be nondecreasing.
  const SeriesView view =
      sampler.series_for("lbmv_test_concurrent_ticks_total");
  for (std::size_t p = 1; p < view.points.size(); ++p) {
    EXPECT_LE(view.points[p - 1].value, view.points[p].value);
  }
}

TEST(ObsIntegration, ProtocolRoundCountersMatchSystemMetrics) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry::global().reset();
  TraceRecorder::global().clear();

  const lbmv::model::SystemConfig config({0.01, 0.01, 0.02}, 3.0);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::sim::ProtocolOptions options;
  options.horizon = 500.0;
  options.warmup_fraction = 0.0;  // count every completion
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  const auto report =
      protocol.run_round(config, lbmv::model::BidProfile::truthful(config));

  const MetricsSnapshot snap = Registry::global().snapshot();
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const std::string server = "C" + std::to_string(i + 1);
    const std::string name =
        labeled("lbmv_server_completions_total", "server", server);
    ASSERT_TRUE(snap.counters.contains(name)) << name;
    const std::uint64_t completions = snap.counters.at(name);
    EXPECT_EQ(completions, report.metrics.servers[i].jobs_completed) << name;
    counted += completions;
    // The round publishes each drained server once: every arrival
    // completed and every completion carried one waiting-time sample.
    const std::string arrivals =
        labeled("lbmv_server_arrivals_total", "server", server);
    ASSERT_TRUE(snap.counters.contains(arrivals)) << arrivals;
    EXPECT_EQ(snap.counters.at(arrivals), completions) << arrivals;
    const std::string waiting =
        labeled("lbmv_server_waiting_seconds", "server", server);
    ASSERT_TRUE(snap.histograms.contains(waiting)) << waiting;
    EXPECT_EQ(snap.histograms.at(waiting).count, completions) << waiting;
    EXPECT_EQ(snap.histograms.at(waiting).nan_count, 0u) << waiting;
  }
  EXPECT_EQ(counted, report.metrics.total_jobs());
  // More jobs than one 1024-completion batch: a batched publish would miss some.
  constexpr std::uint64_t kManyJobs = 1024;
  EXPECT_GT(counted, kManyJobs);
  // The source's job count is published once per round.
  EXPECT_EQ(snap.counters.at("lbmv_sim_source_jobs_total"),
            report.metrics.total_jobs());

  // The round also left a protocol_round span behind.
  bool saw_round_span = false;
  for (const TraceEvent& e : TraceRecorder::global().events()) {
    if (std::string_view(e.name) == "protocol_round") saw_round_span = true;
  }
  EXPECT_TRUE(saw_round_span);
}

TEST(ObsIntegration, ProtocolRoundWithRecordingOffRegistersAndRecordsNothing) {
  set_enabled(false);
  // Five servers: C4 and C5 are names no other test in this binary uses,
  // so a labelled family registered by this round would be new.
  const lbmv::model::SystemConfig config({0.01, 0.01, 0.02, 0.015, 0.03}, 5.0);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::sim::ProtocolOptions options;
  options.horizon = 500.0;
  options.warmup_fraction = 0.0;
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  const MetricsSnapshot before = Registry::global().snapshot();
  const std::size_t spans_before = TraceRecorder::global().events().size();
  const auto report =
      protocol.run_round(config, lbmv::model::BidProfile::truthful(config));
  ASSERT_GT(report.metrics.total_jobs(), 0u);
  const MetricsSnapshot after = Registry::global().snapshot();
  EXPECT_EQ(after.counters, before.counters);
  ASSERT_EQ(after.histograms.size(), before.histograms.size());
  for (const auto& [name, h] : before.histograms) {
    ASSERT_TRUE(after.histograms.contains(name)) << name;
    EXPECT_EQ(after.histograms.at(name).count, h.count) << name;
    EXPECT_EQ(after.histograms.at(name).buckets, h.buckets) << name;
  }
  EXPECT_EQ(TraceRecorder::global().events().size(), spans_before);
}

}  // namespace
