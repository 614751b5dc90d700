// Tests for the live-telemetry pipeline: invariant monitors over corrupted
// and healthy rounds, the flight recorder's ring/JSONL contract, the
// time-series sampler's windowed rates, and the probe naming convention.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/delta_engine.h"
#include "lbmv/core/invariants.h"
#include "lbmv/core/profile_context.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/flight_recorder.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/obs/obs.h"
#include "lbmv/obs/sampler.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/strategy/best_response.h"
#include "lbmv/util/json.h"

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
// -DLBMV_OBS=OFF every record call is an intentional no-op.
#define SKIP_IF_COMPILED_OUT()                                          \
  if (!lbmv::obs::kCompiledIn)                                          \
  GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)"

std::uint64_t counter_or_zero(const MetricsSnapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(RoundInvariants, CleanRoundHasNoViolations) {
  SKIP_IF_COMPILED_OUT();
  Registry::global().reset();
  FlightRecorder::global().clear();
  EnabledScope on;

  const lbmv::model::SystemConfig config({1.0, 2.0, 5.0}, 10.0);
  const auto profile = lbmv::model::BidProfile::truthful(config);
  const lbmv::core::CompBonusMechanism mechanism;
  const auto outcome = mechanism.run(config, profile);

  const std::size_t violations = lbmv::core::check_round_invariants(
      profile.bids, profile.executions, config.arrival_rate(), outcome,
      lbmv::core::RoundInvariantOptions{/*linear_pr=*/true,
                                        /*participation_guaranteed=*/true});
  EXPECT_EQ(violations, 0u);

  const MetricsSnapshot snap = Registry::global().snapshot();
  const MonitorTotals totals = monitor_totals(snap);
  EXPECT_GT(totals.checks, 0u);
  EXPECT_EQ(totals.violations, 0u);
  // run() itself also feeds the monitors (run_into's obs block), so the
  // explicit pass above is the second check of each invariant.
  EXPECT_GE(counter_or_zero(snap, "lbmv_monitor_feasibility_checks_total"),
            2u);
  EXPECT_TRUE(FlightRecorder::global().records().empty());
}

TEST(RoundInvariants, CorruptedRoundFlagsEveryMonitor) {
  SKIP_IF_COMPILED_OUT();
  Registry::global().reset();
  FlightRecorder::global().clear();
  EnabledScope on;

  const lbmv::model::SystemConfig config({1.0, 2.0, 5.0}, 10.0);
  const auto profile = lbmv::model::BidProfile::truthful(config);
  const lbmv::core::CompBonusMechanism mechanism;
  auto outcome = mechanism.run(config, profile);

  // Corrupt all four invariants: ship too much (feasibility + KKT), break
  // the P = C + B split, and fake a negative truthful utility.
  std::vector<double> rates = std::move(outcome.allocation).release();
  rates[0] *= 1.05;
  outcome.allocation = lbmv::model::Allocation(std::move(rates));
  outcome.agents[0].payment += 1.0;
  outcome.agents[0].utility = -1.0;

  const std::size_t violations = lbmv::core::check_round_invariants(
      profile.bids, profile.executions, config.arrival_rate(), outcome,
      lbmv::core::RoundInvariantOptions{/*linear_pr=*/true,
                                        /*participation_guaranteed=*/true});
  EXPECT_EQ(violations, 4u);

  const MetricsSnapshot snap = Registry::global().snapshot();
  for (const char* family :
       {"lbmv_monitor_feasibility_violations_total",
        "lbmv_monitor_payment_decomposition_violations_total",
        "lbmv_monitor_participation_violations_total",
        "lbmv_monitor_kkt_stationarity_violations_total"}) {
    EXPECT_EQ(counter_or_zero(snap, family), 1u) << family;
  }

  // Every violation left a structured anomaly record with the residual
  // magnitude as its first payload entry.
  const auto records = FlightRecorder::global().records();
  ASSERT_EQ(records.size(), 4u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.severity, Severity::kError);
    ASSERT_GE(rec.kv_count, 1u);
    EXPECT_STREQ(rec.kv[0].key, "residual");
    EXPECT_GT(rec.kv[0].value, 1e-9);
  }
}

TEST(RoundInvariants, Mm1ComputerWronglyLeftIdleIsFlaggedWithItsIndex) {
  SKIP_IF_COMPILED_OUT();
  Registry::global().reset();
  FlightRecorder::global().clear();
  EnabledScope on;

  // Service rates mu = {4, 4, 4, 1/4} at R = 5: c = 7/6 over the three
  // fast computers, above sqrt(1/4), so computer 3 is rightly idle.
  const lbmv::model::SystemConfig config(
      {0.25, 0.25, 0.25, 4.0}, 5.0,
      std::make_shared<const lbmv::model::MM1Family>());
  const auto profile = lbmv::model::BidProfile::truthful(config);
  const lbmv::core::CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  auto outcome = mechanism.run(config, profile);
  ASSERT_EQ(outcome.allocation[3], 0.0);
  EXPECT_EQ(monitor_totals(Registry::global().snapshot()).violations, 0u);

  // Seed the defect: computer 1 left idle, its load split over computers 0
  // and 2, so the round still ships R and the active marginals stay equal.
  std::vector<double> rates = std::move(outcome.allocation).release();
  rates[0] += 0.5 * rates[1];
  rates[2] += 0.5 * rates[1];
  rates[1] = 0.0;
  outcome.allocation = lbmv::model::Allocation(std::move(rates));
  lbmv::core::RoundInvariantOptions options;
  options.participation_guaranteed = false;
  options.mm1_exact = true;
  EXPECT_EQ(lbmv::core::check_round_invariants(profile.bids,
                                               profile.executions,
                                               config.arrival_rate(),
                                               outcome, options),
            1u);

  const MetricsSnapshot snap = Registry::global().snapshot();
  EXPECT_EQ(counter_or_zero(
                snap, "lbmv_monitor_kkt_stationarity_violations_total"),
            1u);
  const auto records = FlightRecorder::global().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_STREQ(records[0].message, "kkt_stationarity");
  ASSERT_GE(records[0].kv_count, 2u);
  EXPECT_STREQ(records[0].kv[1].key, "agent");
  EXPECT_EQ(records[0].kv[1].value, 1.0);  // not the rightly idle computer 3
}

TEST(RoundInvariants, ParticipationDisarmsOnInconsistentProfile) {
  SKIP_IF_COMPILED_OUT();
  Registry::global().reset();
  FlightRecorder::global().clear();
  EnabledScope on;

  const lbmv::model::SystemConfig config({1.0, 2.0, 5.0}, 10.0);
  auto profile = lbmv::model::BidProfile::truthful(config);
  profile.executions[0] = profile.bids[0] * 1.5;  // t~ != b: inconsistent
  const lbmv::core::CompBonusMechanism mechanism;
  auto outcome = mechanism.run(config, profile);
  // A negative utility is *legitimate* at an inconsistent round (the agent
  // lied about execution speed); the monitor must not cry wolf.
  outcome.agents[0].utility = -1.0;

  const MetricsSnapshot before = Registry::global().snapshot();
  const std::size_t violations = lbmv::core::check_round_invariants(
      profile.bids, profile.executions, config.arrival_rate(), outcome,
      lbmv::core::RoundInvariantOptions{/*linear_pr=*/true,
                                        /*participation_guaranteed=*/true});
  EXPECT_EQ(violations, 0u);
  const MetricsSnapshot after = Registry::global().snapshot();
  EXPECT_EQ(
      counter_or_zero(after, "lbmv_monitor_participation_checks_total"),
      counter_or_zero(before, "lbmv_monitor_participation_checks_total"));
}

TEST(InvariantMonitorContract, ToleranceGateIsNanAndInfSafe) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  InvariantMonitor strict("unit_strict", "test", 1e-9);
  EXPECT_TRUE(strict.check(0.0));
  EXPECT_TRUE(strict.check(1e-12));
  EXPECT_FALSE(strict.check(1e-3));
  EXPECT_FALSE(strict.check(-1e-3));  // magnitude, not signed residual
  // NaN never compares greater: recorded as a check, never a violation.
  EXPECT_TRUE(strict.check(kNaN));

  // Record-only gauges (tolerance = inf) never fire, whatever the value.
  InvariantMonitor gauge("unit_gauge", "test", kInf);
  EXPECT_TRUE(gauge.check(1e30));
  EXPECT_TRUE(gauge.check(kInf));
}

TEST(ContextDrift, PeriodicRebuildFeedsDriftMonitor) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  const MetricsSnapshot before = Registry::global().snapshot();

  const lbmv::model::SystemConfig config({1.0, 2.0, 5.0}, 10.0);
  lbmv::core::LinearPrProfileContext context(
      lbmv::core::LinearPrRule::kCompBonusExecution, config.arrival_rate(),
      lbmv::model::BidProfile::truthful(config));
  // Drive past the rebuild period (max(64, n) commits) a few times over.
  for (int i = 0; i < 300; ++i) {
    const double bid = 1.0 + 0.001 * static_cast<double>(i % 7);
    context.commit(static_cast<std::size_t>(i) % config.size(), bid, bid);
  }

  const MetricsSnapshot after = Registry::global().snapshot();
  const auto checks = [](const MetricsSnapshot& snap) {
    return counter_or_zero(snap, "lbmv_monitor_context_drift_checks_total");
  };
  const auto violations = [](const MetricsSnapshot& snap) {
    return counter_or_zero(snap,
                           "lbmv_monitor_context_drift_violations_total");
  };
  EXPECT_GT(checks(after), checks(before));
  // O(1) deltas against a from-scratch re-sum stay far below 1e-9.
  EXPECT_EQ(violations(after), violations(before));
}

TEST(FlightRecorderContract, JsonlRoundTrips) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  FlightRecorder recorder(8);
  recorder.record(Severity::kInfo, "test", "startup", {{"n", 3.0}});
  recorder.record(Severity::kWarn, "test", "queue_depth",
                  {{"depth", 17.0}, {"limit", 16.0}});
  recorder.record(Severity::kError, "test", "mass_balance",
                  {{"residual", 0.25}});

  const std::string jsonl = recorder.to_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::vector<lbmv::util::JsonValue> parsed;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    parsed.push_back(lbmv::util::JsonValue::parse(line));
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].at("severity").as_string(), "info");
  EXPECT_EQ(parsed[0].at("message").as_string(), "startup");
  EXPECT_DOUBLE_EQ(parsed[0].at("data").at("n").as_number(), 3.0);
  EXPECT_EQ(parsed[1].at("severity").as_string(), "warn");
  EXPECT_DOUBLE_EQ(parsed[1].at("data").at("depth").as_number(), 17.0);
  EXPECT_DOUBLE_EQ(parsed[1].at("data").at("limit").as_number(), 16.0);
  EXPECT_EQ(parsed[2].at("severity").as_string(), "error");
  EXPECT_EQ(parsed[2].at("subsystem").as_string(), "test");
  EXPECT_DOUBLE_EQ(parsed[2].at("data").at("residual").as_number(), 0.25);
  // Timestamps are monotone within a thread, so the sort is stable.
  EXPECT_LE(parsed[0].at("t_ns").as_number(),
            parsed[1].at("t_ns").as_number());
}

TEST(FlightRecorderContract, RingOverwritesOldestAndCountsDropped) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.record(Severity::kInfo, "test", "tick",
                    {{"i", static_cast<double>(i)}});
  }
  const auto records = recorder.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // The *last* four records survive, in timestamp order.
  for (std::size_t r = 0; r < records.size(); ++r) {
    EXPECT_DOUBLE_EQ(records[r].kv[0].value, static_cast<double>(6 + r));
  }

  recorder.clear();
  EXPECT_TRUE(recorder.records().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightRecorderContract, PayloadClampsToMaxKeyValues) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  FlightRecorder recorder(4);
  recorder.record(Severity::kInfo, "test", "wide",
                  {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}, {"d", 4.0},
                   {"e", 5.0}, {"f", 6.0}});
  const auto records = recorder.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kv_count, FlightRecord::kMaxKeyValues);
  EXPECT_STREQ(records[0].kv[FlightRecord::kMaxKeyValues - 1].key, "d");
}

TEST(SamplerContract, WindowedRatesDeltasAndRingWrap) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Counter ticks = registry.counter("lbmv_test_ticks_total");
  TimeSeriesSampler sampler(registry, /*capacity_per_series=*/4);

  for (std::uint64_t i = 1; i <= 6; ++i) {
    ticks.inc(10);
    sampler.sample_at(1000 * i);
  }
  EXPECT_EQ(sampler.sample_count(), 6u);
  EXPECT_GT(sampler.dropped_points(), 0u);  // 6 samples into capacity 4

  const SeriesView view = sampler.series_for("lbmv_test_ticks_total");
  EXPECT_EQ(view.kind, "counter");
  ASSERT_EQ(view.points.size(), 4u);
  for (std::size_t p = 1; p < view.points.size(); ++p) {
    EXPECT_LT(view.points[p - 1].t_ms, view.points[p].t_ms);  // oldest first
  }
  EXPECT_DOUBLE_EQ(view.points.back().value, 60.0);

  // 10 ticks per simulated second, whatever the window.
  EXPECT_DOUBLE_EQ(sampler.last_delta("lbmv_test_ticks_total"), 10.0);
  EXPECT_DOUBLE_EQ(sampler.rate_per_sec("lbmv_test_ticks_total"), 10.0);
  EXPECT_DOUBLE_EQ(sampler.rate_per_sec("lbmv_test_ticks_total", 1), 10.0);
  EXPECT_DOUBLE_EQ(sampler.rate_per_sec("no_such_series"), 0.0);
}

TEST(SamplerContract, HistogramsSplitIntoCountAndSumSeries) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  Histogram latency = registry.histogram("lbmv_test_latency_seconds");
  TimeSeriesSampler sampler(registry, 8);
  latency.record(0.5);
  latency.record(1.5);
  sampler.sample_at(1000);

  const SeriesView count =
      sampler.series_for("lbmv_test_latency_seconds:count");
  const SeriesView sum = sampler.series_for("lbmv_test_latency_seconds:sum");
  ASSERT_EQ(count.points.size(), 1u);
  ASSERT_EQ(sum.points.size(), 1u);
  EXPECT_EQ(count.kind, "histogram_count");
  EXPECT_EQ(sum.kind, "histogram_sum");
  EXPECT_DOUBLE_EQ(count.points[0].value, 2.0);
  EXPECT_DOUBLE_EQ(sum.points[0].value, 2.0);
}

TEST(SamplerContract, ToJsonParsesAndEscapesLabeledNames) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  registry.counter(labeled("lbmv_test_jobs_total", "server", "C1")).inc(7);
  TimeSeriesSampler sampler(registry, 8);
  sampler.sample_at(1000);
  sampler.sample_at(2000);

  const auto doc = lbmv::util::JsonValue::parse(sampler.to_json());
  EXPECT_DOUBLE_EQ(doc.at("capacity").as_number(), 8.0);
  EXPECT_DOUBLE_EQ(doc.at("samples").as_number(), 2.0);
  const auto& series = doc.at("series").as_array();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].at("name").as_string(),
            "lbmv_test_jobs_total{server=\"C1\"}");
  EXPECT_EQ(series[0].at("kind").as_string(), "counter");
  const auto& points = series[0].at("points").as_array();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[1].as_array()[0].as_number(), 2000.0);
  EXPECT_DOUBLE_EQ(points[1].as_array()[1].as_number(), 7.0);
}

TEST(Exposition, PrometheusTimestampsAreOptIn) {
  SKIP_IF_COMPILED_OUT();
  EnabledScope on;
  Registry registry;
  registry.counter("lbmv_test_stamped_total").inc(1);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.timestamp_ms, 0u);

  const std::string stamp = std::to_string(snap.timestamp_ms);
  const std::string with = snap.to_prometheus(/*with_timestamps=*/true);
  EXPECT_NE(with.find("lbmv_test_stamped_total 1 " + stamp),
            std::string::npos);
  const std::string without = snap.to_prometheus();
  EXPECT_NE(without.find("lbmv_test_stamped_total 1\n"), std::string::npos);
  EXPECT_EQ(without.find(stamp), std::string::npos);
}

TEST(NamingConvention, EveryRegisteredFamilyFollowsTheConvention) {
  SKIP_IF_COMPILED_OUT();
  Registry::global().reset();
  EnabledScope on;

  // Exercise the major subsystems so their lazily-registered families all
  // exist, then audit every name in the global registry.
  const lbmv::model::SystemConfig sim_config({0.01, 0.01, 0.02}, 3.0);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::sim::ProtocolOptions options;
  options.horizon = 200.0;
  options.warmup_fraction = 0.0;
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  (void)protocol.run_round(sim_config,
                           lbmv::model::BidProfile::truthful(sim_config));

  const lbmv::model::SystemConfig game_config({1.0, 2.0, 5.0}, 10.0);
  lbmv::strategy::BestResponseOptions dynamics;
  dynamics.max_rounds = 2;
  (void)lbmv::strategy::best_response_dynamics(mechanism, game_config,
                                               dynamics);

  // Delta-round engine: one O(k) delta plus a forced exact rebuild, so the
  // lbmv_core_* counter/histogram families all register before the audit.
  lbmv::core::DeltaRoundEngine engine(mechanism, game_config.family_ptr(),
                                      game_config.arrival_rate(),
                                      lbmv::model::BidProfile::truthful(
                                          game_config));
  engine.apply(0, 1.5, 1.5);
  (void)engine.scalars();
  engine.rebuild();

  // lbmv_<subsystem>_<metric>; counters additionally end in _total.
  const std::regex counter_re(
      "lbmv_(mech|alloc|core|sim|server|pool|protocol|strategy|monitor|dist)"
      "_[a-z0-9_]+_total");
  const std::regex value_re(
      "lbmv_(mech|alloc|core|sim|server|pool|protocol|strategy|monitor|dist)"
      "_[a-z0-9_]+");
  const auto family = [](const std::string& name) {
    return name.substr(0, name.find('{'));  // strip {key="value"} labels
  };

  const MetricsSnapshot snap = Registry::global().snapshot();
  ASSERT_GT(snap.counters.size() + snap.gauges.size() +
                snap.histograms.size(),
            20u);
  for (const auto& [name, value] : snap.counters) {
    (void)value;
    EXPECT_TRUE(std::regex_match(family(name), counter_re)) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    (void)value;
    EXPECT_TRUE(std::regex_match(family(name), value_re)) << name;
    EXPECT_EQ(family(name).rfind("_total"), std::string::npos) << name;
  }
  for (const auto& [name, hist] : snap.histograms) {
    (void)hist;
    EXPECT_TRUE(std::regex_match(family(name), value_re)) << name;
    EXPECT_EQ(family(name).rfind("_total"), std::string::npos) << name;
  }
}

}  // namespace
