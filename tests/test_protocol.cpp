// Integration tests for the full verified protocol: mechanism + simulator +
// estimator wired together as the paper's §3 protocol describes, and the
// differential suite holding the round's per-server Lindley recursion
// (sim/lindley.h) to the event-driven Simulation + Server + JobSource
// stack bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lbmv/analysis/paper_config.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/bids.h"
#include "lbmv/sim/engine.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/sim/lindley.h"
#include "lbmv/sim/metrics.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/sim/rate_estimator.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "mechanism_cases.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::MechanismOutcome;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;
using lbmv::sim::Completion;
using lbmv::sim::ProtocolOptions;
using lbmv::sim::RoundReport;
using lbmv::sim::ServerPlanes;
using lbmv::sim::ServiceModel;
using lbmv::sim::SystemMetrics;
using lbmv::sim::VerifiedProtocol;
using lbmv::util::Rng;

ProtocolOptions fast_options() {
  ProtocolOptions options;
  options.horizon = 4000.0;
  options.seed = 97;
  return options;
}

TEST(Protocol, MessageCountIsThreeN) {
  const SystemConfig config({1.0, 2.0, 5.0, 10.0}, 8.0);
  CompBonusMechanism mechanism;
  VerifiedProtocol protocol(mechanism, fast_options());
  const RoundReport report =
      protocol.run_round(config, BidProfile::truthful(config));
  EXPECT_EQ(report.messages, 3 * config.size());
}

TEST(Protocol, TruthfulRoundEstimatesCloseToOracle) {
  // Light-load types so the M/G/1 realisation of the linear model is in its
  // validity regime (x_i * sqrt(t_i) << 1).
  const SystemConfig config({0.01, 0.01, 0.02}, 3.0);
  CompBonusMechanism mechanism;
  ProtocolOptions options = fast_options();
  options.horizon = 30000.0;
  VerifiedProtocol protocol(mechanism, options);
  const RoundReport report =
      protocol.run_round(config, BidProfile::truthful(config));
  for (std::size_t i = 0; i < config.size(); ++i) {
    ASSERT_TRUE(report.estimate_available[i]);
    EXPECT_NEAR(report.estimated_execution[i], config.true_value(i),
                0.15 * config.true_value(i))
        << "computer " << i;
    // Estimated payments track the oracle payments.
    EXPECT_NEAR(report.outcome.agents[i].payment,
                report.oracle_outcome.agents[i].payment,
                0.12 * std::max(1.0, report.oracle_outcome.agents[i].payment))
        << "computer " << i;
  }
}

TEST(Protocol, VerificationCatchesASlacker) {
  // C1 bids the truth but executes 2.25x slower.  The estimated execution
  // value must expose it and its verified payment must fall below what the
  // bid-trusting oracle with honest execution would have paid.
  const SystemConfig config({0.01, 0.01, 0.02}, 3.0);
  CompBonusMechanism mechanism;
  ProtocolOptions options = fast_options();
  options.horizon = 30000.0;
  VerifiedProtocol protocol(mechanism, options);

  const RoundReport honest =
      protocol.run_round(config, BidProfile::truthful(config));
  const RoundReport slack =
      protocol.run_round(config, BidProfile::deviate(config, 0, 1.0, 2.25));

  EXPECT_GT(slack.estimated_execution[0],
            1.7 * config.true_value(0));  // ~2.25x, noisy
  EXPECT_LT(slack.outcome.agents[0].utility,
            honest.outcome.agents[0].utility);
}

TEST(Protocol, AllocationMatchesMechanismAllocator) {
  const SystemConfig config({1.0, 3.0}, 4.0);
  CompBonusMechanism mechanism;
  VerifiedProtocol protocol(mechanism, fast_options());
  const RoundReport report =
      protocol.run_round(config, BidProfile::deviate(config, 0, 2.0, 2.0));
  // Bid profile (2, 3): x_0 = (1/2)/(1/2+1/3)*4 = 2.4, x_1 = 1.6.
  EXPECT_NEAR(report.allocation[0], 2.4, 1e-12);
  EXPECT_NEAR(report.allocation[1], 1.6, 1e-12);
}

TEST(Protocol, MeasuredLatencyApproximatesAnalyticModel) {
  // Light-load cross-check: the simulator's measured total latency should
  // land near the analytic L = sum t_i x_i^2 (within ~25% — the linear
  // model is itself a light-traffic approximation).
  const SystemConfig config({0.02, 0.04}, 1.5);
  CompBonusMechanism mechanism;
  ProtocolOptions options = fast_options();
  options.horizon = 60000.0;
  VerifiedProtocol protocol(mechanism, options);
  const RoundReport report =
      protocol.run_round(config, BidProfile::truthful(config));
  const double analytic = report.oracle_outcome.actual_latency;
  EXPECT_NEAR(report.metrics.measured_total_latency, analytic,
              0.25 * analytic);
}

TEST(Protocol, DeterministicGivenSeed) {
  const SystemConfig config({1.0, 2.0}, 3.0);
  CompBonusMechanism mechanism;
  VerifiedProtocol protocol(mechanism, fast_options());
  const auto a = protocol.run_round(config, BidProfile::truthful(config));
  const auto b = protocol.run_round(config, BidProfile::truthful(config));
  EXPECT_EQ(a.metrics.total_jobs(), b.metrics.total_jobs());
  EXPECT_DOUBLE_EQ(a.estimated_execution[0], b.estimated_execution[0]);
}

TEST(Protocol, RejectsNonLinearFamilies) {
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.4}, 2.0, family);
  CompBonusMechanism mechanism;
  VerifiedProtocol protocol(mechanism, fast_options());
  EXPECT_THROW(
      (void)protocol.run_round(config, BidProfile::truthful(config)),
      lbmv::util::PreconditionError);
}

TEST(Protocol, ValidatesOptions) {
  CompBonusMechanism mechanism;
  ProtocolOptions bad;
  bad.horizon = 0.0;
  EXPECT_THROW(VerifiedProtocol(mechanism, bad),
               lbmv::util::PreconditionError);
  bad = ProtocolOptions{};
  bad.warmup_fraction = 1.0;
  EXPECT_THROW(VerifiedProtocol(mechanism, bad),
               lbmv::util::PreconditionError);
}

TEST(Protocol, SharedEngineDoubleRoundMatchesTwoFullRounds) {
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(lbmv_test::band_types(5, 83), 8.0);
  lbmv::sim::ProtocolOptions options;
  options.horizon = 300.0;
  options.warmup_fraction = 0.0;
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  const auto intents = lbmv::model::BidProfile::truthful(config);
  const lbmv::sim::RoundReport report = protocol.run_round(config, intents);

  // Reconstruct the verified profile the protocol built from its execution
  // estimates and re-run both payment rounds through the full path.
  auto verified = intents;
  for (std::size_t i = 0; i < config.size(); ++i) {
    verified.executions[i] = report.estimated_execution[i];
  }
  lbmv::core::RoundWorkspace ws;
  MechanismOutcome expected_verified;
  MechanismOutcome expected_oracle;
  mechanism.run_into(config, verified, expected_verified, ws);
  mechanism.run_into(config, intents, expected_oracle, ws);
  EXPECT_EQ(report.outcome.actual_latency, expected_verified.actual_latency);
  EXPECT_EQ(report.oracle_outcome.actual_latency,
            expected_oracle.actual_latency);
  for (std::size_t i = 0; i < config.size(); ++i) {
    EXPECT_EQ(report.outcome.agents[i].payment,
              expected_verified.agents[i].payment);
    EXPECT_EQ(report.oracle_outcome.agents[i].payment,
              expected_oracle.agents[i].payment);
  }
}

// ---- the Lindley recursion against the event-driven oracle ----------------

// What the event-driven stack records for one round: JobSource on
// rng.split(0), Server i on rng.split(i + 1), drained by Simulation::run.
struct OracleRun {
  std::vector<std::vector<Completion>> completions;
  std::vector<double> busy_time;
  std::uint64_t jobs = 0;
  SystemMetrics metrics;
};

OracleRun run_oracle(const std::vector<double>& rates,
                     const std::vector<double>& executions,
                     ServiceModel model, double horizon, const Rng& rng,
                     double warmup_fraction) {
  lbmv::sim::Simulation sim;
  std::vector<std::unique_ptr<lbmv::sim::Server>> servers;
  std::vector<lbmv::sim::Server*> server_ptrs;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    servers.push_back(std::make_unique<lbmv::sim::Server>(
        sim, "C" + std::to_string(i + 1), executions[i], model,
        rng.split(i + 1)));
    server_ptrs.push_back(servers.back().get());
  }
  lbmv::sim::JobSource source(sim, server_ptrs, rates, horizon, rng.split(0));
  source.start();
  sim.run();
  OracleRun run;
  for (const auto& server : servers) {
    run.completions.push_back(server->completions());
    run.busy_time.push_back(server->busy_time());
  }
  run.jobs = source.jobs_emitted();
  run.metrics =
      lbmv::sim::collect_metrics(server_ptrs, horizon, warmup_fraction);
  return run;
}

SystemMetrics metrics_of(const ServerPlanes& planes, double horizon,
                         double warmup_fraction) {
  const std::vector<std::span<const Completion>> completions(
      planes.completions.begin(), planes.completions.end());
  return lbmv::sim::collect_metrics(completions, planes.busy_time, horizon,
                                    warmup_fraction);
}

void expect_metrics_eq(const SystemMetrics& actual,
                       const SystemMetrics& expected) {
  EXPECT_EQ(actual.duration, expected.duration);
  EXPECT_EQ(actual.measured_total_latency, expected.measured_total_latency);
  ASSERT_EQ(actual.servers.size(), expected.servers.size());
  for (std::size_t i = 0; i < expected.servers.size(); ++i) {
    const auto& a = actual.servers[i];
    const auto& e = expected.servers[i];
    EXPECT_EQ(a.jobs_completed, e.jobs_completed) << "server " << i;
    EXPECT_EQ(a.throughput, e.throughput) << "server " << i;
    EXPECT_EQ(a.mean_waiting_time, e.mean_waiting_time) << "server " << i;
    EXPECT_EQ(a.mean_service_time, e.mean_service_time) << "server " << i;
    EXPECT_EQ(a.mean_response_time, e.mean_response_time) << "server " << i;
    EXPECT_EQ(a.utilization, e.utilization) << "server " << i;
    EXPECT_EQ(a.waiting_ci95, e.waiting_ci95) << "server " << i;
  }
}

// Holds simulate_servers to the oracle on one input: every plane
// memcmp-equal, every busy time and both collect_metrics overloads equal.
void expect_matches_oracle(const std::vector<double>& rates,
                           const std::vector<double>& executions,
                           ServiceModel model, double horizon,
                           const Rng& rng) {
  constexpr double kWarmup = 0.1;
  const OracleRun oracle =
      run_oracle(rates, executions, model, horizon, rng, kWarmup);
  const ServerPlanes planes =
      lbmv::sim::simulate_servers(rates, executions, model, horizon, rng);
  EXPECT_EQ(planes.jobs, oracle.jobs);
  ASSERT_EQ(planes.completions.size(), rates.size());
  ASSERT_EQ(planes.busy_time.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& got = planes.completions[i];
    const auto& want = oracle.completions[i];
    ASSERT_EQ(got.size(), want.size()) << "server " << i;
    // memcmp must not see the null data() of an empty plane.
    if (!got.empty()) {
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(Completion)),
                0)
          << "server " << i;
    }
    EXPECT_EQ(planes.busy_time[i], oracle.busy_time[i]) << "server " << i;
  }
  expect_metrics_eq(metrics_of(planes, horizon, kWarmup), oracle.metrics);
}

// Four servers at per-server load rho (x_i * mean_i = rho), the third with
// no arrivals at all.
struct Fleet {
  std::vector<double> rates;
  std::vector<double> executions;
};

Fleet fleet(ServiceModel model, double rho) {
  const std::vector<double> means = {0.5, 1.0, 0.7, 2.0};
  Fleet f;
  for (std::size_t i = 0; i < means.size(); ++i) {
    f.rates.push_back(i == 2 ? 0.0 : rho / means[i]);
    f.executions.push_back(
        lbmv::sim::linear_coefficient_from_mean_service(means[i], model));
  }
  return f;
}

constexpr ServiceModel kModels[] = {ServiceModel::kExponential,
                                    ServiceModel::kDeterministic,
                                    ServiceModel::kErlang2};

TEST(LindleyRecursion, MatchesEventDrivenOracleBitForBit) {
  for (const ServiceModel model : kModels) {
    for (const double rho : {0.1, 0.9}) {
      for (const std::uint64_t seed : {1u, 7u, 97u}) {
        SCOPED_TRACE("model " + std::to_string(static_cast<int>(model)) +
                     " rho " + std::to_string(rho) + " seed " +
                     std::to_string(seed));
        const Fleet f = fleet(model, rho);
        expect_matches_oracle(f.rates, f.executions, model, 2000.0,
                              Rng(seed));
      }
    }
  }
}

TEST(LindleyRecursion, HeavyLoadQueuesAndIdleServerFallsBack) {
  for (const ServiceModel model : kModels) {
    const Fleet f = fleet(model, 0.9);
    const ServerPlanes planes = lbmv::sim::simulate_servers(
        f.rates, f.executions, model, 2000.0, Rng(7));
    // Queues form: some job on the busiest server waited.
    std::size_t waited = 0;
    for (const Completion& c : planes.completions[0]) {
      if (c.start > c.arrival) ++waited;
    }
    EXPECT_GT(waited, planes.completions[0].size() / 4);
    // The zero-rate server gets an empty plane, so verification has no
    // estimate for it and the protocol falls back to its bid.
    EXPECT_TRUE(planes.completions[2].empty());
    EXPECT_EQ(planes.busy_time[2], 0.0);
    EXPECT_FALSE(
        lbmv::sim::estimate_execution_value(planes.completions[2], model));
    const SystemMetrics metrics = metrics_of(planes, 2000.0, 0.1);
    EXPECT_EQ(metrics.servers[2].jobs_completed, 0u);
    EXPECT_EQ(metrics.servers[2].utilization, 0.0);
  }
}

TEST(LindleyRecursion, ArrivalExactlyAtTheHorizonIsServed) {
  for (const ServiceModel model : kModels) {
    const Fleet f = fleet(model, 0.9);
    const Rng rng(11);
    // Walk the source stream as JobSource consumes it to find the time of
    // arrival number kLast (0-based), and end the horizon exactly there.
    constexpr std::uint64_t kLast = 500;
    double total_rate = 0.0;
    for (const double rate : f.rates) total_rate += rate;
    Rng source = rng.split(0);
    double t = 0.0 + source.exponential(total_rate);
    for (std::uint64_t k = 0; k < kLast; ++k) {
      (void)source.uniform();
      t += source.exponential(total_rate);
    }
    const double horizon = t;

    const ServerPlanes planes =
        lbmv::sim::simulate_servers(f.rates, f.executions, model, horizon, rng);
    EXPECT_EQ(planes.jobs, kLast + 1);
    bool served_last = false;
    for (const auto& plane : planes.completions) {
      for (const Completion& c : plane) {
        if (c.job_id != kLast) continue;
        served_last = true;
        EXPECT_EQ(c.arrival, horizon);
      }
    }
    EXPECT_TRUE(served_last);
    expect_matches_oracle(f.rates, f.executions, model, horizon, rng);
  }
}

TEST(LindleyRecursion, RoundMatchesOracleStackThroughEstimation) {
  // The whole of steps 3 and 4 on the oracle stack: same metrics, same
  // estimates, as the protocol's own round.
  const SystemConfig config(lbmv_test::band_types(6, 29), 5.0);
  CompBonusMechanism mechanism;
  ProtocolOptions options = fast_options();
  options.horizon = 500.0;
  const VerifiedProtocol protocol(mechanism, options);
  const BidProfile intents = BidProfile::deviate(config, 1, 1.0, 1.3);
  const RoundReport report = protocol.run_round(config, intents);

  const std::vector<double> rates(report.allocation.rates().begin(),
                                  report.allocation.rates().end());
  const OracleRun oracle =
      run_oracle(rates, intents.executions, options.service_model,
                 options.horizon, Rng(options.seed), options.warmup_fraction);
  expect_metrics_eq(report.metrics, oracle.metrics);
  for (std::size_t i = 0; i < config.size(); ++i) {
    const auto estimate = lbmv::sim::estimate_execution_value(
        oracle.completions[i], options.service_model);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_EQ(report.estimated_execution[i], estimate->execution_value)
        << "computer " << i;
  }
}

// ---- simulate_servers input guards ------------------------------------------

// Runs simulate_servers and expects a PreconditionError whose text contains
// \p needle.  Without the guard, each input below walks the source stream
// forever: its gaps are zero (infinite rate) or its horizon is never passed.
void expect_rejected(const std::vector<double>& rates, double horizon,
                     const std::string& needle) {
  const std::vector<double> executions(rates.size(), 0.25);
  try {
    (void)lbmv::sim::simulate_servers(rates, executions,
                                      ServiceModel::kExponential, horizon,
                                      Rng(3));
    ADD_FAILURE() << "expected a throw naming " << needle;
  } catch (const lbmv::util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SimulateServersGuards, RejectsAnInfiniteHorizon) {
  expect_rejected({1.0, 2.0}, kInf, "horizon must be finite");
}

TEST(SimulateServersGuards, RejectsAnInfiniteRate) {
  expect_rejected({1.0, kInf, 2.0}, 10.0, "rates[1] must be finite");
  // Finite rates whose sum overflows draw zero gaps too.
  expect_rejected({1e308, 1e308}, 10.0, "total arrival rate must be finite");
}

TEST(SimulateServersGuards, RejectsAnExpectedJobCountPastTheLimit) {
  // Without the bound, the first throws std::bad_alloc from its capacity
  // hint and the second allocates 1e13 jobs' records until memory runs out.
  expect_rejected({1e300}, 1.0, "expected job count sum(rates) * horizon");
  expect_rejected({1e7}, 1e6, "expected job count sum(rates) * horizon");
  expect_rejected({1e7}, 1e6, "1e+13");
}

}  // namespace
