// Suite for the cross-round cached round (DESIGN.md §15): every outcome the
// engine serves must be bit-identical to a direct Mechanism::run_into on the
// same planes across every mechanism and latency family, a quiescent sync
// must serve the cached outcome without re-running the mechanism, invalid
// planes must raise run_into's own diagnostics, and the hot loop wired onto
// the engine (epochs) must reproduce the full-round path bit-for-bit.  Epochs and the batched learning commits must also be
// thread-count invariant at 1, 2 and 8 threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/delta_engine.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/sim/epochs.h"
#include "lbmv/strategy/learning.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"
#include "mechanism_cases.h"

namespace {

using lbmv::core::BidDelta;
using lbmv::core::DeltaRoundEngine;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::model::BidProfile;
using lbmv::model::LatencyFamily;
using lbmv::util::PreconditionError;
using lbmv_test::all_cases;
using lbmv_test::band_types;
using lbmv_test::Case;

void expect_bit_identical(const MechanismOutcome& actual,
                          const MechanismOutcome& expected,
                          const std::string& what) {
  ASSERT_EQ(actual.agents.size(), expected.agents.size()) << what;
  EXPECT_EQ(actual.actual_latency, expected.actual_latency) << what;
  EXPECT_EQ(actual.reported_latency, expected.reported_latency) << what;
  for (std::size_t i = 0; i < expected.agents.size(); ++i) {
    EXPECT_EQ(actual.agents[i].allocation, expected.agents[i].allocation)
        << what << " agent " << i;
    EXPECT_EQ(actual.agents[i].payment, expected.agents[i].payment)
        << what << " agent " << i;
    EXPECT_EQ(actual.agents[i].utility, expected.agents[i].utility)
        << what << " agent " << i;
  }
}

std::uint64_t counter_or_zero(const std::string& name) {
  const auto snap = lbmv::obs::Registry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Sum of the changed-agent samples sync has recorded so far.
double dirty_agents_sum() {
  const auto snap = lbmv::obs::Registry::global().snapshot();
  const auto it = snap.histograms.find("lbmv_core_delta_dirty_agents");
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

TEST(Outcome, MaterializationIsBitIdenticalToRunInto) {
  const std::size_t n = 32;
  for (const Case& c : all_cases(n, 47)) {
    const auto types = band_types(n, 47);
    DeltaRoundEngine engine(*c.mechanism, c.family, c.arrival_rate,
                            BidProfile{types, types});
    (void)engine.outcome();
    auto bids = types;
    auto execs = types;
    bids[3] *= 1.1;
    execs[3] *= 1.12;
    bids[n - 1] *= 0.9;
    execs[n - 1] *= 0.93;
    EXPECT_EQ(engine.sync(bids, execs), 2u) << c.name;

    lbmv::core::RoundWorkspace ws;
    MechanismOutcome expected;
    c.mechanism->run_into(*c.family, c.arrival_rate, bids, execs, expected,
                          ws);
    expect_bit_identical(engine.outcome(), expected, c.name);
  }
}

TEST(Sync, QuiescentSyncServesTheCachedOutcome) {
  const std::size_t n = 12;
  const auto types = band_types(n, 53);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(types, 20.0);
  auto moved = types;
  moved[2] *= 1.2;
  moved[9] *= 0.85;
  lbmv::core::RoundWorkspace ws;
  MechanismOutcome expected;
  mechanism.run_into(config.family(), 20.0, moved, types, expected, ws);

  lbmv::obs::set_enabled(true);
  DeltaRoundEngine engine(mechanism, config.family_ptr(), 20.0,
                          BidProfile{types, types});
  (void)engine.outcome();
  const std::uint64_t rounds = counter_or_zero("lbmv_mech_rounds_total");
  const std::uint64_t syncs = counter_or_zero("lbmv_core_delta_rounds_total");
  const double dirty = dirty_agents_sum();

  // Unchanged planes: nothing changed and no round re-runs.
  EXPECT_EQ(engine.sync(types, types), 0u);
  (void)engine.outcome();
  EXPECT_EQ(counter_or_zero("lbmv_mech_rounds_total"), rounds);
  EXPECT_EQ(counter_or_zero("lbmv_core_delta_rounds_total"), syncs);
  EXPECT_EQ(dirty_agents_sum(), dirty);

  // Two changed entries: one changing sync, one re-run round.
  EXPECT_EQ(engine.sync(moved, types), 2u);
  expect_bit_identical(engine.outcome(), expected, "after a changing sync");
  (void)engine.outcome();  // cached again: still one round
  if (lbmv::obs::kCompiledIn) {
    EXPECT_EQ(counter_or_zero("lbmv_mech_rounds_total"), rounds + 1);
    EXPECT_EQ(counter_or_zero("lbmv_core_delta_rounds_total"), syncs + 1);
    EXPECT_EQ(dirty_agents_sum(), dirty + 2.0);
  }
  lbmv::obs::set_enabled(false);
}

TEST(Errors, OutcomeRaisesRunIntoDiagnostics) {
  const auto types = band_types(8, 59);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(types, 20.0);
  const auto family = config.family_ptr();

  // The engine validates nothing itself: outcome() must surface run_into's
  // typed error with the identical what() (message and source location).
  const auto run_into_error = [](const Mechanism& mech,
                                 const LatencyFamily& fam, double rate,
                                 const std::vector<double>& bids,
                                 const std::vector<double>& execs) {
    lbmv::core::RoundWorkspace ws;
    MechanismOutcome out;
    try {
      mech.run_into(fam, rate, bids, execs, out, ws);
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("run_into did not throw");
  };
  const auto expect_same_error = [&](const Mechanism& mech,
                                     const std::shared_ptr<const LatencyFamily>&
                                         fam,
                                     double rate,
                                     const std::vector<double>& bids,
                                     const std::vector<double>& execs,
                                     const std::string& message) {
    const std::string expected =
        run_into_error(mech, *fam, rate, bids, execs);
    EXPECT_NE(expected.find(message), std::string::npos) << expected;
    DeltaRoundEngine engine(mech, fam, rate, BidProfile{bids, execs});
    try {
      (void)engine.outcome();
      ADD_FAILURE() << "expected PreconditionError: " << message;
    } catch (const PreconditionError& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  };

  expect_same_error(mechanism, family, 20.0, {1.0}, {1.0},
                    "mechanisms require at least two agents");
  expect_same_error(mechanism, family, 20.0, types, {1.0, 2.0},
                    "execution vector size mismatch");
  expect_same_error(mechanism, family, 0.0, types, types,
                    "arrival rate must be positive");
  auto bad = types;
  bad[3] = -1.0;
  expect_same_error(mechanism, family, 20.0, bad, types,
                    "bids must be positive");
  expect_same_error(mechanism, family, 20.0, types, bad,
                    "execution values must be positive");

  // sync keeps the agent count fixed.
  DeltaRoundEngine engine(mechanism, family, 20.0, BidProfile{types, types});
  EXPECT_THROW(engine.sync(std::vector<double>(9, 1.0), types),
               PreconditionError);
  EXPECT_THROW(engine.sync(types, std::vector<double>(7, 1.0)),
               PreconditionError);

  // A saturated M/M/1 round reached through sync raises the allocator's
  // own typed error, and the failed round poisons no cache: syncing back
  // to a feasible profile serves run_into's outcome again.
  const auto mm1 = std::make_shared<const lbmv::model::MM1Family>();
  const lbmv::core::CompBonusMechanism mm1_mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  double sum_mu = 0.0;
  for (double t : types) sum_mu += 1.0 / t;
  const double rate = 0.5 * sum_mu;
  DeltaRoundEngine saturated(mm1_mechanism, mm1, rate,
                             BidProfile{types, types});
  (void)saturated.outcome();
  auto slow = types;
  for (double& t : slow) t *= 20.0;
  saturated.sync(slow, slow);
  const std::string expected =
      run_into_error(mm1_mechanism, *mm1, rate, slow, slow);
  try {
    (void)saturated.outcome();
    ADD_FAILURE() << "saturated M/M/1 round did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  EXPECT_EQ(saturated.sync(types, types), types.size());
  lbmv::core::RoundWorkspace ws;
  MechanismOutcome feasible;
  mm1_mechanism.run_into(*mm1, rate, types, types, feasible, ws);
  expect_bit_identical(saturated.outcome(), feasible, "after recovery");
}

TEST(CommitBatch, MatchesSequentialCommitsBitForBit) {
  const std::size_t n = 20;
  for (const Case& c : all_cases(n, 61)) {
    const auto types = band_types(n, 61);
    const lbmv::model::SystemConfig config(types, c.arrival_rate, c.family);
    const BidProfile truthful = BidProfile::truthful(config);
    const auto seq_context = c.mechanism->make_profile_context(
        *c.family, c.arrival_rate, truthful);
    const auto batch_context = c.mechanism->make_profile_context(
        *c.family, c.arrival_rate, truthful);
    lbmv::core::ProfileUtilityContext& sequential = *seq_context;
    lbmv::core::ProfileUtilityContext& batched = *batch_context;

    lbmv::util::Rng rng(67);
    for (int round = 0; round < 5; ++round) {
      std::vector<BidDelta> deltas;
      for (std::size_t i = 0; i < n; i += 3) {
        const double bid = types[i] * (0.8 + 0.4 * rng.uniform());
        deltas.push_back({i, bid, bid * (1.0 + 0.05 * rng.uniform())});
      }
      for (const BidDelta& d : deltas) {
        sequential.commit(d.agent, d.bid, d.execution);
      }
      batched.commit_batch(deltas);

      const MechanismOutcome a = c.mechanism->run(config, sequential.profile());
      const MechanismOutcome b = c.mechanism->run(config, batched.profile());
      ASSERT_EQ(a.agents.size(), b.agents.size()) << c.name;
      EXPECT_EQ(a.actual_latency, b.actual_latency) << c.name;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(a.agents[i].allocation, b.agents[i].allocation) << c.name;
        EXPECT_EQ(a.agents[i].payment, b.agents[i].payment) << c.name;
        EXPECT_EQ(a.agents[i].utility, b.agents[i].utility) << c.name;
      }
      // The outcome is a fresh round on profile(); the contexts' own state
      // (S/W, the leave-one-out and rate planes) shows only in what they
      // answer.  One utility row per agent — its committed entries plus
      // deviations on either side — must match bit for bit.
      for (std::size_t i = 0; i < n; ++i) {
        const double bid = sequential.profile().bids[i];
        const double exec = sequential.profile().executions[i];
        const std::vector<double> grid{bid, 0.9 * bid, 1.1 * bid,
                                       types[i]};
        std::vector<double> seq_row(grid.size());
        std::vector<double> batch_row(grid.size());
        sequential.utilities_into(i, grid, exec, seq_row);
        batched.utilities_into(i, grid, exec, batch_row);
        for (std::size_t k = 0; k < grid.size(); ++k) {
          EXPECT_EQ(seq_row[k], batch_row[k])
              << c.name << " agent " << i << " candidate " << k;
          EXPECT_EQ(seq_row[k], batched.utility(i, grid[k], exec))
              << c.name << " agent " << i << " candidate " << k;
        }
        EXPECT_EQ(sequential.utility(i, types[i], types[i]),
                  batched.utility(i, types[i], types[i]))
            << c.name << " agent " << i << " truthful";
      }
    }
  }
}

TEST(Epochs, TrajectoryIsBitIdenticalToTheFullRoundPath) {
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(band_types(10, 71), 20.0);
  lbmv::sim::EpochOptions options;
  options.epochs = 40;
  options.bid_lags = {0, 1, 2, 0, 3, 0, 1, 0, 2, 0};

  const lbmv::sim::EpochReport report =
      lbmv::sim::run_epochs(mechanism, config, options);
  ASSERT_EQ(report.records.size(), 40u);

  // Replay every epoch through the full-round path: bids are the lagged
  // true values (initial values before epoch 0), executions the current
  // ones — exactly what the engine-backed loop committed.
  lbmv::core::RoundWorkspace ws;
  for (std::size_t e = 0; e < report.records.size(); ++e) {
    lbmv::model::BidProfile profile;
    const std::size_t n = config.size();
    profile.bids.resize(n);
    profile.executions.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto lag = static_cast<std::size_t>(options.bid_lags[i]);
      profile.bids[i] = e >= lag
                            ? report.records[e - lag].true_values[i]
                            : config.true_values()[i];
      profile.executions[i] = report.records[e].true_values[i];
    }
    const lbmv::model::SystemConfig epoch_config(
        report.records[e].true_values, config.arrival_rate(),
        config.family_ptr());
    MechanismOutcome expected;
    mechanism.run_into(epoch_config, profile, expected, ws);
    const MechanismOutcome& actual = report.records[e].outcome;
    EXPECT_EQ(actual.actual_latency, expected.actual_latency) << "epoch " << e;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(actual.agents[i].utility, expected.agents[i].utility)
          << "epoch " << e << " agent " << i;
      EXPECT_EQ(actual.agents[i].payment, expected.agents[i].payment)
          << "epoch " << e << " agent " << i;
    }
  }
}

TEST(Epochs, ReplicatedRunsAreThreadCountInvariant) {
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(band_types(8, 73), 20.0);
  lbmv::sim::EpochOptions options;
  options.epochs = 15;

  lbmv::sim::ReplicationOptions replication;
  replication.replications = 6;
  const auto run_with = [&](std::size_t threads) {
    lbmv::util::ThreadPool pool(threads);
    lbmv::sim::ReplicationOptions opts = replication;
    opts.pool = &pool;
    return lbmv::sim::run_epochs_replicated(mechanism, config, options, opts);
  };
  const auto one = run_with(1);
  const auto two = run_with(2);
  const auto eight = run_with(8);
  ASSERT_EQ(one.runs.size(), 6u);
  for (std::size_t r = 0; r < one.runs.size(); ++r) {
    EXPECT_EQ(one.runs[r].mean_efficiency, two.runs[r].mean_efficiency);
    EXPECT_EQ(one.runs[r].mean_efficiency, eight.runs[r].mean_efficiency);
    for (std::size_t e = 0; e < one.runs[r].records.size(); ++e) {
      EXPECT_EQ(one.runs[r].records[e].outcome.actual_latency,
                eight.runs[r].records[e].outcome.actual_latency);
    }
  }
}

TEST(Learning, TrajectoriesAreThreadCountInvariant) {
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::model::SystemConfig config(band_types(6, 79), 12.0);
  lbmv::strategy::LearningOptions options;
  options.rounds = 40;

  const auto run_with = [&](std::size_t threads) {
    lbmv::util::ThreadPool pool(threads);
    return lbmv::strategy::run_learning_replicated(mechanism, config, options,
                                                   4, &pool);
  };
  const auto one = run_with(1);
  const auto two = run_with(2);
  const auto eight = run_with(8);
  ASSERT_EQ(one.replications.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    ASSERT_EQ(one.replications[r].latency_trace.size(),
              eight.replications[r].latency_trace.size());
    for (std::size_t t = 0; t < one.replications[r].latency_trace.size();
         ++t) {
      EXPECT_EQ(one.replications[r].latency_trace[t],
                two.replications[r].latency_trace[t]);
      EXPECT_EQ(one.replications[r].latency_trace[t],
                eight.replications[r].latency_trace[t]);
    }
    EXPECT_EQ(one.replications[r].final_greedy_latency,
              eight.replications[r].final_greedy_latency);
  }
}

}  // namespace
