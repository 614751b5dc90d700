// Tests for the parallel Monte-Carlo replication harness: deterministic
// stream splitting, thread-count invariance, and the merged protocol/epoch
// summaries built on top of it.

#include <gtest/gtest.h>

#include <vector>

#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/bids.h"
#include "lbmv/sim/epochs.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/sim/replication.h"
#include "lbmv/util/error.h"
#include "lbmv/util/thread_pool.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;
using lbmv::sim::EpochOptions;
using lbmv::sim::ProtocolOptions;
using lbmv::sim::ReplicatedRoundReport;
using lbmv::sim::ReplicationOptions;
using lbmv::sim::ReplicationRunner;
using lbmv::sim::VerifiedProtocol;
using lbmv::util::ThreadPool;

TEST(ReplicationRunner, StreamsAreDeterministicAndDistinct) {
  ReplicationOptions options;
  options.root_seed = 77;
  const ReplicationRunner runner(options);
  auto a0 = runner.stream(0);
  auto a0_again = runner.stream(0);
  auto a1 = runner.stream(1);
  EXPECT_EQ(a0.seed(), a0_again.seed());
  EXPECT_NE(a0.seed(), a1.seed());
  // Same stream => same draws.
  EXPECT_DOUBLE_EQ(a0.uniform(), a0_again.uniform());
}

TEST(ReplicationRunner, ResultsIndependentOfThreadCount) {
  auto collect = [](std::size_t threads) {
    ThreadPool pool(threads);
    ReplicationOptions options;
    options.replications = 16;
    options.root_seed = 5;
    options.pool = &pool;
    const ReplicationRunner runner(options);
    return runner.map<double>(
        [](std::size_t rep, lbmv::util::Rng& rng) {
          double sum = static_cast<double>(rep);
          for (int k = 0; k < 100; ++k) sum += rng.uniform();
          return sum;
        });
  };
  const auto serial = collect(1);  // one worker: fully serial
  EXPECT_EQ(serial, collect(2));
  EXPECT_EQ(serial, collect(4));
}

TEST(ReplicationRunner, MapPreservesReplicationOrder) {
  ReplicationOptions options;
  options.replications = 8;
  const ReplicationRunner runner(options);
  const auto reps = runner.map<std::size_t>(
      [](std::size_t rep, lbmv::util::Rng&) { return rep; });
  for (std::size_t r = 0; r < reps.size(); ++r) EXPECT_EQ(reps[r], r);
}

TEST(ReplicationRunner, ValidatesOptions) {
  ReplicationOptions bad;
  bad.replications = 0;
  EXPECT_THROW(ReplicationRunner{bad}, lbmv::util::PreconditionError);
}

TEST(ReplicatedProtocol, MergesPerReplicationMetrics) {
  const SystemConfig config({0.01, 0.02}, 2.0);
  CompBonusMechanism mechanism;
  ProtocolOptions options;
  options.horizon = 2000.0;
  const VerifiedProtocol protocol(mechanism, options);

  ReplicationOptions replication;
  replication.replications = 4;
  replication.root_seed = 9;
  const ReplicatedRoundReport merged = protocol.run_replicated(
      config, BidProfile::truthful(config), replication);

  ASSERT_EQ(merged.rounds.size(), 4u);
  EXPECT_EQ(merged.measured_latency.count(), 4u);
  ASSERT_EQ(merged.estimated_execution.size(), config.size());
  EXPECT_EQ(merged.estimated_execution[0].count(), 4u);
  // Merged mean equals the mean over the kept per-replication reports.
  double sum = 0.0;
  for (const auto& round : merged.rounds) {
    sum += round.metrics.measured_total_latency;
  }
  EXPECT_NEAR(merged.measured_latency.mean(), sum / 4.0, 1e-12);
  // Replications are genuinely different runs.
  EXPECT_NE(merged.rounds[0].metrics.total_jobs(),
            merged.rounds[1].metrics.total_jobs());
}

TEST(ReplicatedProtocol, DeterministicAcrossThreadCounts) {
  const SystemConfig config({0.01, 0.02}, 2.0);
  CompBonusMechanism mechanism;
  ProtocolOptions options;
  options.horizon = 1000.0;
  const VerifiedProtocol protocol(mechanism, options);

  auto run_with = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ReplicationOptions replication;
    replication.replications = 6;
    replication.root_seed = 31;
    replication.pool = &pool;
    return protocol.run_replicated(config, BidProfile::truthful(config),
                                   replication);
  };
  const auto a = run_with(1);
  const auto b = run_with(4);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].metrics.total_jobs(),
              b.rounds[r].metrics.total_jobs());
    EXPECT_DOUBLE_EQ(a.rounds[r].estimated_execution[0],
                     b.rounds[r].estimated_execution[0]);
  }
  EXPECT_DOUBLE_EQ(a.measured_latency.mean(), b.measured_latency.mean());
}

TEST(ReplicatedEpochs, IndependentDriftPathsMerge) {
  const SystemConfig config({1.0, 2.0, 5.0}, 10.0);
  CompBonusMechanism mechanism;
  EpochOptions options;
  options.epochs = 10;
  options.drift_sigma = 0.2;
  options.bid_lags = {2, 2, 2};  // staleness so efficiency varies per path

  ReplicationOptions replication;
  replication.replications = 5;
  replication.root_seed = 13;
  const auto merged =
      run_epochs_replicated(mechanism, config, options, replication);

  ASSERT_EQ(merged.runs.size(), 5u);
  EXPECT_EQ(merged.mean_efficiency.count(), 5u);
  ASSERT_EQ(merged.cumulative_utility.size(), config.size());
  // Distinct drift paths: the final true values differ between runs.
  EXPECT_NE(merged.runs[0].records.back().true_values,
            merged.runs[1].records.back().true_values);
  // Efficiency stays a mean of values in (0, 1].
  EXPECT_GT(merged.mean_efficiency.mean(), 0.0);
  EXPECT_LE(merged.mean_efficiency.mean(), 1.0 + 1e-12);
}

TEST(ReplicatedEpochs, DeterministicForFixedRootSeed) {
  const SystemConfig config({1.0, 2.0, 5.0}, 10.0);
  CompBonusMechanism mechanism;
  EpochOptions options;
  options.epochs = 8;
  options.drift_sigma = 0.15;

  ReplicationOptions replication;
  replication.replications = 3;
  replication.root_seed = 21;
  const auto a = run_epochs_replicated(mechanism, config, options, replication);
  const auto b = run_epochs_replicated(mechanism, config, options, replication);
  EXPECT_DOUBLE_EQ(a.mean_efficiency.mean(), b.mean_efficiency.mean());
  EXPECT_EQ(a.runs[2].records.back().true_values,
            b.runs[2].records.back().true_values);
}

}  // namespace
