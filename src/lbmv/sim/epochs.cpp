#include "lbmv/sim/epochs.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/delta_engine.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace lbmv::sim {

EpochReport run_epochs(const core::Mechanism& mechanism,
                       const model::SystemConfig& initial_config,
                       const EpochOptions& options) {
  LBMV_REQUIRE(options.epochs > 0, "epochs must be positive");
  LBMV_REQUIRE(options.drift_sigma >= 0.0, "drift sigma must be >= 0");
  LBMV_REQUIRE(0.0 < options.min_type && options.min_type < options.max_type,
               "type bounds must satisfy 0 < min < max");
  const std::size_t n = initial_config.size();
  std::vector<int> lags = options.bid_lags;
  if (lags.empty()) lags.assign(n, 0);
  LBMV_REQUIRE(lags.size() == n, "one bid lag per agent required");
  int max_lag = 0;
  for (int lag : lags) {
    LBMV_REQUIRE(lag >= 0, "bid lags must be non-negative");
    max_lag = std::max(max_lag, lag);
  }

  util::Rng rng(options.seed);
  std::vector<double> current(initial_config.true_values().begin(),
                              initial_config.true_values().end());
  for (double t : current) {
    LBMV_REQUIRE(t >= options.min_type && t <= options.max_type,
                 "initial types must lie inside the drift bounds");
  }
  // History ring for lagged reporting: history.front() is the oldest epoch
  // still needed.  Pre-drift epochs are approximated by the initial values.
  std::deque<std::vector<double>> history(
      static_cast<std::size_t>(max_lag) + 1, current);

  EpochReport report;
  report.cumulative_utility.assign(n, 0.0);
  report.records.reserve(static_cast<std::size_t>(options.epochs));
  double efficiency_sum = 0.0;
  // One cached round for the whole horizon: each epoch diff-syncs against
  // the previous epoch's committed planes, so a lag-frozen fleet with zero
  // drift re-runs nothing.
  model::BidProfile profile;
  profile.bids.resize(n);
  profile.executions.resize(n);
  std::optional<core::DeltaRoundEngine> engine;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    // Bid profile: lagged true values; execution at the *current* speed
    // (a machine cannot execute at a speed it no longer has; if its
    // current speed is *lower* than bid, that's the reality verification
    // observes; if higher, it simply runs at capacity).
    for (std::size_t i = 0; i < n; ++i) {
      const auto& lagged =
          history[history.size() - 1 - static_cast<std::size_t>(lags[i])];
      profile.bids[i] = lagged[i];
      profile.executions[i] = current[i];
    }
    EpochRecord record;
    record.true_values = current;
    if (!engine) {
      engine.emplace(mechanism, initial_config.family_ptr(),
                     initial_config.arrival_rate(), profile);
    } else {
      engine->sync(profile.bids, profile.executions);
    }
    record.outcome = engine->outcome();
    record.optimal_latency = mechanism.allocator().optimal_latency(
        initial_config.family(), current, initial_config.arrival_rate());
    record.efficiency =
        record.optimal_latency / record.outcome.actual_latency;
    efficiency_sum += record.efficiency;
    for (std::size_t i = 0; i < n; ++i) {
      report.cumulative_utility[i] += record.outcome.agents[i].utility;
    }
    report.records.push_back(std::move(record));

    // Drift: reflected log-normal random walk.
    for (double& t : current) {
      t *= std::exp(rng.normal(0.0, options.drift_sigma));
      if (t < options.min_type) {
        t = options.min_type * options.min_type / t;  // reflect
      }
      if (t > options.max_type) {
        t = options.max_type * options.max_type / t;
      }
      t = std::clamp(t, options.min_type, options.max_type);
    }
    history.push_back(current);
    history.pop_front();
  }
  report.mean_efficiency =
      efficiency_sum / static_cast<double>(options.epochs);
  return report;
}

ReplicatedEpochReport run_epochs_replicated(
    const core::Mechanism& mechanism,
    const model::SystemConfig& initial_config, const EpochOptions& options,
    const ReplicationOptions& replication) {
  const ReplicationRunner runner(replication);

  ReplicatedEpochReport merged;
  merged.runs.resize(replication.replications);
  runner.run([&](std::size_t rep, util::Rng& rng) {
    EpochOptions per_run = options;
    per_run.seed = rng.seed();  // distinct drift path per replication
    merged.runs[rep] = run_epochs(mechanism, initial_config, per_run);
  });

  merged.cumulative_utility.resize(initial_config.size());
  for (const EpochReport& run : merged.runs) {
    merged.mean_efficiency.add(run.mean_efficiency);
    for (std::size_t i = 0; i < initial_config.size(); ++i) {
      merged.cumulative_utility[i].add(run.cumulative_utility[i]);
    }
  }
  return merged;
}

}  // namespace lbmv::sim
