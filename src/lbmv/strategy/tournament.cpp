#include "lbmv/strategy/tournament.h"

#include <cmath>
#include <memory>

#include "lbmv/strategy/grid.h"
#include "lbmv/util/error.h"
#include "lbmv/util/stats.h"

namespace lbmv::strategy {

namespace {

/// Candidates in each agent's best-response gain probe.
constexpr std::size_t kBestResponseGrid = 48;

}  // namespace

std::vector<StrategyScore> run_tournament(
    const core::Mechanism& mechanism,
    const std::vector<const Strategy*>& strategies,
    const TournamentOptions& options) {
  LBMV_REQUIRE(!strategies.empty(), "tournament needs at least one strategy");
  LBMV_REQUIRE(options.agents >= 2, "tournament systems need >= 2 agents");
  LBMV_REQUIRE(options.instances > 0, "tournament needs >= 1 instance");
  LBMV_REQUIRE(std::isfinite(options.type_lo) &&
                   std::isfinite(options.type_hi),
               "type range must be finite");
  LBMV_REQUIRE(0.0 < options.type_lo && options.type_lo < options.type_hi,
               "type range must satisfy 0 < lo < hi");
  LBMV_REQUIRE(std::isfinite(options.arrival_rate) &&
                   options.arrival_rate > 0.0,
               "arrival rate must be positive and finite");

  const std::size_t instances = static_cast<std::size_t>(options.instances);
  const util::Rng rng(options.seed);

  // Per-agent (achieved, regret) samples, one row per instance.  Instance k
  // reads nothing but the seed stream split(k) and writes only its own row;
  // the rows are then merged in instance order, so the scores are
  // bit-identical whether the loop runs serially or on a pool of any size.
  struct Sample {
    double achieved = 0.0;
    double regret = 0.0;
    double br_gain = 0.0;
  };
  std::vector<std::vector<Sample>> samples(instances);

  auto run_instance = [&](std::size_t instance) {
    util::Rng instance_rng = rng.split(static_cast<std::uint64_t>(instance));
    std::vector<double> types(options.agents);
    for (double& t : types) {
      t = std::exp(instance_rng.uniform(std::log(options.type_lo),
                                        std::log(options.type_hi)));
    }
    const model::SystemConfig config(types, options.arrival_rate);

    std::vector<const Strategy*> assigned(options.agents);
    for (std::size_t i = 0; i < options.agents; ++i) {
      assigned[i] = strategies[i % strategies.size()];
    }
    util::Rng action_rng = instance_rng.split(1);
    const std::unique_ptr<core::ProfileUtilityContext> context =
        mechanism.make_profile_context(
            config.family(), config.arrival_rate(),
            apply_strategies(config, assigned, action_rng));
    const model::BidProfile& profile = context->profile();
    std::vector<double> bid_grid;  // reused per agent

    auto& row = samples[instance];
    row.resize(options.agents);
    for (std::size_t i = 0; i < options.agents; ++i) {
      // Achieved utility and truthful counterfactual through the same
      // context, so the truthful strategy's regret is exactly zero.
      const double achieved =
          context->utility(i, profile.bids[i], profile.executions[i]);
      const double t = config.true_value(i);
      row[i].achieved = achieved;
      row[i].regret = context->utility(i, t, t) - achieved;
      // Exploitability probe: best candidate bid at the committed
      // execution, one lane-parallel sweep per agent.
      make_bid_grid_into(0.05 * t, 20.0 * t, kBestResponseGrid,
                         GridSpacing::kLinear, bid_grid);
      const auto best =
          context->best_response(i, bid_grid, profile.executions[i]);
      row[i].br_gain = best.utility - achieved;
    }
  };

  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::global();
  pool.parallel_for(0, instances, run_instance, /*grain=*/1);

  std::vector<util::RunningStats> utility(strategies.size());
  std::vector<util::RunningStats> regret(strategies.size());
  std::vector<util::RunningStats> br_gain(strategies.size());
  for (std::size_t instance = 0; instance < instances; ++instance) {
    for (std::size_t i = 0; i < options.agents; ++i) {
      const std::size_t s = i % strategies.size();
      utility[s].add(samples[instance][i].achieved);
      regret[s].add(samples[instance][i].regret);
      br_gain[s].add(samples[instance][i].br_gain);
    }
  }

  std::vector<StrategyScore> scores;
  scores.reserve(strategies.size());
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    scores.push_back(StrategyScore{strategies[s]->name(), utility[s].mean(),
                                   regret[s].mean(), br_gain[s].mean(),
                                   utility[s].count()});
  }
  return scores;
}

}  // namespace lbmv::strategy
