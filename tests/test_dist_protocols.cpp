// Tests for the distributed deployments of the mechanism: star and
// broadcast reproduce the centralised mechanism's reference round bit for
// bit, tree within summation roundoff and private within its fixed-point
// quantisation; an agent whose leave-one-out rest cancels is priced by
// star and broadcast and, past 30 lost bits, named by tree and private;
// every topology rejects what the round rejects, with its advertised
// message complexity.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lbmv/analysis/paper_config.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/dist/protocols.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using namespace lbmv;
using dist::DistOptions;
using dist::run_distributed_round;
using dist::Topology;

const Topology kAll[] = {Topology::kStar, Topology::kBroadcast,
                         Topology::kTree, Topology::kPrivate};

void expect_matches_centralised(const model::SystemConfig& config,
                                const model::BidProfile& intents,
                                Topology topology, double tol_rel) {
  const core::CompBonusMechanism mechanism;
  const auto reference = mechanism.run(config, intents);
  const auto report = run_distributed_round(topology, config, intents);
  ASSERT_EQ(report.payments.size(), config.size());
  // Absolute floor plus a relative term: the private topology's 1e-9
  // fixed-point quantisation of the aggregate S is amplified through
  // L_{-i} = R^2 / (S - s_i).
  auto tol = [tol_rel](double expected) {
    return tol_rel * std::max(1.0, std::fabs(expected));
  };
  for (std::size_t i = 0; i < config.size(); ++i) {
    EXPECT_NEAR(report.allocation[i], reference.allocation[i],
                tol(reference.allocation[i]))
        << dist::topology_name(topology) << " x_" << i;
    EXPECT_NEAR(report.payments[i], reference.agents[i].payment,
                tol(reference.agents[i].payment))
        << dist::topology_name(topology) << " P_" << i;
    EXPECT_NEAR(report.utilities[i], reference.agents[i].utility,
                tol(reference.agents[i].utility))
        << dist::topology_name(topology) << " U_" << i;
  }
  EXPECT_NEAR(report.actual_latency, reference.actual_latency,
              tol(reference.actual_latency));
}

TEST(DistProtocols, AllTopologiesMatchCentralisedOnPaperConfig) {
  const auto config = analysis::paper_table1_config();
  const auto intents = model::BidProfile::deviate(config, 0, 3.0, 3.0);
  for (Topology topology : kAll) {
    // The private topology pays a (relative) fixed-point quantisation;
    // everything else must match to solver precision.
    const double tol = topology == Topology::kPrivate ? 1e-6 : 1e-9;
    expect_matches_centralised(config, intents, topology, tol);
  }
}

TEST(DistProtocols, MatchesCentralisedOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<double> types(n);
    for (double& t : types) t = rng.uniform(0.5, 8.0);
    const model::SystemConfig config(types, rng.uniform(5.0, 40.0));
    model::BidProfile intents = model::BidProfile::truthful(config);
    intents.bids[0] *= rng.uniform(1.0, 3.0);
    intents.executions[0] *= rng.uniform(1.0, 2.0);
    for (Topology topology : kAll) {
      const double tol = topology == Topology::kPrivate ? 1e-6 : 1e-9;
      expect_matches_centralised(config, intents, topology, tol);
    }
  }
}

/// The diagnostic of a PreconditionError, without its "at file:line" prefix.
std::string diagnostic(const std::string& what) {
  const std::size_t at = what.find(" — ");
  return at == std::string::npos ? what : what.substr(at);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Star and broadcast sum S and L in index order, as the reference round
/// does, and price through the same rule_terms record (P = C + B, U = B).
void expect_reference_bits(const model::SystemConfig& config,
                           const model::BidProfile& intents) {
  core::MechanismOutcome reference;
  core::RoundWorkspace ws;
  core::CompBonusMechanism().run_reference_into(
      config.family(), config.arrival_rate(), intents.bids,
      intents.executions, reference, ws);
  for (Topology topology : {Topology::kStar, Topology::kBroadcast}) {
    const auto report = run_distributed_round(topology, config, intents);
    const std::string name = dist::topology_name(topology);
    EXPECT_EQ(bits(report.actual_latency), bits(reference.actual_latency))
        << name << " L";
    for (std::size_t i = 0; i < config.size(); ++i) {
      EXPECT_EQ(bits(report.allocation[i]), bits(reference.allocation[i]))
          << name << " x_" << i;
      EXPECT_EQ(bits(report.payments[i]), bits(reference.agents[i].payment))
          << name << " P_" << i;
      EXPECT_EQ(bits(report.utilities[i]), bits(reference.agents[i].utility))
          << name << " U_" << i;
    }
  }
}

TEST(DistProtocols, StarAndBroadcastEqualTheReferenceRound) {
  const auto config = analysis::paper_table1_config();
  for (const auto& experiment : analysis::paper_table2_experiments()) {
    SCOPED_TRACE(experiment.name);
    expect_reference_bits(
        config, model::BidProfile::deviate(config, analysis::kDeviatingAgent,
                                           experiment.bid_mult,
                                           experiment.exec_mult));
  }
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 24));
    std::vector<double> types(n);
    for (double& t : types) t = rng.uniform(0.1, 10.0);
    const model::SystemConfig random(types, rng.uniform(1.0, 50.0));
    model::BidProfile intents = model::BidProfile::truthful(random);
    const auto agent = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    intents.bids[agent] *= rng.uniform(0.25, 4.0);
    intents.executions[agent] *= rng.uniform(1.0, 3.0);
    expect_reference_bits(random, intents);
  }
}

TEST(DistProtocols, DominantAgentIsPricedWhereEveryBidIsSeen) {
  // Agent 0 holds almost all of S, so its rest S - 1/b_0 cancels
  // (alloc::pr_rest_cancels).  Star and broadcast see every 1/b_j and sum
  // that rest as the reference round does, bit for bit; tree and private
  // see only S, where S - 1/b_0 cancels more than 30 bits, and name the
  // agent and the topology instead.  Private runs at 1/b_0 = 1e9, inside
  // its fixed-point range.
  for (const double fast : {1e-17, 1e-12, 1e-9}) {
    SCOPED_TRACE(fast);
    const model::SystemConfig dominant({fast, 10.0, 10.0}, 20.0);
    const auto intents = model::BidProfile::truthful(dominant);
    expect_reference_bits(dominant, intents);
  }
  const model::SystemConfig dominant({1e-9, 10.0, 10.0}, 20.0);
  for (Topology topology : {Topology::kTree, Topology::kPrivate}) {
    const std::string name = dist::topology_name(topology);
    try {
      (void)run_distributed_round(topology, dominant,
                                  model::BidProfile::truthful(dominant));
      ADD_FAILURE() << name << " priced the dominant agent";
    } catch (const util::PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("agent 0 holds almost all of S"), std::string::npos)
          << what;
      EXPECT_NE(what.find("the " + name + " topology"), std::string::npos)
          << what;
    }
  }
}

TEST(DistProtocols, SumOnlyTopologiesPriceASkewedProfile) {
  // Agent 0 holds 89 %, 95 % and 99.8 % of S.  Past 94 % the round sums
  // its rest from the others (alloc::pr_rest_cancels), while tree and
  // private take S - 1/b_0, which loses up to 9 of S's bits — far inside
  // their budget, so they price it within their usual tolerance.
  for (const double skew : {16.0, 40.0, 1000.0}) {
    SCOPED_TRACE(skew);
    const model::SystemConfig skewed({1.0, skew, skew}, 20.0);
    const auto intents = model::BidProfile::truthful(skewed);
    expect_matches_centralised(skewed, intents, Topology::kTree, 1e-9);
    expect_matches_centralised(skewed, intents, Topology::kPrivate, 1e-6);
  }
}

TEST(DistProtocols, RejectsWhatTheCentralisedRoundRejects) {
  // A verified cost that overflows, and an R^2 that overflows L_{-i}.
  const model::SystemConfig pair({1.0, 2.0}, 20.0);
  model::BidProfile overflow = model::BidProfile::truthful(pair);
  overflow.executions[0] = 1e307;
  const model::SystemConfig huge_rate({1e-300, 1e-300}, 1e160);
  const std::pair<model::SystemConfig, model::BidProfile> cases[] = {
      {pair, overflow}, {huge_rate, model::BidProfile::truthful(huge_rate)}};
  for (const auto& [config, intents] : cases) {
    std::string expected;
    try {
      core::MechanismOutcome out;
      core::RoundWorkspace ws;
      core::CompBonusMechanism().run_reference_into(
          config.family(), config.arrival_rate(), intents.bids,
          intents.executions, out, ws);
    } catch (const util::PreconditionError& e) {
      expected = diagnostic(e.what());
    }
    ASSERT_FALSE(expected.empty()) << "the reference round accepted it";
    for (Topology topology : kAll) {
      const std::string name = dist::topology_name(topology);
      try {
        const auto report = run_distributed_round(topology, config, intents);
        ADD_FAILURE() << name << " returned P_0 = " << report.payments[0];
      } catch (const util::PreconditionError& e) {
        const std::string got = diagnostic(e.what());
        // Private may fail earlier, encoding 1/b = 1e300 into its ring.
        EXPECT_TRUE(got == expected ||
                    (topology == Topology::kPrivate &&
                     got == " — value out of fixed-point range"))
            << name << ": " << got << " (reference:" << expected << ")";
      }
    }
  }
}

TEST(DistProtocols, MessageComplexityMatchesAdvertised) {
  const auto config = analysis::paper_table1_config();  // n = 16
  const auto intents = model::BidProfile::truthful(config);
  const std::size_t n = config.size();

  const auto star =
      run_distributed_round(Topology::kStar, config, intents);
  EXPECT_EQ(star.messages, 3 * n);  // the paper's O(n) protocol

  const auto broadcast =
      run_distributed_round(Topology::kBroadcast, config, intents);
  EXPECT_EQ(broadcast.messages, 2 * n * (n - 1));

  const auto tree = run_distributed_round(Topology::kTree, config, intents);
  EXPECT_EQ(tree.messages, 4 * (n - 1));

  const auto priv =
      run_distributed_round(Topology::kPrivate, config, intents);
  EXPECT_EQ(priv.messages, 4 * n * (n - 1));
}

TEST(DistProtocols, MessageOrderingOnALargerSystem) {
  // n = 64: the centralised star is cheapest (3n = 192) but needs a trusted
  // coordinator; the decentralised tree stays O(n) (4(n-1) = 252); the
  // fully redundant broadcast is O(n^2).
  const model::SystemConfig config(std::vector<double>(64, 1.0), 20.0);
  const auto intents = model::BidProfile::truthful(config);
  const auto star = run_distributed_round(Topology::kStar, config, intents);
  const auto tree = run_distributed_round(Topology::kTree, config, intents);
  const auto broadcast =
      run_distributed_round(Topology::kBroadcast, config, intents);
  EXPECT_LT(star.messages, tree.messages);
  EXPECT_LT(tree.messages, broadcast.messages);
}

TEST(DistProtocols, CompletionTimeDominatedByExecutionInterval) {
  const model::SystemConfig config({1.0, 2.0, 4.0}, 6.0);
  const auto intents = model::BidProfile::truthful(config);
  DistOptions options;
  options.execution_time = 25.0;
  for (Topology topology : kAll) {
    const auto report =
        run_distributed_round(topology, config, intents, options);
    EXPECT_GT(report.completion_time, 25.0);
    EXPECT_LT(report.completion_time, 26.0);  // chatter is milliseconds
  }
}

TEST(DistProtocols, RobustToMessageJitter) {
  // Out-of-order delivery across node pairs (random extra delay per
  // message) must not change any payment: the protocols key state on
  // message type + sender, never on arrival order.
  const auto config = analysis::paper_table1_config();
  const auto intents = model::BidProfile::deviate(config, 3, 2.0, 2.0);
  DistOptions jittery;
  jittery.network.jitter = 0.5;  // large vs the ~1e-3 base delay
  jittery.network.seed = 77;
  jittery.execution_time = 10.0;
  const core::CompBonusMechanism mechanism;
  const auto reference = mechanism.run(config, intents);
  for (Topology topology : kAll) {
    const auto report =
        run_distributed_round(topology, config, intents, jittery);
    for (std::size_t i = 0; i < config.size(); ++i) {
      EXPECT_NEAR(report.payments[i], reference.agents[i].payment,
                  1e-6 * std::max(1.0, std::fabs(reference.agents[i].payment)))
          << dist::topology_name(topology) << " P_" << i;
    }
  }
}

TEST(DistProtocols, ValidatesInput) {
  const model::SystemConfig tiny({1.0}, 2.0);
  EXPECT_THROW((void)run_distributed_round(
                   Topology::kStar, tiny, model::BidProfile::truthful(tiny)),
               util::PreconditionError);

  auto family = std::make_shared<model::MM1Family>();
  const model::SystemConfig mm1({0.1, 0.2}, 2.0, family);
  EXPECT_THROW((void)run_distributed_round(
                   Topology::kTree, mm1, model::BidProfile::truthful(mm1)),
               util::PreconditionError);

  const model::SystemConfig ok({1.0, 2.0}, 2.0);
  DistOptions bad;
  bad.execution_time = 0.0;
  EXPECT_THROW((void)run_distributed_round(
                   Topology::kStar, ok, model::BidProfile::truthful(ok), bad),
               util::PreconditionError);
}

TEST(DistProtocols, TopologyNamesAreStable) {
  EXPECT_EQ(dist::topology_name(Topology::kStar), "star");
  EXPECT_EQ(dist::topology_name(Topology::kBroadcast), "broadcast");
  EXPECT_EQ(dist::topology_name(Topology::kTree), "tree");
  EXPECT_EQ(dist::topology_name(Topology::kPrivate), "private");
}

TEST(DistProtocols, WorksAtMinimumSystemSize) {
  const model::SystemConfig config({1.0, 3.0}, 4.0);
  const auto intents = model::BidProfile::deviate(config, 1, 2.0, 2.0);
  for (Topology topology : kAll) {
    const double tol = topology == Topology::kPrivate ? 1e-6 : 1e-9;
    expect_matches_centralised(config, intents, topology, tol);
  }
}

}  // namespace
