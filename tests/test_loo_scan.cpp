// The leave-one-out log scan: on the Table-1 profile, every agent bids 241
// log-spaced values from 1e-12·t to 1e12·t while executing at t, under
// comp-bonus, VCG and Archer–Tardos.  L_{-i} = R^2 / sum_{j != i} 1/b_j is
// defined at every point (the paper's Theorem 3.1 quantifies over all
// bids), so no point may throw, and Mechanism::run of the deviated
// profile, the reference context and the closed-form context must agree
// within 1e-13·L_{-i}.  Comp-bonus must also match a long-double
// direct-sum oracle to that bound.  Errors are scaled by L_{-i}, not by
// |U|: at high bids U = L_{-i} - L tends to 0, and that cancellation is
// part of U itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lbmv/analysis/paper_config.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"

namespace {

using lbmv::core::Mechanism;
using lbmv::model::BidProfile;

constexpr std::size_t kBids = 241;  ///< per agent, 1e-12·t to 1e12·t
constexpr double kBound = 1e-13;

/// Agent i's L_{-i} and comp-bonus utility L_{-i} - L(x, e) at \p p, from
/// direct long-double sums.
struct Oracle {
  long double loo;
  long double utility;
};

Oracle comp_bonus_oracle(const BidProfile& p, std::size_t agent, double rate) {
  long double s = 0.0L;
  long double w = 0.0L;
  long double rest = 0.0L;
  for (std::size_t j = 0; j < p.size(); ++j) {
    const long double inv = 1.0L / p.bids[j];
    s += inv;
    w += p.executions[j] * inv * inv;
    if (j != agent) rest += inv;
  }
  const long double rr = static_cast<long double>(rate) * rate;
  const long double loo = rr / rest;
  return {loo, loo - rr * w / (s * s)};
}

std::string scientific(double v) {
  std::ostringstream os;
  os << std::scientific << v;
  return os.str();
}

struct Rule {
  std::string name;
  std::unique_ptr<Mechanism> mechanism;
};

TEST(LeaveOneOutScan, EveryPointPricesAndEveryPathAgrees) {
  const lbmv::model::SystemConfig config =
      lbmv::analysis::paper_table1_config();
  const double rate = config.arrival_rate();
  const BidProfile truthful = BidProfile::truthful(config);
  const std::size_t n = config.size();
  std::vector<Rule> rules;
  rules.push_back(
      {"comp-bonus", std::make_unique<lbmv::core::CompBonusMechanism>()});
  rules.push_back({"vcg", std::make_unique<lbmv::core::VcgMechanism>()});
  rules.push_back(
      {"archer-tardos", std::make_unique<lbmv::core::ArcherTardosMechanism>()});
  for (const Rule& rule : rules) {
    SCOPED_TRACE(rule.name);
    const bool oracle_rule = rule.name == "comp-bonus";
    const auto closed =
        rule.mechanism->make_profile_context(config.family(), rate, truthful);
    const auto ref = rule.mechanism->make_reference_context(config.family(),
                                                            rate, truthful);
    ASSERT_TRUE(closed->closed_form());
    std::size_t points = 0;
    std::size_t thrown = 0;
    double worst_paths = 0.0;
    double worst_oracle = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = truthful.bids[i];
      for (std::size_t k = 0; k < kBids; ++k) {
        const double bid =
            t * std::pow(10.0, -12.0 + 24.0 * static_cast<double>(k) /
                                       static_cast<double>(kBids - 1));
        const std::string at =
            "agent " + std::to_string(i) + " bid " + std::to_string(bid);
        ++points;
        BidProfile deviated = truthful;
        deviated.bids[i] = bid;
        double run = 0.0;
        double closed_u = 0.0;
        double ref_u = 0.0;
        try {
          run = rule.mechanism->run(config.family(), rate, deviated)
                    .agents[i]
                    .utility;
          closed_u = closed->utility(i, bid, t);
          ref_u = ref->utility(i, bid, t);
        } catch (const std::exception& e) {
          ++thrown;
          ADD_FAILURE() << at << " threw: " << e.what();
          continue;
        }
        const Oracle o = comp_bonus_oracle(deviated, i, rate);
        const double paths =
            std::max(std::fabs(run - closed_u), std::fabs(run - ref_u)) /
            static_cast<double>(o.loo);
        worst_paths = std::max(worst_paths, paths);
        EXPECT_LE(paths, kBound) << at << ": run " << run << ", closed form "
                                 << closed_u << ", reference " << ref_u;
        if (oracle_rule) {
          for (const double u : {run, closed_u}) {
            const double err =
                static_cast<double>(std::fabs(u - o.utility) / o.loo);
            worst_oracle = std::max(worst_oracle, err);
            EXPECT_LE(err, kBound) << at << ": " << u << ", oracle "
                                   << static_cast<double>(o.utility);
          }
        }
      }
    }
    EXPECT_EQ(points, n * kBids);
    EXPECT_EQ(thrown, 0u);
    RecordProperty(rule.name + "_max_path_err", scientific(worst_paths));
    RecordProperty(rule.name + "_max_oracle_err", scientific(worst_oracle));
  }
}

}  // namespace
