#include "lbmv/core/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::core {

bool AuditReport::truthful_dominant(double tol) const {
  const double scale = std::max(1.0, std::fabs(truthful_utility));
  return max_gain <= tol * scale;
}

namespace {

/// Reject malformed grids before any work, naming the offending entry, so
/// every entry point (audit_agent, audit_all, audit_pair, either
/// incremental setting) fails with the same message.
void validate_grids(const AuditOptions& options) {
  LBMV_REQUIRE(!options.bid_multipliers.empty() &&
                   !options.exec_multipliers.empty(),
               "audit grids must be non-empty");
  const auto reject = [](const char* grid, std::size_t k, double value,
                         const char* rule) {
    std::ostringstream os;
    os << "audit grid entry " << grid << '[' << k << "] = " << value
       << " is invalid: " << rule;
    throw util::PreconditionError(os.str());
  };
  for (std::size_t k = 0; k < options.bid_multipliers.size(); ++k) {
    const double bm = options.bid_multipliers[k];
    if (!(std::isfinite(bm) && bm > 0.0)) {
      reject("bid_multipliers", k, bm,
             "bid multipliers must be finite and > 0");
    }
  }
  for (std::size_t k = 0; k < options.exec_multipliers.size(); ++k) {
    const double em = options.exec_multipliers[k];
    if (!(std::isfinite(em) && em >= 1.0)) {
      reject("exec_multipliers", k, em,
             "execution multipliers must be finite and >= 1: agents cannot "
             "execute faster than their true capacity");
    }
  }
}

/// One agent's sweep against the opponents frozen in \p context (shared by
/// every agent of an audit_all, so it is only read).  \p pool runs the
/// grid when options.parallel is set.
AuditReport sweep_agent(const model::SystemConfig& config,
                        const ProfileUtilityContext& context,
                        std::size_t agent, const AuditOptions& options,
                        util::ThreadPool& pool) {
  const double truth = config.true_value(agent);
  AuditReport report;
  report.agent = agent;
  report.truthful_utility = context.utility(agent, truth, truth);

  const std::size_t nb = options.bid_multipliers.size();
  const std::size_t ne = options.exec_multipliers.size();
  // The truthful point plus the full deviation grid, counted up front.
  obs::MechProbes::get().audit_evaluations.inc(
      static_cast<std::uint64_t>(nb * ne) + 1);
  // One candidate-bid sweep per execution multiplier (bids vary along the
  // row), scattered back into the k = bm_idx * ne + em_idx layout so the
  // best-scan below visits grid points in bid-major order — the tie-break
  // every audit has used.
  std::vector<double> bid_row(nb);
  for (std::size_t j = 0; j < nb; ++j) {
    bid_row[j] = truth * options.bid_multipliers[j];
  }
  std::vector<double> utilities(nb * ne);
  auto row = [&](std::size_t e) {
    context.utilities_into(agent, bid_row, truth * options.exec_multipliers[e],
                           std::span<double>(utilities).subspan(e * nb, nb));
  };
  if (options.parallel && ne > 1) {
    pool.parallel_for(0, ne, row, /*grain=*/1);
  } else {
    for (std::size_t e = 0; e < ne; ++e) row(e);
  }
  std::vector<Deviation> grid(nb * ne);
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t e = 0; e < ne; ++e) {
      grid[j * ne + e] =
          Deviation{options.bid_multipliers[j], options.exec_multipliers[e],
                    utilities[e * nb + j]};
    }
  }

  report.best = grid.front();
  for (const auto& d : grid) {
    if (d.utility > report.best.utility) report.best = d;
  }
  report.max_gain = report.best.utility - report.truthful_utility;
  if (options.keep_grid) report.grid = std::move(grid);
  return report;
}

}  // namespace

AuditReport TruthfulnessAuditor::audit_agent(const model::SystemConfig& config,
                                             std::size_t agent,
                                             const AuditOptions& options) const {
  return audit_agent(config, agent, model::BidProfile::truthful(config),
                     options);
}

AuditReport TruthfulnessAuditor::audit_agent(const model::SystemConfig& config,
                                             std::size_t agent,
                                             const model::BidProfile& base,
                                             const AuditOptions& options) const {
  LBMV_REQUIRE(agent < config.size(), "agent index out of range");
  base.validate(config.size());
  validate_grids(options);
  // Across the sweep only this agent's bid and execution change, so the
  // context freezes everything else once.
  const std::unique_ptr<ProfileUtilityContext> context =
      options.incremental
          ? mechanism_->make_profile_context(config.family(),
                                             config.arrival_rate(), base)
          : mechanism_->make_reference_context(config.family(),
                                               config.arrival_rate(), base);
  return sweep_agent(config, *context, agent, options,
                     util::ThreadPool::global());
}

std::vector<AuditReport> TruthfulnessAuditor::audit_all(
    const model::SystemConfig& config, const AuditOptions& options) const {
  return audit_all(config, options, util::ThreadPool::global());
}

std::vector<AuditReport> TruthfulnessAuditor::audit_all(
    const model::SystemConfig& config, const AuditOptions& options,
    util::ThreadPool& pool) const {
  validate_grids(options);
  // Every agent is audited against the same truthful opponents, so one
  // profile context serves them all: its queries are const and safe to
  // issue concurrently.
  const model::BidProfile truthful = model::BidProfile::truthful(config);
  const std::unique_ptr<ProfileUtilityContext> context =
      options.incremental
          ? mechanism_->make_profile_context(config.family(),
                                             config.arrival_rate(), truthful)
          : mechanism_->make_reference_context(
                config.family(), config.arrival_rate(), truthful);
  std::vector<AuditReport> reports(config.size());
  const auto body = [&](std::size_t i) {
    reports[i] = sweep_agent(config, *context, i, options, pool);
  };
  if (options.parallel && config.size() > 1) {
    // Across agents, in the pool's automatic chunks; each agent's own grid
    // fan-out then runs inline on its worker (ThreadPool::parallel_for).
    pool.parallel_for(0, config.size(), body);
  } else {
    for (std::size_t i = 0; i < config.size(); ++i) body(i);
  }
  return reports;
}

bool CoalitionReport::coalition_proof(double tol) const {
  const double scale = std::max(1.0, std::fabs(truthful_joint_utility));
  return max_joint_gain <= tol * scale;
}

CoalitionReport CoalitionAuditor::audit_pair(const model::SystemConfig& config,
                                             std::size_t agent_a,
                                             std::size_t agent_b,
                                             const AuditOptions& options) const {
  LBMV_REQUIRE(agent_a < config.size() && agent_b < config.size(),
               "agent index out of range");
  LBMV_REQUIRE(agent_a != agent_b, "a coalition needs two distinct agents");
  validate_grids(options);

  const model::BidProfile base = model::BidProfile::truthful(config);
  const double ta = config.true_value(agent_a);
  const double tb = config.true_value(agent_b);
  auto evaluate = [&](const CoalitionDeviation& d) {
    const BidDelta pair[] = {{agent_a, ta * d.bid_mult_a, ta * d.exec_mult_a},
                             {agent_b, tb * d.bid_mult_b, tb * d.exec_mult_b}};
    const MechanismOutcome& out = mechanism_->run_deviated(
        config.family(), config.arrival_rate(), base, pair);
    return out.agents[agent_a].utility + out.agents[agent_b].utility;
  };

  CoalitionReport report;
  report.agent_a = agent_a;
  report.agent_b = agent_b;
  report.truthful_joint_utility = evaluate(CoalitionDeviation{});

  const auto& bids = options.bid_multipliers;
  const auto& execs = options.exec_multipliers;
  const std::size_t nb = bids.size();
  const std::size_t ne = execs.size();
  const std::size_t per_agent = nb * ne;
  std::vector<CoalitionDeviation> grid(per_agent * per_agent);
  auto body = [&](std::size_t k) {
    const std::size_t ka = k / per_agent;
    const std::size_t kb = k % per_agent;
    CoalitionDeviation d;
    d.bid_mult_a = bids[ka / ne];
    d.exec_mult_a = execs[ka % ne];
    d.bid_mult_b = bids[kb / ne];
    d.exec_mult_b = execs[kb % ne];
    d.joint_utility = evaluate(d);
    grid[k] = d;
  };
  if (options.parallel) {
    util::ThreadPool::global().parallel_for(0, grid.size(), body);
  } else {
    for (std::size_t k = 0; k < grid.size(); ++k) body(k);
  }

  report.best = grid.front();
  for (const auto& d : grid) {
    if (d.joint_utility > report.best.joint_utility) report.best = d;
  }
  report.max_joint_gain =
      report.best.joint_utility - report.truthful_joint_utility;
  return report;
}

std::vector<double> truthful_utilities(const Mechanism& mechanism,
                                       const model::SystemConfig& config) {
  const MechanismOutcome outcome =
      mechanism.run(config, model::BidProfile::truthful(config));
  std::vector<double> utilities;
  utilities.reserve(outcome.agents.size());
  for (const auto& agent : outcome.agents) {
    utilities.push_back(agent.utility);
  }
  return utilities;
}

bool voluntary_participation_holds(const Mechanism& mechanism,
                                   const model::SystemConfig& config,
                                   double tol) {
  for (double u : truthful_utilities(mechanism, config)) {
    if (u < -tol) return false;
  }
  return true;
}

}  // namespace lbmv::core
