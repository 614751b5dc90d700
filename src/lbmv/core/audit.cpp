#include "lbmv/core/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lbmv/core/batch.h"
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

/// One agent's sweep against the opponents frozen in \p base: through
/// \p context when the mechanism has one (shared by every agent of an
/// audit_all, so it is only read), else one full mechanism run per grid
/// point.  \p pool runs the grid when options.parallel is set.
AuditReport sweep_agent(const Mechanism& mechanism,
                        const model::SystemConfig& config,
                        const model::BidProfile& base,
                        const ProfileUtilityContext* context,
                        std::size_t agent, const AuditOptions& options,
                        util::ThreadPool& pool) {
  const double truth = config.true_value(agent);
  auto evaluate = [&](double bid_mult, double exec_mult) {
    const double bid = truth * bid_mult;
    const double execution = truth * exec_mult;
    if (context != nullptr) return context->utility(agent, bid, execution);
    // Legacy full-mechanism path: one reusable workspace per worker thread,
    // so sweeping the grid allocates only on each thread's first point.
    RoundWorkspace& ws = RoundWorkspace::thread_local_instance();
    model::BidProfile& profile = ws.scratch_profile;
    profile.bids.assign(base.bids.begin(), base.bids.end());
    profile.executions.assign(base.executions.begin(), base.executions.end());
    profile.bids[agent] = bid;
    profile.executions[agent] = execution;
    mechanism.run_into(config, profile, ws.scratch_outcome, ws);
    return ws.scratch_outcome.agents[agent].utility;
  };

  AuditReport report;
  report.agent = agent;
  report.truthful_utility = evaluate(1.0, 1.0);

  const std::size_t nb = options.bid_multipliers.size();
  const std::size_t ne = options.exec_multipliers.size();
  // The truthful point plus the full deviation grid, counted up front.
  obs::MechProbes::get().audit_evaluations.inc(
      static_cast<std::uint64_t>(nb * ne) + 1);
  std::vector<Deviation> grid(nb * ne);
  if (context != nullptr) {
    // One candidate-bid sweep per execution multiplier (bids vary along the
    // row), scattered back into the k = bm_idx * ne + em_idx layout so the
    // best-scan below visits grid points in the legacy order — the same
    // utilities bit for bit, the same tie-breaking.
    std::vector<double> bid_row(nb);
    for (std::size_t j = 0; j < nb; ++j) {
      bid_row[j] = truth * options.bid_multipliers[j];
    }
    std::vector<double> utilities(nb * ne);
    auto row = [&](std::size_t e) {
      context->utilities_into(agent, bid_row,
                              truth * options.exec_multipliers[e],
                              std::span<double>(utilities).subspan(e * nb, nb));
    };
    if (options.parallel && ne > 1) {
      pool.parallel_for(0, ne, row, /*grain=*/1);
    } else {
      for (std::size_t e = 0; e < ne; ++e) row(e);
    }
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t e = 0; e < ne; ++e) {
        grid[j * ne + e] =
            Deviation{options.bid_multipliers[j], options.exec_multipliers[e],
                      utilities[e * nb + j]};
      }
    }
  } else {
    auto body = [&](std::size_t k) {
      const double bm = options.bid_multipliers[k / ne];
      const double em = options.exec_multipliers[k % ne];
      grid[k] = Deviation{bm, em, evaluate(bm, em)};
    };
    if (options.parallel) {
      // The full-mechanism path is heavy enough that one point per task
      // load-balances best.
      pool.parallel_for(0, grid.size(), body, 1);
    } else {
      for (std::size_t k = 0; k < grid.size(); ++k) body(k);
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
  // Incremental fast path: across the sweep only this agent's bid and
  // execution change, so the mechanism can freeze everything else once.
  const std::unique_ptr<ProfileUtilityContext> context =
      options.incremental
          ? mechanism_->make_profile_context(config.family(),
                                             config.arrival_rate(), base)
          : nullptr;
  return sweep_agent(*mechanism_, config, base, context.get(), agent, options,
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
  const model::BidProfile base = model::BidProfile::truthful(config);
  const std::unique_ptr<ProfileUtilityContext> context =
      options.incremental
          ? mechanism_->make_profile_context(config.family(),
                                             config.arrival_rate(), base)
          : nullptr;
  std::vector<AuditReport> reports(config.size());
  if (options.parallel && config.size() > 1) {
    // One level of parallelism: across agents, with each per-agent grid
    // evaluated serially (nesting parallel_for on one fixed-size pool can
    // starve the inner waits of workers), in the pool's automatic chunks.
    AuditOptions per_agent = options;
    per_agent.parallel = false;
    pool.parallel_for(0, config.size(), [&](std::size_t i) {
      reports[i] = sweep_agent(*mechanism_, config, base, context.get(), i,
                               per_agent, pool);
    });
  } else {
    for (std::size_t i = 0; i < config.size(); ++i) {
      reports[i] = sweep_agent(*mechanism_, config, base, context.get(), i,
                               options, pool);
    }
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
  auto evaluate = [&](const CoalitionDeviation& d) {
    RoundWorkspace& ws = RoundWorkspace::thread_local_instance();
    model::BidProfile& profile = ws.scratch_profile;
    profile.bids.assign(base.bids.begin(), base.bids.end());
    profile.executions.assign(base.executions.begin(), base.executions.end());
    profile.bids[agent_a] = config.true_value(agent_a) * d.bid_mult_a;
    profile.executions[agent_a] = config.true_value(agent_a) * d.exec_mult_a;
    profile.bids[agent_b] = config.true_value(agent_b) * d.bid_mult_b;
    profile.executions[agent_b] = config.true_value(agent_b) * d.exec_mult_b;
    mechanism_->run_into(config, profile, ws.scratch_outcome, ws);
    return ws.scratch_outcome.agents[agent_a].utility +
           ws.scratch_outcome.agents[agent_b].utility;
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
