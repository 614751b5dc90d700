#include "lbmv/sim/protocol.h"

#include <cmath>
#include <span>

#include "lbmv/core/batch.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/obs/probes.h"
#include "lbmv/obs/trace.h"
#include "lbmv/sim/lindley.h"
#include "lbmv/sim/rate_estimator.h"
#include "lbmv/util/error.h"

namespace lbmv::sim {

VerifiedProtocol::VerifiedProtocol(const core::Mechanism& mechanism,
                                   ProtocolOptions options)
    : mechanism_(&mechanism), options_(options) {
  LBMV_REQUIRE(std::isfinite(options_.horizon) && options_.horizon > 0.0,
               "horizon must be finite and positive");
  LBMV_REQUIRE(
      options_.warmup_fraction >= 0.0 && options_.warmup_fraction < 1.0,
      "warmup fraction must be in [0, 1)");
  LBMV_REQUIRE(options_.trim_fraction >= 0.0 && options_.trim_fraction < 0.5,
               "trim fraction must be in [0, 0.5)");
}

RoundReport VerifiedProtocol::run_round(
    const model::SystemConfig& config,
    const model::BidProfile& intents) const {
  return run_round(config, intents, options_.seed);
}

RoundReport VerifiedProtocol::run_round(const model::SystemConfig& config,
                                        const model::BidProfile& intents,
                                        std::uint64_t seed) const {
  const obs::Span span("protocol_round", "protocol");
  if (obs::enabled()) obs::ProtocolProbes::get().rounds.inc();
  const std::size_t n = config.size();
  intents.validate(n);
  LBMV_REQUIRE(
      dynamic_cast<const model::LinearFamily*>(&config.family()) != nullptr,
      "the simulated protocol realises the paper's linear latency model");

  RoundReport report;
  // Step 1: collect bids (n messages).
  report.messages += n;

  // Step 2: allocate and assign (n messages).
  report.allocation = mechanism_->allocator().allocate(
      config.family(), intents.bids, config.arrival_rate());
  report.messages += n;
  if (obs::enabled()) {
    // Mass balance on the wire: the assignment shipped to the servers
    // must carry exactly R jobs/s (same identity run_into checks on its
    // own allocation, but this is the one the simulator actually runs).
    double shipped = 0.0;
    for (const double rate : report.allocation.rates()) shipped += rate;
    obs::Monitors::get().protocol_mass_balance.check(
        (shipped - config.arrival_rate()) / config.arrival_rate(),
        {{"n", static_cast<double>(n)},
         {"shipped", shipped},
         {"arrival_rate", config.arrival_rate()}});
  }

  // Step 3: execute the jobs on the simulated servers.
  const ServerPlanes planes = simulate_servers(
      report.allocation.rates(), intents.executions, options_.service_model,
      options_.horizon, util::Rng(seed));
  const std::vector<std::span<const Completion>> completions(
      planes.completions.begin(), planes.completions.end());
  report.metrics = collect_metrics(completions, planes.busy_time,
                                   options_.horizon, options_.warmup_fraction);

  // Step 4: verification — estimate execution values from completions.
  report.estimated_execution.resize(n);
  report.estimate_available.resize(n);
  model::BidProfile verified = intents;
  for (std::size_t i = 0; i < n; ++i) {
    const auto estimate =
        options_.trim_fraction > 0.0
            ? estimate_execution_value_trimmed(completions[i],
                                               options_.service_model,
                                               options_.trim_fraction)
            : estimate_execution_value(completions[i],
                                       options_.service_model);
    report.estimate_available[i] = estimate.has_value();
    // A computer that received no jobs cannot be verified; the mechanism
    // falls back to trusting its bid for the round.
    if (!estimate && obs::enabled()) {
      obs::ProtocolProbes::get().estimate_fallbacks.inc();
    }
    report.estimated_execution[i] =
        estimate ? estimate->execution_value : intents.bids[i];
    verified.executions[i] = report.estimated_execution[i];
  }

  // Step 5: payments (n messages) — at the estimates, and at the paper's
  // oracle values for comparison: two rounds on one workspace.
  core::RoundWorkspace workspace;
  mechanism_->run_into(config, verified, report.outcome, workspace);
  mechanism_->run_into(config, intents, report.oracle_outcome, workspace);
  report.messages += n;
  if (obs::enabled()) {
    // Record-only residual gauge: how much the estimation noise moved the
    // money, |P_est - P_oracle| / max(1, |P_oracle|) on round totals.
    const double oracle = report.oracle_outcome.total_payment();
    const double estimated = report.outcome.total_payment();
    obs::Monitors::get().protocol_estimate_gap.check(
        (estimated - oracle) / std::max(1.0, std::fabs(oracle)),
        {{"estimated_total", estimated}, {"oracle_total", oracle}});
  }
  return report;
}

ReplicatedRoundReport VerifiedProtocol::run_replicated(
    const model::SystemConfig& config, const model::BidProfile& intents,
    const ReplicationOptions& replication) const {
  const std::size_t n = config.size();
  const ReplicationRunner runner(replication);

  ReplicatedRoundReport merged;
  merged.rounds.resize(replication.replications);
  // Fan out: each replication runs the identical round under its own split
  // RNG stream and writes only its own slot.
  runner.run([&](std::size_t rep, util::Rng& rng) {
    merged.rounds[rep] = run_round(config, intents, rng.seed());
  });

  // Barrier merge, in replication order for determinism.
  merged.estimated_execution.resize(n);
  merged.payments.resize(n);
  for (const RoundReport& round : merged.rounds) {
    merged.measured_latency.add(round.metrics.measured_total_latency);
    merged.total_jobs.add(static_cast<double>(round.metrics.total_jobs()));
    for (std::size_t i = 0; i < n; ++i) {
      merged.estimated_execution[i].add(round.estimated_execution[i]);
      merged.payments[i].add(round.outcome.agents[i].payment);
    }
  }
  return merged;
}

}  // namespace lbmv::sim
