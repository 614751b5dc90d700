#pragma once

/// \file job_source.h
/// Poisson job generation with allocation-proportional routing.
///
/// The paper's workload is a stream of jobs arriving at the system with
/// rate R, split across computers according to the allocation x computed by
/// the mechanism.  JobSource realises the split probabilistically: each
/// arrival is routed to computer i with probability x_i / R, which makes
/// every per-computer arrival process Poisson with rate x_i (thinning).
///
/// Protocol rounds do not run this source: they walk the same stream
/// directly (lindley.h).  JobSource, with Server and Simulation, is that
/// walk's event-driven differential oracle, and drives the benches that
/// measure the event loop.
///
/// Hot-path design: arrivals are typed events (the source is an EventSink),
/// and routing uses a precomputed prefix-sum table with binary search —
/// O(log n) per arrival instead of the seed's O(n) re-validated weight
/// scan, while consuming the identical single uniform draw and returning
/// the identical index (the prefix sums are accumulated in the same
/// left-to-right order as Rng::categorical's running sum).

#include <cstdint>
#include <span>
#include <vector>

#include "lbmv/sim/engine.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/rng.h"

namespace lbmv::sim {

/// Drives Poisson arrivals into a set of servers until a horizon.
class JobSource final : public EventSink {
 public:
  /// \p rates: per-server arrival rates (x_i); their sum is the system rate.
  /// \p servers must outlive the source.  Arrivals stop at \p horizon.
  JobSource(Simulation& sim, std::span<Server* const> servers,
            std::vector<double> rates, SimTime horizon, util::Rng rng);

  /// Schedule the first arrival; subsequent arrivals self-schedule.
  void start();

  /// Typed-event entry point: fires one arrival.
  void on_sim_event(Simulation& sim, EventKind kind) override;

  [[nodiscard]] std::uint64_t jobs_emitted() const { return next_job_id_; }
  [[nodiscard]] std::span<const std::uint64_t> per_server_counts() const {
    return counts_;
  }

 private:
  void arrival();
  [[nodiscard]] std::size_t route();

  Simulation* sim_;
  std::vector<Server*> servers_;
  std::vector<double> rates_;
  std::vector<double> cumulative_rates_;  ///< prefix sums of rates_
  double total_rate_;
  SimTime horizon_;
  util::Rng rng_;
  std::uint64_t next_job_id_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace lbmv::sim
