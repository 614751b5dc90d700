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
/// walk's event-driven differential oracle: one scheduled closure per
/// arrival, routed by Rng::categorical.

#include <cstdint>
#include <span>
#include <vector>

#include "lbmv/sim/engine.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/rng.h"

namespace lbmv::sim {

/// Drives Poisson arrivals into a set of servers until a horizon.
class JobSource {
 public:
  /// \p rates: per-server arrival rates (x_i), each finite and non-negative,
  /// with a positive finite sum (the system rate).  \p servers must outlive
  /// the source.  Arrivals stop at \p horizon, which must be finite and
  /// positive.
  JobSource(Simulation& sim, std::span<Server* const> servers,
            std::vector<double> rates, SimTime horizon, util::Rng rng);
  // Scheduled arrivals capture this source's address, so it can be
  // neither copied nor moved.
  JobSource(const JobSource&) = delete;
  JobSource& operator=(const JobSource&) = delete;

  /// Schedule the first arrival; subsequent arrivals self-schedule.
  void start();

  [[nodiscard]] std::uint64_t jobs_emitted() const { return next_job_id_; }
  [[nodiscard]] std::span<const std::uint64_t> per_server_counts() const {
    return counts_;
  }

 private:
  void arrival();

  Simulation* sim_;
  std::vector<Server*> servers_;
  std::vector<double> rates_;
  double total_rate_;
  SimTime horizon_;
  util::Rng rng_;
  std::uint64_t next_job_id_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace lbmv::sim
