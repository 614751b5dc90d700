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

/// The largest expected job count, sum(rates) * horizon, a source stream
/// accepts.  simulate_servers keeps every job as one 32-byte Completion, so
/// this many jobs hold about 3.2 GB (the event-driven stack holds more per
/// job); the CLI's default protocol round expects 6e4.  A larger product
/// would only allocate until memory runs out.
inline constexpr double kMaxExpectedJobs = 1e8;

/// The source stream's input contract, checked once for JobSource and
/// simulate_servers before either allocates: every rate finite and
/// non-negative, their sum finite and positive (an infinite rate draws
/// zero-length gaps, so the stream never passes the horizon), a finite
/// positive horizon, and an expected job count sum(rates) * horizon of at
/// most kMaxExpectedJobs.  Throws a PreconditionError naming the input that
/// fails; returns sum(rates), accumulated left to right.
[[nodiscard]] double checked_total_rate(std::span<const double> rates,
                                        SimTime horizon);

/// Drives Poisson arrivals into a set of servers until a horizon.
class JobSource {
 public:
  /// \p rates: per-server arrival rates (x_i), whose sum is the system
  /// rate.  \p servers must outlive the source.  Arrivals stop at
  /// \p horizon.  Rates and horizon must pass checked_total_rate.
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
