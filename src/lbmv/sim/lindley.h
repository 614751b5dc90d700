#pragma once

/// \file lindley.h
/// A protocol round's job execution without an event queue.
///
/// One round routes a single Poisson job stream across n independent FCFS
/// servers, and server i draws its service times from its own stream in its
/// arrival order.  Servers never interact, so each one's trajectory is the
/// Lindley recursion over its own arrivals (Lindley 1952):
///
///   start_k  = max(arrival_k, finish_{k-1})
///   finish_k = start_k + S_k
///
/// simulate_servers walks the source stream once, buckets every arrival
/// into its server's completion plane, then runs each server's recursion.
/// It consumes the streams exactly as the event-driven oracle does
/// (JobSource on rng.split(0), Server i on rng.split(i + 1), each event one
/// closure on Simulation's heap), and every event time there is
/// `now + delay`, so the planes and busy times are bit-identical to what
/// that stack records (DESIGN.md §8).  The oracle routes with
/// Rng::categorical's linear scan; the walk binary-searches the same
/// left-to-right prefix sums, so the two share no routing code.

#include <cstdint>
#include <span>
#include <vector>

#include "lbmv/sim/server.h"
#include "lbmv/util/rng.h"

namespace lbmv::sim {

/// Every server's trajectory after one round, drained.
struct ServerPlanes {
  /// completions[i]: server i's jobs in arrival (= service) order.
  std::vector<std::vector<Completion>> completions;
  /// busy_time[i]: total service time server i spent.
  std::vector<double> busy_time;
  /// Jobs the source emitted across all servers.
  std::uint64_t jobs = 0;
};

/// Route Poisson arrivals at total rate sum(rates) until \p horizon across
/// FCFS servers running at \p execution_values under \p model, and drain
/// every server.  Jobs arriving at t <= horizon are served.  Rates and
/// horizon must pass checked_total_rate (job_source.h), which throws its
/// PreconditionError before anything is allocated.  Streams:
/// rng.split(0) for arrivals and routing, rng.split(i + 1) for server i.
///
/// When recording is on, publishes each server's arrival, completion and
/// waiting-time families (labelled "C<i+1>") and the source's job count
/// once, after the round.
[[nodiscard]] ServerPlanes simulate_servers(
    std::span<const double> rates, std::span<const double> execution_values,
    ServiceModel model, SimTime horizon, const util::Rng& rng);

}  // namespace lbmv::sim
