#pragma once

/// \file replication.h
/// Parallel Monte-Carlo replications with deterministic RNG stream-splitting.
///
/// Every simulation-driven experiment in lbmv (protocol rounds, epoch runs,
/// learning dynamics, validation sweeps) wants the same shape: run R
/// statistically independent replications of a stochastic experiment and
/// merge their metrics.  ReplicationRunner standardises that shape:
///
///   * **Stream splitting** — replication r draws from
///     `Rng(root_seed).split(r + 1)` (SplitMix64-derived, statistically
///     independent streams).  The stream depends only on (root_seed, r),
///     never on which thread runs it, so results are bit-identical across
///     any thread count, including fully serial.
///   * **Fan-out** — replications are distributed over a util::ThreadPool
///     via ThreadPool::parallel_for, one replication per pool task; each
///     replication writes only its own output slot.
///   * **Barrier merge** — run() blocks until every replication finished;
///     callers then merge the per-replication slots in replication order,
///     which keeps merged statistics deterministic too.

#include <cstdint>
#include <functional>
#include <vector>

#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::sim {

/// Fan-out configuration.
struct ReplicationOptions {
  std::size_t replications = 8;
  std::uint64_t root_seed = 42;   ///< split per replication, never shared
  util::ThreadPool* pool = nullptr;  ///< nullptr => ThreadPool::global()
};

/// Deterministic parallel replication harness.
class ReplicationRunner {
 public:
  explicit ReplicationRunner(ReplicationOptions options = {});

  /// The independent RNG stream for replication \p rep.
  [[nodiscard]] util::Rng stream(std::size_t rep) const;

  /// Run body(rep, rng) for rep in [0, replications) across the pool and
  /// block until all replications finished.  body must write only
  /// per-replication state (its own output slot); the rng argument is the
  /// replication's private stream.
  void run(const std::function<void(std::size_t, util::Rng&)>& body) const;

  /// Map every replication through \p fn and collect the results in
  /// replication order: `out[rep] = fn(rep, stream(rep))`.
  template <typename T, typename F>
  [[nodiscard]] std::vector<T> map(F&& fn) const {
    std::vector<T> out(options_.replications);
    run([&](std::size_t rep, util::Rng& rng) { out[rep] = fn(rep, rng); });
    return out;
  }

  [[nodiscard]] const ReplicationOptions& options() const { return options_; }

 private:
  ReplicationOptions options_;
};

}  // namespace lbmv::sim
