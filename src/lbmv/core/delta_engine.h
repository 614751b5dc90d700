#pragma once

/// \file delta_engine.h
/// Cached mechanism round for loops that re-run one mechanism on planes
/// that change sparsely, or not at all, between rounds (epochs, the
/// verified protocol's estimate-vs-oracle double round).
///
/// The engine owns the committed bid/execution planes, one RoundWorkspace
/// and the last MechanismOutcome.  sync() diff-copies new planes in and
/// drops the cached outcome only if some entry changed; outcome() runs
/// Mechanism::run_into on the committed planes when the cache is stale.
/// Every outcome is therefore bit-identical to a direct run_into call, and
/// invalid planes raise run_into's own typed diagnostics (DESIGN.md §15).

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "lbmv/core/batch.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"

namespace lbmv::core {

/// The mechanism and family must outlive the engine.  Not thread-safe; one
/// engine per round loop, like a RoundWorkspace.
class DeltaRoundEngine {
 public:
  DeltaRoundEngine(const Mechanism& mechanism,
                   std::shared_ptr<const model::LatencyFamily> family,
                   double arrival_rate, const model::BidProfile& initial);

  /// Move the committed planes to (bids, executions), keeping the agent
  /// count.  Returns the number of changed agents; 0 keeps the cached
  /// outcome, so a quiescent round runs nothing.
  std::size_t sync(std::span<const double> bids,
                   std::span<const double> executions);

  /// The mechanism outcome at the committed planes, computed by
  /// Mechanism::run_into and cached until a sync changes them.
  [[nodiscard]] const MechanismOutcome& outcome();

 private:
  const Mechanism* mechanism_;
  std::shared_ptr<const model::LatencyFamily> family_;
  double arrival_rate_;
  std::vector<double> bids_;
  std::vector<double> execs_;
  bool outcome_valid_ = false;
  MechanismOutcome outcome_;
  RoundWorkspace ws_;
};

}  // namespace lbmv::core
