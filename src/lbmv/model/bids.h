#pragma once

/// \file bids.h
/// Bid / execution-value profiles for a round of the mechanism.
///
/// In the paper's mechanism with verification (Definition 3.1), each agent i
///   * reports a bid b_i (possibly != its true value t_i), and then
///   * executes its assigned jobs at an *execution value* t~_i >= t_i (it can
///     run at most at its full capacity, but may deliberately run slower).
/// The mechanism observes t~_i after the jobs complete — that observation is
/// the "verification".

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "lbmv/model/system_config.h"

namespace lbmv::model {

/// A full strategy profile for one mechanism round.
struct BidProfile {
  std::vector<double> bids;        ///< b_i reported before allocation
  std::vector<double> executions;  ///< t~_i observed after execution

  /// Truthful profile: b_i = t~_i = theta_i for all i.
  [[nodiscard]] static BidProfile truthful(const SystemConfig& config);

  /// Truthful profile except agent \p i bids bid_mult * theta_i and executes
  /// at exec_mult * theta_i.  This is exactly how the paper's Table 2
  /// experiments deviate computer C1.
  [[nodiscard]] static BidProfile deviate(const SystemConfig& config,
                                          std::size_t i, double bid_mult,
                                          double exec_mult);

  [[nodiscard]] std::size_t size() const { return bids.size(); }

  /// Profile over the remaining agents when agent i is removed.
  [[nodiscard]] BidProfile without(std::size_t i) const;

  /// In-place variant of without() for hot paths: fills \p scratch with
  /// every agent but \p i, reusing its capacity so a scratch profile
  /// carried across a leave-one-out loop allocates at most once.
  void copy_without_into(std::size_t i, BidProfile& scratch) const;

  /// Throw unless sizes match \p n and require_valid_values holds.
  void validate(std::size_t n) const;

  /// Whether every agent executes at least as fast as it could pretend:
  /// t~_i >= max(b_i is irrelevant) ... specifically t~_i >= theta_i for the
  /// given config (an agent cannot run faster than its true capacity).
  [[nodiscard]] bool executions_respect_capacity(
      const SystemConfig& config, double tol = 1e-12) const;
};

/// The one value check every mechanism round and profile context applies:
/// each bid and execution value must be finite and > 0.  Throws a
/// PreconditionError naming the first offending agent (bid before
/// execution per agent, agents in index order).  \p executions must be at
/// least as long as \p bids.
void require_valid_values(std::span<const double> bids,
                          std::span<const double> executions);

/// Throws the PreconditionError require_valid_deviation describes (cold
/// path; requires that some part of the check fails).
[[noreturn]] void throw_invalid_deviation(std::size_t agent, std::size_t n,
                                          double bid, double execution);

/// The same check for one unilateral deviation query (a profile context's
/// utility, commit or sweep): \p agent must index one of \p n agents, and
/// \p bid and \p execution must be finite and > 0.  Throws a
/// PreconditionError with require_valid_values' message for that agent.
/// Inline: it guards every O(1) query.
inline void require_valid_deviation(std::size_t agent, std::size_t n,
                                    double bid, double execution) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!(agent < n && bid > 0.0 && bid < kInf && execution > 0.0 &&
        execution < kInf)) {
    throw_invalid_deviation(agent, n, bid, execution);
  }
}

/// require_valid_values, then the arrival rate: finite and > 0.
void require_valid_round(double arrival_rate, std::span<const double> bids,
                         std::span<const double> executions);

}  // namespace lbmv::model
