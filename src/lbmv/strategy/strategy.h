#pragma once

/// \file strategy.h
/// Agent behaviour models.
///
/// A strategy maps an agent's private true value to the bid it reports and
/// the execution value it then actually runs at (always >= the true value —
/// a machine cannot exceed its capacity).  The paper's Table 2 experiments
/// are ScalingStrategy instances; the tournament and dynamics modules pit
/// richer behaviours against each other under different mechanisms.

#include <string>
#include <vector>

#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/util/rng.h"

namespace lbmv::strategy {

/// Decides one agent's bid and execution value.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// The bid reported for true value \p true_value.
  [[nodiscard]] virtual double bid(double true_value, util::Rng& rng) const = 0;

  /// The execution value the agent runs at, given its true value and the
  /// bid it chose.  Must be >= true_value.
  [[nodiscard]] virtual double execution(double true_value, double bid,
                                         util::Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Bid the truth and execute at full capacity.
class TruthfulStrategy final : public Strategy {
 public:
  [[nodiscard]] double bid(double true_value, util::Rng&) const override;
  [[nodiscard]] double execution(double true_value, double,
                                 util::Rng&) const override;
  [[nodiscard]] std::string name() const override { return "truthful"; }
};

/// Fixed multiplicative deviation: bid = bid_mult * t, execution =
/// max(1, exec_mult) * t.  Covers every Table 2 experiment.
class ScalingStrategy final : public Strategy {
 public:
  ScalingStrategy(double bid_mult, double exec_mult);
  [[nodiscard]] double bid(double true_value, util::Rng&) const override;
  [[nodiscard]] double execution(double true_value, double,
                                 util::Rng&) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double bid_mult() const { return bid_mult_; }
  [[nodiscard]] double exec_mult() const { return exec_mult_; }

 private:
  double bid_mult_;
  double exec_mult_;
};

/// Bid log-uniformly in [lo_mult, hi_mult] * t; execute truthfully.
/// A noise-maker for tournaments.
class RandomBidStrategy final : public Strategy {
 public:
  RandomBidStrategy(double lo_mult, double hi_mult);
  [[nodiscard]] double bid(double true_value, util::Rng& rng) const override;
  [[nodiscard]] double execution(double true_value, double,
                                 util::Rng&) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double lo_mult_;
  double hi_mult_;
};

/// "Lazy" agent: bids the truth to win a normal share, then slacks
/// execution by a factor.  The behaviour only verification can punish.
class SlackExecutionStrategy final : public Strategy {
 public:
  explicit SlackExecutionStrategy(double exec_mult);
  [[nodiscard]] double bid(double true_value, util::Rng&) const override;
  [[nodiscard]] double execution(double true_value, double,
                                 util::Rng&) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double exec_mult_;
};

/// Build a full bid profile by applying \p strategies agent-by-agent
/// (strategies.size() must equal config.size()).
[[nodiscard]] model::BidProfile apply_strategies(
    const model::SystemConfig& config,
    const std::vector<const Strategy*>& strategies, util::Rng& rng);

}  // namespace lbmv::strategy
