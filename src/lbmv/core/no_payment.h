#pragma once

/// \file no_payment.h
/// The classical, payment-free protocol — the paper's motivating baseline.
///
/// Traditional load balancing assumes obedient participants: the scheduler
/// asks every computer for its speed, runs the PR algorithm, and pays
/// nothing.  With selfish agents this collapses: an agent's utility is just
/// its (negative) latency cost -t~_i x_i^2, so every agent prefers *fewer*
/// jobs and overbidding (pretending to be slow) strictly raises its utility
/// while degrading the system optimum.  The dynamics bench (A5) and the
/// verification ablation (A3) quantify the collapse.

#include <string>

#include "lbmv/core/mechanism.h"

namespace lbmv::core {

/// PR allocation from the bids; all payments identically zero.
class NoPaymentMechanism final : public Mechanism {
 public:
  NoPaymentMechanism();
  explicit NoPaymentMechanism(
      std::shared_ptr<const alloc::Allocator> allocator);

  [[nodiscard]] std::string name() const override { return "no-payment"; }
  [[nodiscard]] bool uses_verification() const override { return false; }
  /// Unpaid agents eat their execution cost, so utility is negative by
  /// design — the participation monitor must not flag this baseline.
  [[nodiscard]] bool guarantees_voluntary_participation() const override {
    return false;
  }
  [[nodiscard]] PaymentRule payment_rule() const override {
    return PaymentRule::kNoPayment;
  }

 protected:
  void fill_payments(const model::LatencyFamily& family, double arrival_rate,
                     std::span<const double> bids,
                     std::span<const double> executions,
                     const model::Allocation& x, double actual_latency,
                     double reported_latency,
                     std::vector<AgentOutcome>& outcomes,
                     RoundWorkspace& ws) const override;
};

}  // namespace lbmv::core
