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
///
/// The class only fills in the Mechanism pair — the injected allocator and
/// PaymentRule::kNoPayment, under which rule_terms (rule_terms.h) hands out
/// no transfers — and, unpaid agents eating their execution cost by
/// design, the rule does not guarantee voluntary participation, so the
/// participation monitor does not flag this baseline.

#include <memory>
#include <utility>

#include "lbmv/core/mechanism.h"

namespace lbmv::core {

/// PR allocation from the bids; all payments identically zero.
class NoPaymentMechanism final : public Mechanism {
 public:
  NoPaymentMechanism() : NoPaymentMechanism(default_allocator()) {}
  explicit NoPaymentMechanism(
      std::shared_ptr<const alloc::Allocator> allocator)
      : Mechanism(std::move(allocator), PaymentRule::kNoPayment) {}
};

}  // namespace lbmv::core
