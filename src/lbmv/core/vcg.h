#pragma once

/// \file vcg.h
/// VCG (Vickrey–Clarke–Groves) baseline mechanism — no verification.
///
/// The classical truthful mechanism for objectives that are sums of agent
/// costs (Nisan & Ronen 2001, §related work in the paper).  Allocation
/// minimises the reported total latency; agent i is paid its *externality*:
///
///     P_i = L_{-i}(x_{-i}(b_{-i})) - sum_{j != i} c_j(x(b); b_j)
///
/// i.e. the Clarke pivot.  Payments are a function of bids only: VCG is
/// truthful with respect to the *reported* types but, having no verification
/// step, cannot react when an agent executes slower than it bid.  The
/// ablation bench (A3) demonstrates exactly this failure mode and why the
/// paper's verification step matters.

#include <string>

#include "lbmv/core/mechanism.h"

namespace lbmv::core {

/// Clarke-pivot VCG mechanism over the injected allocator.
class VcgMechanism final : public Mechanism {
 public:
  VcgMechanism();
  explicit VcgMechanism(std::shared_ptr<const alloc::Allocator> allocator);

  [[nodiscard]] std::string name() const override { return "vcg"; }
  [[nodiscard]] bool uses_verification() const override { return false; }
  [[nodiscard]] PaymentRule payment_rule() const override {
    return PaymentRule::kVcg;
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
