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
///
/// The class only fills in the Mechanism pair — the injected allocator and
/// PaymentRule::kVcg — and rule_terms (rule_terms.h) prices it on every
/// path, exposing the agent's own reported cost as C_i and the pivot
/// L_{-i} - L(x(b), b) as B_i.

#include <memory>
#include <utility>

#include "lbmv/core/mechanism.h"

namespace lbmv::core {

/// Clarke-pivot VCG mechanism over the injected allocator.
class VcgMechanism final : public Mechanism {
 public:
  VcgMechanism() : VcgMechanism(default_allocator()) {}
  explicit VcgMechanism(std::shared_ptr<const alloc::Allocator> allocator)
      : Mechanism(std::move(allocator), PaymentRule::kVcg) {}
};

}  // namespace lbmv::core
