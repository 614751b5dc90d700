#pragma once

/// \file archer_tardos.h
/// Archer–Tardos one-parameter truthful baseline — no verification.
///
/// Archer & Tardos (FOCS 2001) show that for agents whose private data is a
/// single scalar t_i and whose cost is t_i * w_i(b) for some "work" measure
/// w_i, an allocation rule is truthfully implementable iff w_i is
/// non-increasing in the agent's own bid, and the (normalised) truthful
/// payment is
///
///     P_i(b) = b_i * w_i(b) + Integral_{b_i}^{inf} w_i(u, b_{-i}) du.
///
/// In the paper's load balancing setting the agent's cost is t_i * x_i^2, so
/// the work curve is w_i = x_i^2; under the PR allocation
/// x_i(u, b_{-i}) = R / (1 + u * s_i) with s_i = sum_{j != i} 1/b_j, which is
/// decreasing in u, and the payment integral has the closed form
///
///     Integral_{b}^{inf} R^2 / (1 + u s)^2 du = R^2 / (s * (1 + b s)).
///
/// Grosu & Chronopoulos used this framework in the companion paper (Cluster
/// 2002) for M/M/1 computers; here it serves as the natural
/// verification-free baseline against the paper's compensation-and-bonus
/// mechanism: truthful in bids, blind to slow execution.
///
/// The class only fills in the Mechanism pair — the PR allocator and
/// PaymentRule::kArcherTardos — and rule_terms (rule_terms.h) prices it,
/// C_i = b_i x_i^2 and B_i = the tail, on every path; this file keeps the
/// tail's closed form and its numeric certificate.

#include <cstddef>
#include <string>

#include "lbmv/core/mechanism.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

/// The tail's closed form R^2 / (s (1 + b s)) at bid \p bid, with
/// \p s_rest = s_i = sum_{j != i} 1/b_j and \p r2 = R^2, unchecked: written
/// once for the checked scalar entry below, the fused linear round and the
/// linear deviation context's sweep.  B and S are double or
/// util::simd::DVec; each lane performs the scalar's IEEE operations.
template <class B, class S>
[[nodiscard]] inline auto archer_tardos_tail(B bid, S s_rest, S r2) {
  return r2 / (s_rest * (1.0 + bid * s_rest));
}

/// Closed-form payment integral Integral_{bid}^{inf} w_i du under PR.
/// \p s_rest is s_i = sum_{j != i} 1/b_j.
[[nodiscard]] double archer_tardos_tail_integral(double bid, double s_rest,
                                                 double arrival_rate);

/// The tail's domain for agent \p agent: the others' capacity
/// s_i = sum_{j != i} 1/b_j must be positive, checked by the reference
/// round before its tail.
inline void require_rest_capacity(double s_rest, std::size_t agent) {
  LBMV_REQUIRE(s_rest > 0.0,
               "the other agents must contribute positive capacity (agent " +
                   std::to_string(agent) + ")");
}

/// The Archer–Tardos mechanism for the PR allocation on linear latencies.
class ArcherTardosMechanism final : public Mechanism {
 public:
  ArcherTardosMechanism()
      : Mechanism(default_allocator(), PaymentRule::kArcherTardos) {}

  /// Numeric evaluation of the payment tail integral (adaptive Simpson over
  /// the transformed infinite interval) — used by tests to certify the
  /// closed form.
  [[nodiscard]] static double tail_integral_numeric(
      double bid, double s_rest, double arrival_rate, double tol = 1e-10);
};

}  // namespace lbmv::core
