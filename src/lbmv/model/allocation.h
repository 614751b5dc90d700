#pragma once

/// \file allocation.h
/// Feasible job allocations and total-latency evaluation.
///
/// A feasible allocation x = (x_1 ... x_n) satisfies (paper §2):
///   (i)  positivity:   x_i >= 0 for all i, and
///   (ii) conservation: sum_i x_i = R, the system arrival rate.

#include <memory>
#include <span>
#include <vector>

#include "lbmv/model/latency.h"

namespace lbmv::model {

/// An immutable vector of per-computer job arrival rates.
class Allocation {
 public:
  Allocation() = default;

  /// Wrap per-computer rates.  Requires all entries finite.
  explicit Allocation(std::vector<double> rates);

  /// Wrap rates the caller has already proven finite (e.g. by a vector
  /// validity mask over the whole plane), skipping the constructor's O(n)
  /// re-scan.  Callers that cannot prove finiteness must use the checked
  /// constructor — a non-finite rate smuggled through here breaks the
  /// class invariant every consumer relies on.
  [[nodiscard]] static Allocation from_validated(std::vector<double> rates) {
    Allocation a;
    a.rates_ = std::move(rates);
    return a;
  }

  [[nodiscard]] std::size_t size() const { return rates_.size(); }
  [[nodiscard]] double operator[](std::size_t i) const;
  [[nodiscard]] std::span<const double> rates() const { return rates_; }

  /// Sum of all per-computer rates.
  [[nodiscard]] double total_rate() const;

  /// Whether positivity holds and the total equals \p arrival_rate within
  /// \p tol (absolute on each rate, relative-ish on the total).
  [[nodiscard]] bool is_feasible(double arrival_rate,
                                 double tol = 1e-9) const;

  /// Allocation over the same computers with computer \p i removed.
  [[nodiscard]] Allocation without(std::size_t i) const;

  /// Steal the rate vector, leaving this allocation empty.  Hot `_into`
  /// paths use this to recycle the plane's capacity across rounds instead
  /// of allocating a fresh vector per call.
  [[nodiscard]] std::vector<double> release() && { return std::move(rates_); }

 private:
  std::vector<double> rates_;
};

/// Total latency L(x) = sum_i t_i * x_i^2 for the paper's linear model.
/// Requires x.size() == t.size().
[[nodiscard]] double total_latency_linear(const Allocation& x,
                                          std::span<const double> t);

/// Total latency L(x) = sum_i x_i * l_i(x_i) for arbitrary latency curves.
/// Requires x.size() == latencies.size().
[[nodiscard]] double total_latency(
    const Allocation& x,
    std::span<const std::unique_ptr<LatencyFunction>> latencies);

}  // namespace lbmv::model
