#include "lbmv/alloc/convex_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lbmv/util/error.h"
#include "lbmv/util/roots.h"

namespace lbmv::alloc {
namespace {

/// Solve marginal_cost(x) = lambda for x in (0, max_rate), assuming
/// marginal_cost(0) < lambda and an increasing marginal.
double invert_marginal(const model::LatencyFunction& f, double lambda) {
  const double cap = f.max_rate();
  double hi;
  if (std::isfinite(cap)) {
    // Approach the capacity from below until the marginal exceeds lambda;
    // the marginal blows up at the cap for queueing-style latencies.
    double delta = 0.5 * cap;
    hi = cap - delta;
    while (f.marginal_cost(hi) < lambda && delta > cap * 1e-15) {
      delta *= 0.5;
      hi = cap - delta;
    }
    if (f.marginal_cost(hi) < lambda) return hi;  // effectively saturated
  } else {
    hi = 1.0;
    while (f.marginal_cost(hi) < lambda && hi < 1e300) hi *= 2.0;
    LBMV_ASSERT(f.marginal_cost(hi) >= lambda,
                "marginal cost failed to reach lambda — non-coercive cost?");
  }
  auto g = [&](double x) { return f.marginal_cost(x) - lambda; };
  const double xtol = std::max(hi * 1e-15, 1e-300);
  const auto root = util::bisect(g, 0.0, hi, xtol, 0.0, 300);
  return root.x;
}

}  // namespace

model::Allocation convex_allocate(
    std::span<const std::unique_ptr<model::LatencyFunction>> latencies,
    double arrival_rate, double tol) {
  LBMV_REQUIRE(!latencies.empty(), "need at least one computer");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  LBMV_REQUIRE(tol > 0.0, "tolerance must be positive");

  double total_cap = 0.0;
  bool finite_cap = true;
  for (const auto& f : latencies) {
    LBMV_REQUIRE(f != nullptr, "latency function must not be null");
    if (std::isfinite(f->max_rate())) {
      total_cap += f->max_rate();
    } else {
      finite_cap = false;
    }
  }
  LBMV_REQUIRE(!finite_cap || arrival_rate < total_cap,
               "arrival rate exceeds the total service capacity");

  const std::size_t n = latencies.size();
  auto rates_at = [&](double lambda, std::vector<double>& x) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double m0 = latencies[i]->marginal_cost(0.0);
      x[i] = (lambda <= m0) ? 0.0 : invert_marginal(*latencies[i], lambda);
      total += x[i];
    }
    return total;
  };

  // Bracket lambda.  At lambda = min marginal at 0 the total is 0; expand
  // upward until the total covers the arrival rate.
  double lambda_lo = std::numeric_limits<double>::infinity();
  for (const auto& f : latencies) {
    lambda_lo = std::min(lambda_lo, f->marginal_cost(0.0));
  }
  std::vector<double> x(n);
  double lambda_hi = std::max(1.0, lambda_lo * 2.0 + 1.0);
  int expansions = 0;
  while (rates_at(lambda_hi, x) < arrival_rate) {
    lambda_hi *= 2.0;
    LBMV_ASSERT(++expansions < 2000, "failed to bracket the multiplier");
  }

  // Bisection on the conservation residual.
  const double target_tol = tol * std::max(1.0, arrival_rate);
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lambda_lo + lambda_hi);
    const double total = rates_at(mid, x);
    if (std::fabs(total - arrival_rate) <= target_tol) break;
    if (total < arrival_rate) {
      lambda_lo = mid;
    } else {
      lambda_hi = mid;
    }
    if (lambda_hi - lambda_lo <=
        1e-16 * std::max(1.0, std::fabs(lambda_hi))) {
      break;
    }
  }

  // Make conservation exact: spread the residual over the active computers
  // proportionally (an O(tol) perturbation of the optimum).
  double total = rates_at(0.5 * (lambda_lo + lambda_hi), x);
  LBMV_ASSERT(total > 0.0, "degenerate allocation from bisection");
  const double scale = arrival_rate / total;
  for (double& xi : x) xi *= scale;
  return model::Allocation(std::move(x));
}

void ConvexAllocator::allocate_into(const model::LatencyFamily& family,
                                    std::span<const double> types,
                                    double arrival_rate,
                                    std::vector<double>& rates) const {
  std::vector<std::unique_ptr<model::LatencyFunction>> latencies;
  latencies.reserve(types.size());
  for (double t : types) latencies.push_back(family.make(t));
  rates = convex_allocate(latencies, arrival_rate, tol_).release();
}

}  // namespace lbmv::alloc
