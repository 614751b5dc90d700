#pragma once

// Long-double oracles for the nonlinear-family suites
// (test_nonlinear_kernels.cpp, test_nonlinear_loo.cpp): the workload-family
// KKT multiplier by bisection, and the leave-one-out optimum built on it.

#include <cmath>
#include <cstddef>
#include <span>

namespace lbmv_test {

/// x(lambda) = (sqrt(1 + 3 gamma lambda / theta) - 1) / (3 gamma).
inline long double workload_rate(long double lambda, double theta,
                                 double gamma) {
  const long double g3 = 3.0L * static_cast<long double>(gamma);
  return (std::sqrt(1.0L + g3 * lambda / static_cast<long double>(theta)) -
          1.0L) /
         g3;
}

/// The KKT multiplier of sum_j x_j(lambda) = R over thetas, skipping index
/// \p skip (pass thetas.size() to keep every agent), by 200 bisection steps
/// in long double.
inline long double workload_bisection_lambda(std::span<const double> thetas,
                                             double gamma,
                                             double arrival_rate,
                                             std::size_t skip) {
  const auto residual = [&](long double lambda) {
    long double sum = 0.0L;
    for (std::size_t j = 0; j < thetas.size(); ++j) {
      if (j != skip) sum += workload_rate(lambda, thetas[j], gamma);
    }
    return sum - static_cast<long double>(arrival_rate);
  };
  long double inv_sum = 0.0L;
  for (std::size_t j = 0; j < thetas.size(); ++j) {
    if (j != skip) inv_sum += 1.0L / thetas[j];
  }
  // x_i(lambda) <= lambda/(2 theta_i), so g(2R/S) <= 0: a valid lower
  // bracket (the same start the Newton solver uses).
  long double lo = 2.0L * static_cast<long double>(arrival_rate) / inv_sum;
  long double hi = lo > 0.0L ? 2.0L * lo : 1.0L;
  while (residual(hi) <= 0.0L) hi *= 2.0L;
  for (int it = 0; it < 200; ++it) {
    const long double mid = 0.5L * (lo + hi);
    if (mid == lo || mid == hi) break;
    (residual(mid) <= 0.0L ? lo : hi) = mid;
  }
  return 0.5L * (lo + hi);
}

/// L_{-skip}: the rest set's optimal total cost sum theta x^2 (1 + gamma x)
/// at the bisected multiplier.
inline long double workload_bisection_loo(std::span<const double> thetas,
                                          double gamma, double arrival_rate,
                                          std::size_t skip) {
  const long double lambda =
      workload_bisection_lambda(thetas, gamma, arrival_rate, skip);
  long double cost = 0.0L;
  for (std::size_t j = 0; j < thetas.size(); ++j) {
    if (j == skip) continue;
    const long double x = workload_rate(lambda, thetas[j], gamma);
    cost += static_cast<long double>(thetas[j]) * x * x *
            (1.0L + static_cast<long double>(gamma) * x);
  }
  return cost;
}

}  // namespace lbmv_test
