#include "lbmv/alloc/workload_allocator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "lbmv/util/error.h"
#include "lbmv/util/simd.h"

namespace lbmv::alloc {

namespace {

namespace simd = util::simd;

/// One evaluation of the conservation residual g(lambda) = sum x_i - R and
/// its derivative g'(lambda) = sum 1/(2 theta_i s_i), s_i = sqrt(1 + 3
/// gamma lambda / theta_i), in a single 4-lane pass over the theta plane.
struct Residual {
  double g = 0.0;
  double gp = 0.0;
};

Residual eval_residual(std::span<const double> thetas, double gamma,
                       double arrival_rate, double lambda) {
  const std::size_t n = thetas.size();
  const double k3gl = 3.0 * gamma * lambda;
  const double inv3g = 1.0 / (3.0 * gamma);
  const simd::DVec one = simd::set1(1.0);
  simd::DVec vg = simd::zero();
  simd::DVec vgp = simd::zero();
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const simd::DVec t = simd::load(&thetas[i]);
    const simd::DVec s =
        simd::sqrt(simd::add(one, simd::div(simd::set1(k3gl), t)));
    vg = simd::add(vg, simd::mul(simd::sub(s, one), simd::set1(inv3g)));
    vgp = simd::add(
        vgp, simd::div(one, simd::mul(simd::set1(2.0), simd::mul(t, s))));
  }
  Residual r;
  r.g = simd::hsum(vg);
  r.gp = simd::hsum(vgp);
  for (; i < n; ++i) {
    const double s = std::sqrt(1.0 + k3gl / thetas[i]);
    r.g += (s - 1.0) * inv3g;
    r.gp += 1.0 / (2.0 * thetas[i] * s);
  }
  r.g -= arrival_rate;
  return r;
}

}  // namespace

WorkloadSolve workload_solve_into(std::span<const double> thetas, double gamma,
                                  double arrival_rate,
                                  std::span<double> rates_out,
                                  double warm_start_lambda) {
  const std::size_t n = thetas.size();
  LBMV_REQUIRE(n > 0, "need at least one computer");
  LBMV_REQUIRE(gamma > 0.0, "workload congestion coefficient must be positive");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  LBMV_REQUIRE(rates_out.size() == n, "rates_out size mismatch");

  double lambda = warm_start_lambda;
  if (!(lambda > 0.0)) {
    // Linear-model estimate: x_i ~ lambda/(2 theta_i) overestimates the true
    // x_i(lambda), so g(2R/S) <= 0 and the monotone Newton applies.
    double inv_sum = 0.0;
    for (double t : thetas) {
      LBMV_REQUIRE(t > 0.0, "types must be positive");
      inv_sum += 1.0 / t;
    }
    lambda = 2.0 * arrival_rate / inv_sum;
  }

  WorkloadSolve solve;
  for (std::size_t iter = 0; iter < kWorkloadNewtonMaxIters; ++iter) {
    const Residual r = eval_residual(thetas, gamma, arrival_rate, lambda);
    ++solve.iterations;
    if (r.g == 0.0) break;
    const double next = lambda - r.g / r.gp;
    // Fixed point: the step rounded away (or a warm start overshot by a few
    // ulps, making the "correction" non-positive) — lambda is converged.
    if (!(next > lambda)) break;
    lambda = next;
  }
  solve.lambda = lambda;

  // Fill pass: rates and the optimum's total latency in the same 4-lane
  // sweep, cost accumulated in the latency function's own operation order
  // x * (theta * x * (1 + gamma * x)).
  const double k3gl = 3.0 * gamma * lambda;
  const double inv3g = 1.0 / (3.0 * gamma);
  const simd::DVec one = simd::set1(1.0);
  simd::DVec vl = simd::zero();
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const simd::DVec t = simd::load(&thetas[i]);
    const simd::DVec s =
        simd::sqrt(simd::add(one, simd::div(simd::set1(k3gl), t)));
    const simd::DVec x = simd::mul(simd::sub(s, one), simd::set1(inv3g));
    simd::store(&rates_out[i], x);
    const simd::DVec lat = simd::mul(
        t, simd::mul(x, simd::add(one, simd::mul(simd::set1(gamma), x))));
    vl = simd::add(vl, simd::mul(x, lat));
  }
  solve.optimal_latency = simd::hsum(vl);
  for (; i < n; ++i) {
    const double s = std::sqrt(1.0 + k3gl / thetas[i]);
    const double x = (s - 1.0) * inv3g;
    rates_out[i] = x;
    solve.optimal_latency += x * (thetas[i] * x * (1.0 + gamma * x));
  }
  return solve;
}

WorkloadLooStats workload_leave_one_out_into(std::span<const double> thetas,
                                             double gamma,
                                             double arrival_rate,
                                             const WorkloadSolve& full,
                                             std::span<const double> rates,
                                             std::span<double> out,
                                             std::vector<double>& scratch) {
  constexpr std::size_t kK = kWorkloadLooTerms;
  constexpr std::size_t kLocalMaxIters = 32;
  const std::size_t n = thetas.size();
  LBMV_REQUIRE(n >= 2, "leave-one-out requires at least two computers");
  LBMV_REQUIRE(rates.size() == n && out.size() == n,
               "leave-one-out plane size mismatch");
  const double lambda = full.lambda;
  const double g3 = 3.0 * gamma;
  const double inv3g = 1.0 / (3.0 * gamma);

  // Moment pass.  With s_j = sqrt(1 + 3 gamma lambda / theta_j) the k-th
  // Taylor coefficient of x_j is x_j^(k)/k!, and consecutive ones differ by
  // the factor (3/2 - k)/k * 3 gamma / (theta_j + 3 gamma lambda).  coef[k]
  // sums them over j; residual is what the full solve left of G - R.
  std::array<double, kK + 2> ratio{};
  for (std::size_t k = 2; k <= kK + 1; ++k) {
    ratio[k] = (1.5 - static_cast<double>(k)) / static_cast<double>(k);
  }
  std::array<double, kK + 2> coef{};
  double residual = -arrival_rate;
  const double k3gl = 3.0 * gamma * lambda;
  for (std::size_t j = 0; j < n; ++j) {
    residual += rates[j];
    const double theta = thetas[j];
    const double s = std::sqrt(1.0 + k3gl / theta);
    const double w = g3 / (theta + k3gl);
    double term = 1.0 / (2.0 * theta * s);
    coef[1] += term;
    for (std::size_t k = 2; k <= kK + 1; ++k) {
      term *= ratio[k] * w;
      coef[k] += term;
    }
  }

  WorkloadLooStats stats;
  for (std::size_t i = 0; i < n; ++i) {
    const double theta = thetas[i];
    // Newton from delta = 0 on phi(delta) = T_K(delta) + residual -
    // x_i(lambda + delta), T_K the K-term model of G(lambda + delta) - G.
    // The rest residual is increasing and concave, so the iteration climbs
    // monotonically to the root.
    double delta = 0.0;
    bool converged = false;
    for (std::size_t it = 0; it < kLocalMaxIters; ++it) {
      double t = 0.0;
      double tp = 0.0;
      for (std::size_t k = kK; k >= 1; --k) {
        t = t * delta + coef[k];
        tp = tp * delta + static_cast<double>(k) * coef[k];
      }
      const double s = std::sqrt(1.0 + 3.0 * gamma * (lambda + delta) / theta);
      const double phi = t * delta + residual - (s - 1.0) * inv3g;
      const double dphi = tp - 1.0 / (2.0 * theta * s);
      if (!(dphi > 0.0)) break;
      const double next = delta - phi / dphi;
      if (!(next >= 0.0 && next < std::numeric_limits<double>::infinity())) {
        break;
      }
      const bool done = std::fabs(next - delta) <= 1e-15 * next;
      delta = next;
      if (done) {
        converged = true;
        break;
      }
    }

    if (converged) {
      // L_{-i} = L* + int_0^delta (lambda + t) T_K'(t) dt - c_i(x_i(lambda +
      // delta)), with the remainder of G^(K+1) certified by its value at
      // lambda: the residual error times a 2(lambda + delta) multiplier
      // bound, plus the integral's own truncation.
      double integral = 0.0;
      double power = delta;
      for (std::size_t k = 1; k <= kK; ++k) {
        const double kd = static_cast<double>(k);
        integral += coef[k] * power * (lambda + kd / (kd + 1.0) * delta);
        power *= delta;
      }
      const double s =
          std::sqrt(1.0 + 3.0 * gamma * (lambda + delta) / theta);
      const double x = (s - 1.0) * inv3g;
      const double loo =
          full.optimal_latency + integral - x * (theta * x * (1.0 + gamma * x));
      const double bound =
          3.0 * (lambda + delta) * std::fabs(coef[kK + 1]) * power;
      if (bound <= kWorkloadLooRelTol * loo) {
        out[i] = loo;
        continue;
      }
    }

    // Exact fallback: the rest set in BidProfile::without order, warm-started
    // at lambda* (g_rest(lambda*) = -x_i(lambda*) <= 0).
    scratch.resize(2 * (n - 1));
    const std::span<double> rest{scratch.data(), n - 1};
    const std::span<double> rest_rates{scratch.data() + (n - 1), n - 1};
    std::copy(thetas.begin(), thetas.begin() + static_cast<std::ptrdiff_t>(i),
              rest.begin());
    std::copy(thetas.begin() + static_cast<std::ptrdiff_t>(i) + 1,
              thetas.end(), rest.begin() + static_cast<std::ptrdiff_t>(i));
    const WorkloadSolve solve =
        workload_solve_into(rest, gamma, arrival_rate, rest_rates, lambda);
    out[i] = solve.optimal_latency;
    ++stats.fallbacks;
    stats.newton_iters += solve.iterations;
  }
  return stats;
}

namespace {

double family_gamma(const model::LatencyFamily& family) {
  const auto* workload = dynamic_cast<const model::WorkloadFamily*>(&family);
  LBMV_REQUIRE(workload != nullptr,
               "WorkloadAllocator requires the workload latency family");
  return workload->gamma();
}

}  // namespace

model::Allocation WorkloadAllocator::allocate(
    const model::LatencyFamily& family, std::span<const double> types,
    double arrival_rate) const {
  std::vector<double> rates(types.size(), 0.0);
  workload_solve_into(types, family_gamma(family), arrival_rate, rates);
  return model::Allocation(std::move(rates));
}

void WorkloadAllocator::allocate_into(const model::LatencyFamily& family,
                                      std::span<const double> types,
                                      double arrival_rate,
                                      std::vector<double>& rates) const {
  rates.resize(types.size());
  workload_solve_into(types, family_gamma(family), arrival_rate, rates);
}

double WorkloadAllocator::optimal_latency(const model::LatencyFamily& family,
                                          std::span<const double> types,
                                          double arrival_rate) const {
  std::vector<double> scratch(types.size(), 0.0);
  return workload_solve_into(types, family_gamma(family), arrival_rate,
                             scratch)
      .optimal_latency;
}

void WorkloadAllocator::leave_one_out_into(const model::LatencyFamily& family,
                                           std::span<const double> types,
                                           double arrival_rate,
                                           std::vector<double>& out) const {
  LBMV_REQUIRE(types.size() >= 2,
               "leave-one-out requires at least two computers");
  const double gamma = family_gamma(family);
  std::vector<double> rates(types.size(), 0.0);
  const WorkloadSolve full =
      workload_solve_into(types, gamma, arrival_rate, rates);
  out.resize(types.size());
  std::vector<double> scratch;
  workload_leave_one_out_into(types, gamma, arrival_rate, full, rates, out,
                              scratch);
}

}  // namespace lbmv::alloc
