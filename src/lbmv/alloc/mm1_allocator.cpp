#include "lbmv/alloc/mm1_allocator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "lbmv/util/error.h"

namespace lbmv::alloc {

namespace {

/// c(m) over the m fastest computers of a sorted prefix.
double prefix_c(double prefix_mu, double prefix_a, double arrival_rate) {
  return (prefix_mu - arrival_rate) / prefix_a;
}

/// Largest m in [lo, hi] with pred(m), given pred(lo) and pred monotone
/// (true on a prefix, false after it): gallop up from lo, then bisect, so
/// the cost is logarithmic in the distance from lo to the answer.
template <class Pred>
std::size_t last_true(std::size_t lo, std::size_t hi, Pred pred) {
  for (std::size_t step = 1; lo < hi; step *= 2) {
    const std::size_t probe = std::min(lo + step, hi);
    if (!pred(probe)) {
      hi = probe - 1;
      break;
    }
    lo = probe;
  }
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (pred(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace

Mm1Solve mm1_solve_into(std::span<const double> mus, double arrival_rate,
                        std::span<double> rates_out) {
  Mm1Planes planes;
  return mm1_solve_into(mus, arrival_rate, rates_out, planes);
}

Mm1Solve mm1_solve_into(std::span<const double> mus, double arrival_rate,
                        std::span<double> rates_out, Mm1Planes& planes) {
  LBMV_REQUIRE(!mus.empty(), "need at least one computer");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  LBMV_REQUIRE(rates_out.size() == mus.size(), "rates_out size mismatch");
  double total_mu = 0.0;
  for (double mu : mus) {
    LBMV_REQUIRE(mu > 0.0, "service rates must be positive");
    total_mu += mu;
  }
  LBMV_REQUIRE(arrival_rate < total_mu,
               "arrival rate exceeds the total service capacity");
  LBMV_REQUIRE(total_mu - arrival_rate >= kMm1MinRelativeSlack * total_mu,
               "arrival rate sits within 1e-9 of the total service capacity: "
               "the M/M/1 closed form would return only cancelled digits");

  // All computers active (min a_j > c over the whole set) needs no order:
  // the common case costs one O(n) pass.
  const std::size_t n = mus.size();
  double all_a = 0.0;
  double min_a = std::numeric_limits<double>::infinity();
  for (double mu : mus) {
    const double a = std::sqrt(mu);
    all_a += a;
    min_a = std::min(min_a, a);
  }
  Mm1Solve solve;
  solve.c = prefix_c(total_mu, all_a, arrival_rate);
  if (min_a > solve.c) {
    planes.order.clear();
    for (std::size_t i = 0; i < n; ++i) {
      rates_out[i] = mus[i] - solve.c * std::sqrt(mus[i]);
      LBMV_ASSERT(rates_out[i] > 0.0 && rates_out[i] < mus[i],
                  "closed-form M/M/1 allocation left its feasible domain");
    }
    solve.active = n;
    solve.sum_sqrt_active = all_a;
    solve.optimal_latency = all_a / solve.c - static_cast<double>(n);
    return solve;
  }

  // Indices sorted by decreasing service rate (ties by index, so the order
  // is deterministic); the active set is always a prefix of this order.
  planes.order.resize(n);
  std::iota(planes.order.begin(), planes.order.end(), std::size_t{0});
  std::sort(planes.order.begin(), planes.order.end(),
            [&](std::size_t a, std::size_t b) {
              return mus[a] > mus[b] || (mus[a] == mus[b] && a < b);
            });
  planes.a.resize(n);
  planes.prefix_mu.resize(n + 1);
  planes.prefix_a.resize(n + 1);
  planes.prefix_mu[0] = 0.0;
  planes.prefix_a[0] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double mu = mus[planes.order[k]];
    planes.a[k] = std::sqrt(mu);
    planes.prefix_mu[k + 1] = planes.prefix_mu[k] + mu;
    planes.prefix_a[k + 1] = planes.prefix_a[k] + planes.a[k];
  }

  // pred(1) holds for any R > 0 (a_(1) > (mu_(1) - R)/a_(1)).
  const std::size_t active = last_true(1, n, [&](std::size_t m) {
    return planes.a[m - 1] > prefix_c(planes.prefix_mu[m],
                                      planes.prefix_a[m], arrival_rate);
  });
  const double sum_sqrt = planes.prefix_a[active];
  const double c = prefix_c(planes.prefix_mu[active], sum_sqrt, arrival_rate);
  LBMV_ASSERT(c > 0.0, "active set lost the capacity to absorb the load");

  std::fill(rates_out.begin(), rates_out.end(), 0.0);
  for (std::size_t k = 0; k < active; ++k) {
    const std::size_t i = planes.order[k];
    rates_out[i] = mus[i] - c * planes.a[k];
    LBMV_ASSERT(rates_out[i] > 0.0 && rates_out[i] < mus[i],
                "closed-form M/M/1 allocation left its feasible domain");
  }

  solve.c = c;
  solve.active = active;
  solve.sum_sqrt_active = sum_sqrt;
  // Active queue lengths collapse to x/(mu - x) = sqrt(mu)/c - 1; idle
  // computers carry no load and so no latency.
  solve.optimal_latency = sum_sqrt / c - static_cast<double>(active);
  return solve;
}

void mm1_leave_one_out_into(std::span<const double> mus, double arrival_rate,
                            const Mm1Solve& full, const Mm1Planes& planes,
                            std::span<double> out) {
  const std::size_t n = mus.size();
  LBMV_REQUIRE(n >= 2, "leave-one-out requires at least two computers");
  LBMV_REQUIRE(out.size() == n, "leave-one-out output size mismatch");
  const std::size_t active = full.active;
  LBMV_ASSERT(active == n || planes.order.size() == n,
              "leave-one-out needs the sorted prefix of the same profile");

  // Capacity guard first, in index order, so the diagnostic names the same
  // computer whichever caller reaches it.
  double sum_mu = 0.0;
  for (double mu : mus) sum_mu += mu;
  for (std::size_t i = 0; i < n; ++i) {
    const double rest_mu = sum_mu - mus[i];
    const double slack = rest_mu - arrival_rate;
    if (slack <= 0.0 || slack < kMm1MinRelativeSlack * rest_mu) {
      std::ostringstream os;
      os << "leave-one-out subsystem without computer " << i
         << " cannot absorb the arrival rate (sum of remaining service "
            "rates "
         << rest_mu << " vs arrival rate " << arrival_rate
         << "): the M/M/1 closed form is undefined there";
      throw util::PreconditionError(os.str());
    }
  }

  if (active == n) {
    // Removing a computer only raises the load on the rest, so when every
    // computer is active every rest set is all-active too: O(1) each.
    for (std::size_t i = 0; i < n; ++i) {
      const double rest_a = full.sum_sqrt_active - std::sqrt(mus[i]);
      const double c = prefix_c(sum_mu - mus[i], rest_a, arrival_rate);
      out[i] = rest_a / c - static_cast<double>(n - 1);
    }
    return;
  }
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = planes.order[p];
    if (p >= active) {
      // Idle in the full optimum: the rest set's optimum is the same one.
      out[i] = full.optimal_latency;
      continue;
    }
    // Rest order = sorted order with slot p skipped.  Its m-prefix is the
    // full m-prefix below p and the full (m+1)-prefix minus computer i from
    // p on.
    const double mu_i = mus[i];
    const double a_i = planes.a[p];
    const auto rest_sums = [&](std::size_t m) {
      return m <= p ? std::pair{planes.prefix_mu[m], planes.prefix_a[m]}
                    : std::pair{planes.prefix_mu[m + 1] - mu_i,
                                planes.prefix_a[m + 1] - a_i};
    };
    const auto rest_active = [&](std::size_t k) {
      const auto [smu, sa] = rest_sums(k);
      const double a_k = planes.a[k <= p ? k - 1 : k];
      return a_k > prefix_c(smu, sa, arrival_rate);
    };
    // Removing an active computer raises the load on the rest, so the rest
    // active set holds the other active - 1 computers and maybe more.
    const std::size_t m = last_true(std::max<std::size_t>(1, active - 1),
                                    n - 1, rest_active);
    const auto [smu, sa] = rest_sums(m);
    out[i] = sa / prefix_c(smu, sa, arrival_rate) - static_cast<double>(m);
  }
}

void throw_mm1_domain_error(std::size_t agent, double x, double mu) {
  std::ostringstream os;
  os << "M/M/1 latency requires 0 <= x < mu: computer " << agent
     << " is assigned x = " << x << " against execution service rate mu = "
     << mu;
  throw util::PreconditionError(os.str());
}

model::Allocation mm1_allocate(std::span<const double> mus,
                               double arrival_rate) {
  std::vector<double> x(mus.size(), 0.0);
  mm1_solve_into(mus, arrival_rate, x);
  return model::Allocation(std::move(x));
}

double mm1_optimal_latency(std::span<const double> mus, double arrival_rate) {
  std::vector<double> scratch(mus.size(), 0.0);
  return mm1_solve_into(mus, arrival_rate, scratch).optimal_latency;
}

namespace {

void types_to_mus(const model::LatencyFamily& family,
                  std::span<const double> types, std::vector<double>& mus) {
  LBMV_REQUIRE(dynamic_cast<const model::MM1Family*>(&family) != nullptr,
               "MM1Allocator requires the MM1 latency family");
  mus.resize(types.size());
  for (std::size_t i = 0; i < types.size(); ++i) {
    LBMV_REQUIRE(types[i] > 0.0, "types must be positive");
    mus[i] = 1.0 / types[i];
  }
}

}  // namespace

model::Allocation MM1Allocator::allocate(const model::LatencyFamily& family,
                                         std::span<const double> types,
                                         double arrival_rate) const {
  std::vector<double> mus;
  types_to_mus(family, types, mus);
  return mm1_allocate(mus, arrival_rate);
}

void MM1Allocator::allocate_into(const model::LatencyFamily& family,
                                 std::span<const double> types,
                                 double arrival_rate,
                                 std::vector<double>& rates) const {
  std::vector<double> mus;
  types_to_mus(family, types, mus);
  rates.resize(types.size());
  mm1_solve_into(mus, arrival_rate, rates);
}

double MM1Allocator::optimal_latency(const model::LatencyFamily& family,
                                     std::span<const double> types,
                                     double arrival_rate) const {
  std::vector<double> mus;
  types_to_mus(family, types, mus);
  return mm1_optimal_latency(mus, arrival_rate);
}

void MM1Allocator::leave_one_out_into(const model::LatencyFamily& family,
                                      std::span<const double> types,
                                      double arrival_rate,
                                      std::vector<double>& out) const {
  LBMV_REQUIRE(types.size() >= 2,
               "leave-one-out requires at least two computers");
  std::vector<double> mus;
  types_to_mus(family, types, mus);
  std::vector<double> rates(mus.size());
  Mm1Planes planes;
  const Mm1Solve full = mm1_solve_into(mus, arrival_rate, rates, planes);
  out.resize(mus.size());
  mm1_leave_one_out_into(mus, arrival_rate, full, planes, out);
}

}  // namespace lbmv::alloc
