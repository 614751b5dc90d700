// Differential suite for the nonlinear families' leave-one-out vectors
// (alloc/mm1_allocator.h, alloc/workload_allocator.h, DESIGN.md §14).
//
// Contracts under test:
//   * M/M/1: the sorted-prefix leave-one-out matches the per-agent oracle
//     (a full active-set solve of every rest set) to 1e-12 relative, from
//     all-active profiles to 90 % idle servers, with exact ties at the
//     activity threshold and n = 2; saturated rest sets throw the typed
//     PreconditionError naming the first offending computer.
//   * Workload family: the moment expansion matches a long-double
//     bisection oracle to 1e-9 relative from n = 2 to n = 10^4; at n = 1000
//     on types in [1, 10] every agent certifies, and small n exercises the
//     exact fallback.
//   * Fused M/M/1 rounds on idle-server profiles engage and agree with the
//     generic path to 1e-9 under every vector rule.
//
// The whole file runs under the ASan/UBSan and LBMV_SIMD=OFF CI legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/family_round.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "nonlinear_oracles.h"

namespace {

using lbmv::util::PreconditionError;

double rel_err(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::fabs(b));
}

/// Log-uniform values in [lo, hi].
std::vector<double> log_uniform(std::size_t n, double lo, double hi,
                                std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = lo * std::pow(hi / lo, rng.uniform(0.0, 1.0));
  return v;
}

double sum_of(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Per-agent oracle: one full active-set solve of every rest set.
std::vector<double> mm1_oracle(std::span<const double> mus, double rate) {
  std::vector<double> out(mus.size());
  for (std::size_t i = 0; i < mus.size(); ++i) {
    std::vector<double> rest;
    for (std::size_t j = 0; j < mus.size(); ++j) {
      if (j != i) rest.push_back(mus[j]);
    }
    out[i] = lbmv::alloc::mm1_optimal_latency(rest, rate);
  }
  return out;
}

/// The production leave-one-out vector plus the full solve's idle share.
std::vector<double> mm1_loo(std::span<const double> mus, double rate,
                            double* idle_share = nullptr) {
  std::vector<double> rates(mus.size());
  lbmv::alloc::Mm1Planes planes;
  const lbmv::alloc::Mm1Solve full =
      lbmv::alloc::mm1_solve_into(mus, rate, rates, planes);
  if (idle_share != nullptr) {
    *idle_share = 1.0 - static_cast<double>(full.active) /
                            static_cast<double>(mus.size());
  }
  std::vector<double> out(mus.size());
  lbmv::alloc::mm1_leave_one_out_into(mus, rate, full, planes, out);
  return out;
}

double max_rel_err(std::span<const double> got, std::span<const double> want) {
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, rel_err(got[i], want[i]));
  }
  return err;
}

// ---------------------------------------------------------------------------
// M/M/1

TEST(Mm1LeaveOneOut, MatchesPerAgentOracleFromAllActiveToNinetyPercentIdle) {
  // Service-rate spreads from narrow (everything active) to three decades
  // (light load leaves most servers idle), loads from 2 % to 90 %.
  double min_idle = 1.0;
  double max_idle = 0.0;
  std::size_t profiles = 0;
  for (std::size_t n : {2u, 3u, 5u, 17u, 64u, 257u}) {
    for (double spread : {1.5, 10.0, 1000.0}) {
      for (double load : {0.02, 0.1, 0.3, 0.6, 0.9}) {
        const auto mus = log_uniform(n, 1.0, spread, 977 * n + 13);
        // Keep every rest set feasible: cap R below the weakest rest set.
        const double total = sum_of(mus);
        const double max_mu = *std::max_element(mus.begin(), mus.end());
        const double rate = std::min(load * total, 0.95 * (total - max_mu));
        double idle = 0.0;
        const auto got = mm1_loo(mus, rate, &idle);
        const auto want = mm1_oracle(mus, rate);
        EXPECT_LE(max_rel_err(got, want), 1e-12)
            << "n=" << n << " spread=" << spread << " load=" << load;
        min_idle = std::min(min_idle, idle);
        max_idle = std::max(max_idle, idle);
        ++profiles;
      }
    }
  }
  EXPECT_EQ(profiles, 90u);
  EXPECT_EQ(min_idle, 0.0) << "no all-active profile was covered";
  EXPECT_GE(max_idle, 0.9) << "no 90 % idle profile was covered";
}

TEST(Mm1LeaveOneOut, ExactTiesAtTheActivityThreshold) {
  // mu = {4, 4, 1, 1}: over the two fast computers c = (8 - R)/4, so
  // R = 4 puts c = 1 = sqrt(1) exactly on both slow computers' threshold.
  // Duplicated rates also tie in the sort.
  for (const std::vector<double>& mus :
       {std::vector<double>{4.0, 4.0, 1.0, 1.0},
        std::vector<double>{1.0, 4.0, 1.0, 4.0},
        std::vector<double>{4.0, 1.0, 4.0}}) {
    std::vector<double> rates(mus.size());
    const lbmv::alloc::Mm1Solve full =
        lbmv::alloc::mm1_solve_into(mus, 4.0, rates);
    EXPECT_EQ(full.c, 1.0);
    EXPECT_EQ(full.active, 2u);
    EXPECT_LE(max_rel_err(mm1_loo(mus, 4.0), mm1_oracle(mus, 4.0)), 1e-12);
  }
}

TEST(Mm1LeaveOneOut, TwoComputers) {
  for (const std::vector<double>& mus :
       {std::vector<double>{3.0, 3.0}, std::vector<double>{1.0, 50.0},
        std::vector<double>{50.0, 1.0}}) {
    // Each rest set is one computer: L_{-i} = R / (mu_j - R).
    const double rate = 0.5;
    const auto got = mm1_loo(mus, rate);
    EXPECT_LE(max_rel_err(got, mm1_oracle(mus, rate)), 1e-12);
    EXPECT_NEAR(got[0], rate / (mus[1] - rate), 1e-12);
  }
}

TEST(Mm1LeaveOneOut, SaturatedRestSetNamesTheFirstOffendingComputer) {
  // Removing computer 1 (mu = 10) or 3 (mu = 10) leaves capacity 12 < 15;
  // index order names computer 1 on every entry point.
  const std::vector<double> thetas{1.0, 0.1, 1.0, 0.1};
  const std::vector<double> mus{1.0, 10.0, 1.0, 10.0};
  const double rate = 15.0;
  const auto expect_names_1 = [](const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("without computer 1 "),
              std::string::npos)
        << e.what();
  };
  try {
    (void)mm1_loo(mus, rate);
    FAIL() << "saturated rest set did not throw";
  } catch (const PreconditionError& e) {
    expect_names_1(e);
  }
  const lbmv::model::MM1Family family;
  std::vector<double> out;
  try {
    lbmv::alloc::MM1Allocator().leave_one_out_into(family, thetas, rate, out);
    FAIL() << "saturated rest set did not throw";
  } catch (const PreconditionError& e) {
    expect_names_1(e);
  }
  // The same message through a whole round on both backends.
  const lbmv::core::CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome outcome;
  const auto saved = lbmv::core::kernel_backend();
  for (auto backend : {lbmv::core::KernelBackend::kScalar,
                       lbmv::core::KernelBackend::kVectorized}) {
    lbmv::core::set_kernel_backend(backend);
    try {
      mechanism.run_into(family, rate, thetas, thetas, outcome, ws);
      FAIL() << "saturated rest set did not throw";
    } catch (const PreconditionError& e) {
      expect_names_1(e);
    }
  }
  lbmv::core::set_kernel_backend(saved);
}

// ---------------------------------------------------------------------------
// Workload family

struct WorkloadCase {
  std::vector<double> out;
  lbmv::alloc::WorkloadLooStats stats;
};

WorkloadCase workload_loo(std::span<const double> thetas, double gamma,
                          double rate) {
  std::vector<double> rates(thetas.size());
  const lbmv::alloc::WorkloadSolve full =
      lbmv::alloc::workload_solve_into(thetas, gamma, rate, rates);
  WorkloadCase c;
  c.out.resize(thetas.size());
  std::vector<double> scratch;
  c.stats = lbmv::alloc::workload_leave_one_out_into(
      thetas, gamma, rate, full, rates, c.out, scratch);
  return c;
}

/// Agents checked against the O(n^2) oracle: all of them up to n = 100,
/// else the fastest, the slowest and a spread of indices.
std::vector<std::size_t> oracle_agents(std::span<const double> thetas) {
  const std::size_t n = thetas.size();
  std::vector<std::size_t> agents;
  if (n <= 100) {
    for (std::size_t i = 0; i < n; ++i) agents.push_back(i);
    return agents;
  }
  agents.push_back(static_cast<std::size_t>(
      std::min_element(thetas.begin(), thetas.end()) - thetas.begin()));
  agents.push_back(static_cast<std::size_t>(
      std::max_element(thetas.begin(), thetas.end()) - thetas.begin()));
  for (std::size_t k = 0; k < 4; ++k) agents.push_back(k * (n - 1) / 3);
  return agents;
}

TEST(WorkloadLeaveOneOut, MatchesLongDoubleBisectionOracle) {
  for (std::size_t n : {2u, 16u, 100u, 1000u, 10000u}) {
    for (double gamma : {0.1, 0.5, 2.0}) {
      const auto thetas = log_uniform(n, 1.0, 10.0, 31 * n + 7);
      const double rate = 2.0 * static_cast<double>(n);
      const WorkloadCase c = workload_loo(thetas, gamma, rate);
      double err = 0.0;
      for (std::size_t i : oracle_agents(thetas)) {
        const long double oracle =
            lbmv_test::workload_bisection_loo(thetas, gamma, rate, i);
        err = std::max(err, static_cast<double>(
                                std::fabs(c.out[i] - oracle) /
                                std::fmax(1.0L, std::fabs(oracle))));
      }
      EXPECT_LE(err, 1e-9) << "n=" << n << " gamma=" << gamma;
    }
  }
}

TEST(WorkloadLeaveOneOut, LargeProfilesCertifyAndSmallOnesFallBack) {
  const double gamma = 0.5;
  const auto big = log_uniform(1000, 1.0, 10.0, 4242);
  const WorkloadCase large = workload_loo(big, gamma, 2000.0);
  EXPECT_EQ(large.stats.fallbacks, 0u);
  EXPECT_EQ(large.stats.newton_iters, 0u);

  for (std::size_t n : {2u, 16u}) {
    const auto thetas = log_uniform(n, 1.0, 10.0, 17 * n);
    const double rate = 2.0 * static_cast<double>(n);
    const WorkloadCase small = workload_loo(thetas, gamma, rate);
    if (n == 2) {
      EXPECT_EQ(small.stats.fallbacks, 2u);
    }
    EXPECT_GT(small.stats.fallbacks, 0u) << "n=" << n;
    EXPECT_GT(small.stats.newton_iters, 0u) << "n=" << n;
    // Fallback or not, every entry is the exact rest-set optimum.
    for (std::size_t i = 0; i < n; ++i) {
      const long double oracle =
          lbmv_test::workload_bisection_loo(thetas, gamma, rate, i);
      EXPECT_LE(std::fabs(small.out[i] - oracle) / oracle, 1e-9)
          << "n=" << n << " agent " << i;
    }
  }
}

TEST(WorkloadLeaveOneOut, AllocatorEntryPointMatchesTheFreeFunction) {
  const auto thetas = log_uniform(64, 1.0, 10.0, 5);
  const lbmv::model::WorkloadFamily family(0.5);
  std::vector<double> out;
  lbmv::alloc::WorkloadAllocator().leave_one_out_into(family, thetas, 128.0,
                                                      out);
  EXPECT_EQ(out, workload_loo(thetas, 0.5, 128.0).out);
}

// ---------------------------------------------------------------------------
// Fused M/M/1 rounds with idle servers

TEST(FusedIdleServers, Mm1FusedRoundsEngageAndMatchGenericPath) {
  const lbmv::model::MM1Family family;
  const auto allocator = std::make_shared<const lbmv::alloc::MM1Allocator>();
  std::vector<std::unique_ptr<lbmv::core::Mechanism>> mechanisms;
  mechanisms.push_back(
      std::make_unique<lbmv::core::CompBonusMechanism>(allocator));
  mechanisms.push_back(std::make_unique<lbmv::core::CompBonusMechanism>(
      allocator, lbmv::core::CompensationBasis::kBid));
  mechanisms.push_back(std::make_unique<lbmv::core::VcgMechanism>(allocator));
  mechanisms.push_back(
      std::make_unique<lbmv::core::NoPaymentMechanism>(allocator));

  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome fused;
  lbmv::core::MechanismOutcome generic;
  const auto saved = lbmv::core::kernel_backend();
  for (std::size_t n : {2u, 5u, 64u, 257u}) {  // every lane tail
    for (double load : {0.05, 0.3}) {
      // Mean service times over a decade: at these loads the slow end of
      // the fleet sits idle.  The cap keeps every rest set feasible at n = 2.
      const auto thetas = log_uniform(n, 0.1, 1.0, 61 * n + 3);
      auto execs = thetas;
      for (double& e : execs) e *= 1.05;
      std::vector<double> mus(n);
      for (std::size_t i = 0; i < n; ++i) mus[i] = 1.0 / thetas[i];
      const double total = sum_of(mus);
      const double max_mu = *std::max_element(mus.begin(), mus.end());
      const double rate = std::min(load * total, 0.5 * (total - max_mu));
      std::vector<double> rates(n);
      const auto full = lbmv::alloc::mm1_solve_into(mus, rate, rates);
      if (n >= 64) {
        EXPECT_LT(full.active, n) << "no idle server at n=" << n;
      }

      for (const auto& mechanism : mechanisms) {
        const lbmv::core::VectorRule rule = mechanism->vector_rule();
        lbmv::core::set_kernel_backend(lbmv::core::KernelBackend::kScalar);
        mechanism->run_into(family, rate, thetas, execs, generic, ws);
        EXPECT_TRUE(lbmv::core::run_mm1_vectorized(rule, rate, thetas, execs,
                                                   fused, ws))
            << mechanism->name() << " n=" << n << " declined";
        double err = rel_err(fused.actual_latency, generic.actual_latency);
        err = std::max(err,
                       rel_err(fused.reported_latency, generic.reported_latency));
        for (std::size_t i = 0; i < n; ++i) {
          const auto& f = fused.agents[i];
          const auto& g = generic.agents[i];
          err = std::max({err, rel_err(f.allocation, g.allocation),
                          rel_err(f.compensation, g.compensation),
                          rel_err(f.bonus, g.bonus),
                          rel_err(f.payment, g.payment),
                          rel_err(f.utility, g.utility)});
          if (rates[i] == 0.0) {
            EXPECT_EQ(f.compensation, 0.0);
          }
        }
        EXPECT_LE(err, 1e-9) << mechanism->name() << " n=" << n
                             << " load=" << load;
      }
    }
  }
  lbmv::core::set_kernel_backend(saved);
}

}  // namespace
