// Differential and allocation tests for rounds on a held workspace.
//
// The contract under test (DESIGN.md §11): Mechanism::run_into on one
// RoundWorkspace carried across rounds produces the same outcomes as fresh
// Mechanism::run calls — across agent counts and the generic-family arena
// path below — and the fused linear path performs zero heap allocations per
// round once the workspace is warm.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/rng.h"

// ---------------------------------------------------------------------------
// Counting global allocator: every operator new in the process bumps the
// counter while g_counting is set.  operator new[] forwards to operator new
// by its default definition, so the scalar override observes both forms.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::RoundWorkspace;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::LinearFamily;

/// The mechanisms the paper's experiments sweep: comp-bonus at both
/// compensation bases, VCG, and the no-payment baseline.
std::vector<std::unique_ptr<Mechanism>> all_mechanisms() {
  std::vector<std::unique_ptr<Mechanism>> ms;
  ms.push_back(std::make_unique<CompBonusMechanism>());
  ms.push_back(std::make_unique<CompBonusMechanism>(
      lbmv::core::default_allocator(), CompensationBasis::kBid));
  ms.push_back(std::make_unique<VcgMechanism>());
  ms.push_back(std::make_unique<NoPaymentMechanism>());
  return ms;
}

/// Deterministic profiles over n agents.  Profile 0 is the boundary case:
/// six orders of magnitude between the fastest and slowest bid (the widest
/// spread the leave-one-out guard resolves), with one agent executing
/// slower than it bid.
std::vector<BidProfile> make_profiles(std::size_t profiles, std::size_t agents,
                                      std::uint64_t seed) {
  std::vector<BidProfile> out(profiles);
  lbmv::util::Rng rng(seed);
  for (std::size_t b = 0; b < profiles; ++b) {
    BidProfile& p = out[b];
    p.bids.resize(agents);
    p.executions.resize(agents);
    for (std::size_t i = 0; i < agents; ++i) {
      if (b == 0) {
        const double frac =
            agents == 1 ? 0.0
                        : static_cast<double>(i) /
                              static_cast<double>(agents - 1);
        p.bids[i] = std::pow(10.0, -3.0 + 6.0 * frac);
        p.executions[i] = (i == 0) ? p.bids[i] * 2.5 : p.bids[i];
      } else {
        p.bids[i] = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
        p.executions[i] = p.bids[i] * rng.uniform(1.0, 2.0);
      }
    }
  }
  return out;
}

void expect_outcomes_equal(const MechanismOutcome& held,
                           const MechanismOutcome& scalar, std::size_t b) {
  ASSERT_EQ(held.allocation.size(), scalar.allocation.size());
  ASSERT_EQ(held.agents.size(), scalar.agents.size());
  EXPECT_DOUBLE_EQ(held.actual_latency, scalar.actual_latency)
      << "profile " << b;
  EXPECT_DOUBLE_EQ(held.reported_latency, scalar.reported_latency)
      << "profile " << b;
  for (std::size_t i = 0; i < held.agents.size(); ++i) {
    EXPECT_DOUBLE_EQ(held.allocation[i], scalar.allocation[i])
        << "profile " << b << " agent " << i;
    const auto& ba = held.agents[i];
    const auto& sa = scalar.agents[i];
    EXPECT_DOUBLE_EQ(ba.compensation, sa.compensation)
        << "profile " << b << " agent " << i;
    EXPECT_DOUBLE_EQ(ba.bonus, sa.bonus) << "profile " << b << " agent " << i;
    EXPECT_DOUBLE_EQ(ba.payment, sa.payment)
        << "profile " << b << " agent " << i;
    EXPECT_DOUBLE_EQ(ba.valuation, sa.valuation)
        << "profile " << b << " agent " << i;
    EXPECT_DOUBLE_EQ(ba.utility, sa.utility)
        << "profile " << b << " agent " << i;
  }
}

// ---------------------------------------------------------------------------
// Differential: run_into on a held workspace vs scalar Mechanism::run.

TEST(BatchDifferential, RunIntoReusedAcrossSizesMatchesScalarRun) {
  // One workspace and outcome carried across rounds of *different* agent
  // counts must still agree with fresh scalar runs (planes shrink and grow).
  const LinearFamily family;
  const CompBonusMechanism mechanism;
  RoundWorkspace ws;
  MechanismOutcome out;
  for (std::size_t n : {8u, 3u, 17u, 2u}) {
    const BidProfile profile = make_profiles(2, n, 7 * n)[1];
    mechanism.run_into(family, 4.0, profile, out, ws);
    const MechanismOutcome scalar = mechanism.run(family, 4.0, profile);
    expect_outcomes_equal(out, scalar, n);
  }
}

TEST(BatchDifferential, GenericFamilyArenaPathMatchesScalarRun) {
  // M/M/1 + ConvexAllocator exercises the non-linear branch: latency
  // functions come from the workspace arenas instead of per-round vectors.
  auto mm1 = std::make_shared<lbmv::model::MM1Family>();
  const CompBonusMechanism mechanism(
      std::make_shared<lbmv::alloc::ConvexAllocator>());
  lbmv::util::Rng rng(5);
  BidProfile profile;
  profile.bids.resize(4);
  RoundWorkspace ws;
  MechanismOutcome out;
  for (std::size_t b = 0; b < 5; ++b) {
    for (double& t : profile.bids) t = rng.uniform(0.15, 0.4);
    profile.executions = profile.bids;
    mechanism.run_into(*mm1, 4.0, profile, out, ws);
    const MechanismOutcome scalar = mechanism.run(*mm1, 4.0, profile);
    expect_outcomes_equal(out, scalar, b);
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation freedom of the fused linear fast path.

TEST(ZeroAllocation, WarmLinearRoundsNeverTouchTheHeap) {
  const LinearFamily family;
  // One block, and four blocks of the fixed reduction grid with a ragged
  // final block.
  for (const std::size_t n :
       {std::size_t{64}, 3 * lbmv::core::kReductionBlock + 1234}) {
    const BidProfile profile = make_profiles(2, n, 123)[1];
    RoundWorkspace ws;
    MechanismOutcome out;
    for (const auto& mechanism : all_mechanisms()) {
      // Warm-up: size every plane in the workspace and outcome.
      mechanism->run_into(family, 9.0, profile, out, ws);
      mechanism->run_into(family, 9.0, profile, out, ws);
      g_alloc_count.store(0);
      g_counting.store(true);
      for (int round = 0; round < 100; ++round) {
        mechanism->run_into(family, 9.0, profile, out, ws);
      }
      g_counting.store(false);
      EXPECT_EQ(g_alloc_count.load(), 0u)
          << mechanism->name() << " n=" << n << ": fused rounds allocated";
    }
  }
}

TEST(ZeroAllocation, GenericArenaKeepsHighWaterAcrossShrinkAndGrow) {
  // The generic-family latency-fn arena keeps its high-water size instead of
  // resizing to exactly n every round: after a round at n = 64, rounds at
  // n = 32 must leave the 64-slot planes intact, and returning to n = 64
  // must cost exactly a steady-state round — no arena churn on either
  // transition.  Run through the reference path so the arena is actually
  // exercised.
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());

  const std::size_t big = 64;
  const std::size_t small = 32;
  std::vector<double> bids(big);
  std::vector<double> execs(big);
  lbmv::util::Rng rng(99);
  double sum_mu_small = 0.0;
  for (std::size_t i = 0; i < big; ++i) {
    bids[i] = rng.uniform(0.5, 1.0);  // mu in [1, 2]: every computer active
    execs[i] = bids[i] * 1.05;
    if (i < small) sum_mu_small += 1.0 / bids[i];
  }
  const double rate = 0.4 * sum_mu_small;  // feasible at both sizes

  RoundWorkspace ws;
  MechanismOutcome out;
  const auto count_round = [&](std::size_t n) {
    g_alloc_count.store(0);
    g_counting.store(true);
    mechanism.run_reference_into(*family, rate, std::span(bids).first(n),
                                 std::span(execs).first(n), out, ws);
    g_counting.store(false);
    return g_alloc_count.load();
  };

  count_round(big);  // warm-up: sizes every plane to the high-water mark
  const std::size_t steady_big = count_round(big);
  EXPECT_EQ(count_round(big), steady_big) << "warm rounds are not steady";

  const std::size_t first_small = count_round(small);
  const std::size_t steady_small = count_round(small);
  EXPECT_EQ(first_small, steady_small)
      << "shrinking the round allocated beyond a steady small round";
  EXPECT_EQ(ws.exec_fns.size(), big)
      << "arena shrank to the small round's size instead of keeping its "
         "high-water capacity";
  EXPECT_EQ(ws.bid_fns.size(), big);

  EXPECT_EQ(count_round(big), steady_big)
      << "growing back to the high-water size re-ran the arena setup";
}

}  // namespace
