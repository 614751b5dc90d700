#include "lbmv/core/simd_round.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/pr_simd.h"
#include "lbmv/core/batch.h"
#include "lbmv/model/bids.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/simd.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::core {
namespace {

namespace v = lbmv::util::simd;
using v::DVec;

/// Tasks to fan the block grid into.  Never affects results (fixed grid,
/// block-order reduction) — only wall-clock.
std::size_t resolve_shards(std::size_t n, std::size_t nblocks,
                           const RoundOptions& options,
                           const util::ThreadPool& pool) {
  if (nblocks <= 1 || options.shards == 1) return 1;
  if (options.shards > 1) return std::min(options.shards, nblocks);
  if (n < kAutoShardMinAgents || pool.thread_count() <= 1) return 1;
  // One task per pool thread-quantum (4 chunks/thread, matching the pool's
  // own auto grain) keeps stragglers short without drowning in task churn.
  return std::min(nblocks, pool.thread_count() * 4);
}

/// Slack appended to the reciprocal plane so its start can slide by up to
/// one 4 KiB page (see dodge_4k_offset).
constexpr std::size_t kPlanePadDoubles = 512;

/// Start offset (in doubles, 64-byte steps) for the reciprocal plane inside
/// its padded buffer, chosen so no streaming load the kernels issue sits in
/// the 4K-alias shadow of a plane they are simultaneously storing to.
///
/// Both passes pair a load stream with a store stream at the same index:
/// P1 loads bids/executions while storing inv, P2 loads inv while storing
/// the rate plane x.  Out-of-order execution runs the loads a few hundred
/// bytes ahead of the stores, and the core flags a false dependence whenever
/// a younger load matches an in-flight older store in address bits [11:0] —
/// so if two planes' bases coincide modulo 4 KiB (common: same-sized heap
/// blocks land at the same page offset), EVERY iteration stalls.  The load
/// at q[j] conflicts with the store at p[i<=j] when (q - p) mod 4096 falls
/// in [0, window); sliding inv — the one plane the engine owns on both
/// sides — clears all three pairs at once.  Pure memory placement: the
/// kernels compute identical values at any offset.
std::size_t dodge_4k_offset(const double* plane, const double* x_hint,
                            const double* bids, const double* execs) {
  const auto page = [](const double* p) {
    return static_cast<std::uintptr_t>(reinterpret_cast<std::uintptr_t>(p) &
                                       4095u);
  };
  // Speculation depth (~store-buffer reach) plus one vector on each side.
  constexpr std::uintptr_t kWindow = 576 + 32;
  const auto clear_of = [&](const double* other, std::uintptr_t inv_page) {
    if (other == nullptr) return true;
    const std::uintptr_t d = (page(other) + 4096u - inv_page) & 4095u;
    return d > kWindow && d < 4096u - 32u;
  };
  const std::uintptr_t base = page(plane);
  for (std::size_t off = 0; off < kPlanePadDoubles; off += 8) {
    const std::uintptr_t inv_page = (base + 8 * off) & 4095u;
    if (clear_of(x_hint, inv_page) && clear_of(bids, inv_page) &&
        clear_of(execs, inv_page)) {
      return off;
    }
  }
  return 0;  // unreachable: 3 windows exclude < 64 of the 64 candidates
}

/// Run body(b) over every block, inline when serial so the fast path does
/// not touch the pool (or the heap) at all.
template <typename Body>
void for_blocks(std::size_t nblocks, std::size_t shards,
                util::ThreadPool& pool, const Body& body) {
  if (shards <= 1) {
    for (std::size_t b = 0; b < nblocks; ++b) body(b);
    return;
  }
  const std::size_t grain = (nblocks + shards - 1) / shards;
  pool.parallel_for(0, nblocks, body, grain);
}

// ---- fused allocate + rule + publish kernel ------------------------------
//
// One pass per block turns the reciprocal plane into everything the round
// outputs: the rate x_i = inv_i / S * R (stored — it is the outcome's
// allocation plane), the rule's cost and extra terms in-register, and the
// six AgentOutcome fields through the transposed store.  No cost or
// leave-one-out plane is ever materialized; per agent the pass reads
// 16–24 bytes of planes and writes its 8-byte rate plus one 48-byte record.
//
// The rate uses one precomputed reciprocal share, x = inv * (R/S), which
// replaces the reference path's per-agent division (inv/S)*R — the round's
// hottest divider work — at a cost of <= 2 ulp on x.  Every other value
// applies exactly the reference fill_payments' operand order on that x —
// ca = (e*x)*x, cr = (b*x)*x, loo = R^2/(S - inv) — so the leave-one-out /
// tail terms still match the reference path bit-for-bit at equal S, while
// x-derived values and the closed-form latency totals (see
// run_linear_pr_vectorized) sit within the DESIGN.md §12 ulp bound.  The
// final partial vector of a block runs the same body on lanes padded with
// inv = 0, b = e = 1, which pass every guard and stay finite, and stores
// only its real lanes.
//
// Validation is by mask: bit 0 of the returned status is the leave-one-out
// cancellation guard, bit 1 is "every utility finite"
// (util::simd::accumulate_finite).  A finite utility U = P + V implies a
// finite payment, valuation, rate and rule terms (an infinite term would
// make the sum infinite or NaN), so that one check covers the whole record
// — e.g. a leave-one-out optimum past DBL_MAX.  The Archer–Tardos tail needs
// no guard bit: its rest sum s = S - inv is never negative (a rounded sum
// of positives is at least each term), and s = 0 or NaN makes the tail
// non-finite.  A clear finite bit sends the round to the reference path; a
// clear guard bit on a finite round re-raises the scalar guard's diagnostic.

inline constexpr unsigned char kGuardOk = 1u;
inline constexpr unsigned char kFinite = 2u;
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// The round scalars every block publishes against.
struct RoundScalars {
  double inverse_sum;     ///< S
  double share;           ///< R / S
  double r2;              ///< R^2
  double min_gap;         ///< leave-one-out cancellation guard on S - inv
  double actual_total;    ///< L(x, e)
  double reported_total;  ///< L(x, b)
};

/// One block of the fused publish under \p kRule:
///   comp-bonus  comp = (e*x)*x or (b*x)*x, bonus = L_{-i} - L(x, e)
///   VCG         comp = (b*x)*x, bonus = L_{-i} - L(x, b),
///               payment = L_{-i} - (L(x, b) - comp)
///   A–T         comp = b*(x*x), bonus = R^2 / (s (1 + b s)), s = S - inv
///   no-payment  every transfer 0
/// All pointers are offset to the block start.
template <PaymentRule kRule>
[[nodiscard]] unsigned char publish_block(
    std::integral_constant<PaymentRule, kRule>, std::size_t n,
    const double* inv, const double* bids, const double* execs,
    const RoundScalars& k, double* x_out, AgentOutcome* agents) {
  const DVec vs = v::set1(k.inverse_sum);
  const DVec vshare = v::set1(k.share);
  const DVec vgap = v::set1(k.min_gap);
  const DVec vr2 = v::set1(k.r2);
  const DVec vact = v::set1(k.actual_total);
  const DVec vrep = v::set1(k.reported_total);
  const DVec vone = v::set1(1.0);
  // Validity is accumulated per lane and tested once per block: one or two
  // uops per check per step instead of a movemask + branch chain.
  DVec gmask = v::mask_all();
  DVec fsum = v::zero();
  v::for_each_block(n, [&](std::size_t i, std::size_t count, auto lanes) {
    const DVec r = lanes(inv, 0.0);
    const DVec b = lanes(bids, 1.0);
    const DVec x = v::mul(r, vshare);
    const DVec ca = v::mul(v::mul(lanes(execs, 1.0), x), x);
    DVec comp = v::zero();
    DVec bonus = v::zero();
    DVec pay = v::zero();
    if constexpr (kRule == PaymentRule::kArcherTardos) {
      const DVec s = v::sub(vs, r);
      bonus = v::div(vr2, v::mul(s, v::add(vone, v::mul(b, s))));
      comp = v::mul(b, v::mul(x, x));
      pay = v::add(comp, bonus);
    } else if constexpr (kRule != PaymentRule::kNoPayment) {
      const DVec denom = v::sub(vs, r);
      gmask = v::mask_and(gmask, v::mask_greater(denom, vgap));
      const DVec loo = v::div(vr2, denom);
      if constexpr (kRule == PaymentRule::kVcg) {
        comp = v::mul(v::mul(b, x), x);
        bonus = v::sub(loo, vrep);
        pay = v::sub(loo, v::sub(vrep, comp));
      } else {
        comp = kRule == PaymentRule::kCompBonusExecution
                   ? ca
                   : v::mul(v::mul(b, x), x);
        bonus = v::sub(loo, vact);
        pay = v::add(comp, bonus);
      }
    }
    const DVec val = v::neg(ca);
    const DVec util = v::add(pay, val);
    fsum = v::accumulate_finite(fsum, util);
    if (count == v::kLanes) {
      v::store(x_out + i, x);
      v::store_records6(reinterpret_cast<double*>(agents + i), x, comp,
                        bonus, pay, val, util);
    } else {
      double xs[v::kLanes];
      AgentOutcome rows[v::kLanes];
      v::store(xs, x);
      v::store_records6(reinterpret_cast<double*>(rows), x, comp, bonus, pay,
                        val, util);
      std::copy(xs, xs + count, x_out + i);
      std::copy(rows, rows + count, agents + i);
    }
  });
  return static_cast<unsigned char>(
      (v::mask_all_true(gmask) ? kGuardOk : 0u) |
      (v::hsum(fsum) == 0.0 ? kFinite : 0u));
}

}  // namespace

const char* vector_backend_name() { return util::simd::backend_name(); }

bool run_linear_pr_vectorized(PaymentRule rule, double arrival_rate,
                              std::span<const double> bids,
                              std::span<const double> executions,
                              MechanismOutcome& out, RoundWorkspace& ws,
                              const RoundOptions& options,
                              FusedRoundStats& stats) {
  const std::size_t n = bids.size();
  const std::size_t nblocks = (n + kShardBlock - 1) / kShardBlock;
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::global();
  const std::size_t shards = resolve_shards(n, nblocks, options, pool);
  stats.shards = shards;

  ws.inv_bids.resize(n + kPlanePadDoubles);
  ws.block_partials.resize(2 * nblocks);
  ws.block_ok.resize(nblocks);
  // Slide the reciprocal plane clear of 4K-alias shadows (dodge_4k_offset).
  // The rate-plane hint is last round's buffer — the recycle below reuses
  // it whenever capacity allows, and a stale hint costs only that one
  // round's placement, never correctness.
  const std::size_t inv_off = dodge_4k_offset(
      ws.inv_bids.data(), out.allocation.rates().data(), bids.data(),
      executions.data());

  // ---- P1: reciprocal plane, reductions, validation masks ----------------
  const std::span<double> inv{ws.inv_bids.data() + inv_off, n};
  for_blocks(nblocks, shards, pool, [&](std::size_t b) {
    const std::size_t lo = b * kShardBlock;
    const std::size_t len = std::min(n - lo, kShardBlock);
    const alloc::simd::ReciprocalPartial part = alloc::simd::pr_reciprocal_block(
        bids.subspan(lo, len), executions.subspan(lo, len),
        inv.subspan(lo, len));
    ws.block_partials[2 * b] = part.inverse_sum;
    ws.block_partials[2 * b + 1] = part.exec_weight;
    ws.block_ok[b] = part.inputs_valid ? 1u : 0u;
  });
  bool inputs_ok = arrival_rate > 0.0 && arrival_rate < kInf;
  for (std::size_t b = 0; b < nblocks; ++b) {
    inputs_ok = inputs_ok && ws.block_ok[b] == 1u;
  }
  // The shared check names the first offender.
  if (!inputs_ok) model::require_valid_round(arrival_rate, bids, executions);
  double inverse_sum = 0.0;
  double exec_weight = 0.0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    inverse_sum += ws.block_partials[2 * b];
    exec_weight += ws.block_partials[2 * b + 1];
  }

  // Latency totals in closed form: with x_i = inv_i/S * R the sums factor,
  //   L(x, b) = sum (b_i x_i) x_i = R^2 / S              (the PR optimum L*)
  //   L(x, e) = sum (e_i x_i) x_i = (R/S)^2 * W,   W = sum (e_i inv_i) inv_i
  // so no second reduction pass over the planes is needed.  Versus the
  // reference left folds both totals are within the DESIGN.md §12 error
  // bound — unless a factor overflows where the per-agent sum does not
  // (e.g. (R/S)^2 at huge bids), which sends the round to the reference
  // path.
  const double share = arrival_rate / inverse_sum;
  const double actual_total = (share * share) * exec_weight;
  const double reported_total = share * arrival_rate;
  if (!std::isfinite(actual_total) || !std::isfinite(reported_total)) {
    return false;
  }

  // ---- P2: fused allocation + rule terms + transposed AoS publish --------
  // Recycle the previous outcome's rate plane: after the first round at
  // this n, resize() is a no-op and the pass allocates nothing.
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  double* const x = rates.data();
  out.agents.resize(n);
  AgentOutcome* const agents = out.agents.data();
  const RoundScalars scalars{inverse_sum,
                             share,
                             arrival_rate * arrival_rate,
                             inverse_sum * alloc::kLeaveOneOutMinRelativeGap,
                             actual_total,
                             reported_total};
  with_payment_rule(rule, [&](auto rule_tag) {
    for_blocks(nblocks, shards, pool, [&](std::size_t b) {
      const std::size_t lo = b * kShardBlock;
      ws.block_ok[b] = publish_block(
          rule_tag, std::min(n - lo, kShardBlock), inv.data() + lo,
          bids.data() + lo, executions.data() + lo, scalars, x + lo,
          agents + lo);
    });
  });
  bool finite = true;
  bool guards_ok = true;
  for (std::size_t b = 0; b < nblocks; ++b) {
    finite = finite && (ws.block_ok[b] & kFinite) != 0u;
    guards_ok = guards_ok && (ws.block_ok[b] & kGuardOk) != 0u;
  }
  // Hand the plane back either way, so a declined round's reference run
  // recycles it too.
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.actual_latency = actual_total;
  out.reported_latency = reported_total;
  if (!finite) return false;
  const bool needs_loo = rule == PaymentRule::kCompBonusExecution ||
                         rule == PaymentRule::kCompBonusBid ||
                         rule == PaymentRule::kVcg;
  if (!guards_ok) {
    // Re-run the scalar guard on the same operands (this round's S) to
    // raise the canonical diagnostic naming the first offending agent.
    ws.leave_one_out.resize(n);
    alloc::pr_leave_one_out_from_sum(inverse_sum, bids, arrival_rate,
                                     ws.leave_one_out);
    return false;  // unreachable: the scalar guard applies the same test
  }
  if (needs_loo && obs::enabled()) {
    obs::MechProbes& probes = obs::MechProbes::get();
    probes.loo_batches.inc();
    probes.loo_batch_size.record(static_cast<double>(n));
  }
  return true;
}

}  // namespace lbmv::core
