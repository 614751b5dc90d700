#include "lbmv/core/simd_round.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/pr_simd.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/rule_terms.h"
#include "lbmv/model/bids.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {
namespace {

namespace v = lbmv::util::simd;
using v::DVec;

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

// ---- fused allocate + rule + publish kernel ------------------------------
//
// One pass per block turns the reciprocal plane into everything the round
// outputs: the rate x_i = inv_i * (R/S) (stored — it is the outcome's
// allocation plane), the linear family's terms in-register, and the six
// AgentOutcome fields through rule_terms.h's publish_block.  No cost or
// leave-one-out plane is ever materialized.  The one precomputed share
// replaces the reference path's per-agent division (inv/S)*R at a cost of
// <= 2 ulp on x; every other term is the reference path's operand order
// on that x (both price through rule_terms), so the leave-one-out
// R^2/(S - inv) and the Archer–Tardos tail match it bit-for-bit at equal S.
// Padded tail lanes carry inv = 0, b = e = 1, which keep every term finite.
//
// Every rest is S - inv: a round in which one agent's subtraction would
// cancel (alloc::pr_rest_cancels on P1's largest inv) is declined before
// P2, and the reference path sums that agent's rest (alloc::pr_rest_at).
// Each block reports publish_block's finite witness.  S - inv is then never
// 0 or negative, so a non-finite term means a quotient left the double
// range, and a non-finite block declines the round.

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// The round scalars every block publishes against, splatted.
struct RoundScalars {
  DVec inverse_sum;     ///< S
  DVec share;           ///< R / S
  DVec r2;              ///< R^2
  DVec actual_total;    ///< L(x, e)
  DVec reported_total;  ///< L(x, b)
};

/// One step's linear-PR terms (rule_terms.h): rate x = inv * (R/S), bid b,
/// execution e.
struct LinearTerms {
  const RoundScalars& k;
  DVec inv, b, e, x;

  DVec exec_cost() const { return (e * x) * x; }
  DVec bid_cost() const { return (b * x) * x; }
  DVec loo() const { return k.r2 / (k.inverse_sum - inv); }
  DVec actual() const { return k.actual_total; }
  DVec reported() const { return k.reported_total; }
  DVec tail_comp() const { return b * (x * x); }
  DVec tail() const {
    return archer_tardos_tail(b, k.inverse_sum - inv, k.r2);
  }
};

}  // namespace

const char* vector_backend_name() { return util::simd::backend_name(); }

bool run_linear_pr_vectorized(PaymentRule rule, double arrival_rate,
                              std::span<const double> bids,
                              std::span<const double> executions,
                              MechanismOutcome& out, RoundWorkspace& ws) {
  const std::size_t n = bids.size();
  const std::size_t nblocks = (n + kReductionBlock - 1) / kReductionBlock;

  ws.inv_bids.resize(n + kPlanePadDoubles);
  // Slide the reciprocal plane clear of 4K-alias shadows (dodge_4k_offset).
  // The rate-plane hint is last round's buffer — the recycle below reuses
  // it whenever capacity allows, and a stale hint costs only that one
  // round's placement, never correctness.
  const std::size_t inv_off = dodge_4k_offset(
      ws.inv_bids.data(), out.allocation.rates().data(), bids.data(),
      executions.data());

  // ---- P1: reciprocal plane, reductions, validation masks ----------------
  // Block partials fold into S and W in block order (the fixed reduction
  // grid, simd_round.h).
  const std::span<double> inv{ws.inv_bids.data() + inv_off, n};
  bool inputs_ok = arrival_rate > 0.0 && arrival_rate < kInf;
  double inverse_sum = 0.0;
  double exec_weight = 0.0;
  double max_inverse = 0.0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t lo = b * kReductionBlock;
    const std::size_t len = std::min(n - lo, kReductionBlock);
    const alloc::simd::ReciprocalPartial part = alloc::simd::pr_reciprocal_block(
        bids.subspan(lo, len), executions.subspan(lo, len),
        inv.subspan(lo, len));
    inputs_ok = inputs_ok && part.inputs_valid;
    inverse_sum += part.inverse_sum;
    exec_weight += part.exec_weight;
    max_inverse = std::max(max_inverse, part.max_inverse);
  }
  // The shared check names the first offender.
  if (!inputs_ok) model::require_valid_round(arrival_rate, bids, executions);

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
  // A dominant agent's rest is summed by the reference path, not here.
  if (!std::isfinite(actual_total) || !std::isfinite(reported_total) ||
      alloc::pr_rest_cancels(inverse_sum, max_inverse)) {
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
  const RoundScalars scalars{
      v::set1(inverse_sum), v::set1(share),
      v::set1(arrival_rate * arrival_rate), v::set1(actual_total),
      v::set1(reported_total)};
  bool finite = true;
  with_payment_rule(rule, [&](auto rule_tag) {
    for (std::size_t b = 0; b < nblocks; ++b) {
      // Block-local copies stay in registers across the record stores.
      const std::size_t lo = b * kReductionBlock;
      const double* const r = inv.data() + lo;
      const double* const bb = bids.data() + lo;
      const double* const e = executions.data() + lo;
      const RoundScalars k = scalars;
      const bool block_finite = publish_block(
          rule_tag, std::min(n - lo, kReductionBlock),
          [&](auto lanes) {
            const DVec vr = lanes(r, 0.0);
            return LinearTerms{k, vr, lanes(bb, 1.0), lanes(e, 1.0),
                               vr * k.share};
          },
          agents + lo, x + lo);
      finite = finite && block_finite;
    }
  });
  // Hand the plane back either way, so a declined round's reference run
  // recycles it too.
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.actual_latency = actual_total;
  out.reported_latency = reported_total;
  if (!finite) return false;
  if (reads_leave_one_out(rule) && obs::enabled()) {
    obs::MechProbes& probes = obs::MechProbes::get();
    probes.loo_batches.inc();
    probes.loo_batch_size.record(static_cast<double>(n));
  }
  return true;
}

}  // namespace lbmv::core
