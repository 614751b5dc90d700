#include "lbmv/alloc/pr_simd.h"

#include <algorithm>
#include <limits>

#include "lbmv/util/simd.h"

namespace lbmv::alloc::simd {

namespace v = lbmv::util::simd;
using v::DVec;

// Every kernel below walks its block in the same shape: 8-agent steps with
// two independent accumulators (hiding the 4-cycle add latency), one
// leftover full 4-vector folded into the first accumulator, the fixed
// horizontal sum, then a scalar tail in index order.  The shape IS the
// numeric contract — see the header.

ReciprocalPartial pr_reciprocal_block(std::span<const double> bids,
                                      std::span<const double> executions,
                                      std::span<double> inv_out) {
  const std::size_t n = bids.size();
  const DVec zero = v::zero();
  const DVec one = v::set1(1.0);
  const DVec inf = v::set1(std::numeric_limits<double>::infinity());
  // A lane is valid when 0 < value < inf (NaN fails both compares).
  const auto valid = [&](DVec a) {
    return v::mask_and(v::mask_greater(a, zero), v::mask_greater(inf, a));
  };
  DVec acc0 = v::zero();
  DVec acc1 = v::zero();
  DVec wacc0 = v::zero();
  DVec wacc1 = v::zero();
  DVec vmax = v::zero();
  // Validity is AND-accumulated as lane masks and tested once per block:
  // two compares per plane per step instead of a movemask + branch chain.
  DVec mask = v::mask_all();
  std::size_t i = 0;
  for (; i + 2 * v::kLanes <= n; i += 2 * v::kLanes) {
    const DVec b0 = v::load(&bids[i]);
    const DVec b1 = v::load(&bids[i + v::kLanes]);
    const DVec e0 = v::load(&executions[i]);
    const DVec e1 = v::load(&executions[i + v::kLanes]);
    mask = v::mask_and(mask, v::mask_and(v::mask_and(valid(b0), valid(b1)),
                                         v::mask_and(valid(e0), valid(e1))));
    const DVec r0 = v::div(one, b0);
    const DVec r1 = v::div(one, b1);
    v::store(&inv_out[i], r0);
    v::store(&inv_out[i + v::kLanes], r1);
    acc0 = v::add(acc0, r0);
    acc1 = v::add(acc1, r1);
    vmax = v::max(vmax, v::max(r0, r1));
    wacc0 = v::add(wacc0, v::mul(v::mul(e0, r0), r0));
    wacc1 = v::add(wacc1, v::mul(v::mul(e1, r1), r1));
  }
  if (i + v::kLanes <= n) {
    const DVec b0 = v::load(&bids[i]);
    const DVec e0 = v::load(&executions[i]);
    mask = v::mask_and(mask, v::mask_and(valid(b0), valid(e0)));
    const DVec r0 = v::div(one, b0);
    v::store(&inv_out[i], r0);
    acc0 = v::add(acc0, r0);
    vmax = v::max(vmax, r0);
    wacc0 = v::add(wacc0, v::mul(v::mul(e0, r0), r0));
    i += v::kLanes;
  }
  bool ok = v::mask_all_true(mask);
  double partial = v::hsum(v::add(acc0, acc1));
  double weight = v::hsum(v::add(wacc0, wacc1));
  double max_inverse = std::max(std::max(v::lane(vmax, 0), v::lane(vmax, 1)),
                                std::max(v::lane(vmax, 2), v::lane(vmax, 3)));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (; i < n; ++i) {
    ok = ok && bids[i] > 0.0 && bids[i] < kInf && executions[i] > 0.0 &&
         executions[i] < kInf;
    const double r = 1.0 / bids[i];
    inv_out[i] = r;
    partial += r;
    weight += (executions[i] * r) * r;
    max_inverse = std::max(max_inverse, r);
  }
  return {partial, weight, max_inverse, ok};
}

}  // namespace lbmv::alloc::simd
