#include "lbmv/core/archer_tardos.h"

#include "lbmv/util/error.h"
#include "lbmv/util/integrate.h"

namespace lbmv::core {

double archer_tardos_tail_integral(double bid, double inverse_bid_sum_rest,
                                   double arrival_rate) {
  LBMV_REQUIRE(bid > 0.0, "bid must be positive");
  LBMV_REQUIRE(inverse_bid_sum_rest > 0.0,
               "the other agents must contribute positive capacity");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  return archer_tardos_tail(bid, inverse_bid_sum_rest,
                            arrival_rate * arrival_rate);
}

double ArcherTardosMechanism::tail_integral_numeric(
    double bid, double inverse_bid_sum_rest, double arrival_rate,
    double tol) {
  const double s = inverse_bid_sum_rest;
  const double r2 = arrival_rate * arrival_rate;
  return util::integrate_to_infinity(
      [s, r2](double u) {
        const double d = 1.0 + u * s;
        return r2 / (d * d);
      },
      bid, tol);
}

}  // namespace lbmv::core
