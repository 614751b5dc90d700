#include "lbmv/strategy/grid.h"

#include <cmath>

#include "lbmv/util/error.h"

namespace lbmv::strategy {

void make_bid_grid_into(double lo, double hi, std::size_t points,
                        GridSpacing spacing, std::vector<double>& out) {
  LBMV_REQUIRE(std::isfinite(lo) && std::isfinite(hi),
               "bid grid bounds must be finite");
  LBMV_REQUIRE(lo > 0.0, "bid grid bounds must be positive");
  LBMV_REQUIRE(lo < hi, "bid grid requires lo < hi");
  LBMV_REQUIRE(points >= 2, "bid grid requires at least two points");
  out.resize(points);
  if (spacing == GridSpacing::kLinear) {
    // Same expression as util::minimize_scan's coarse scan, so grids handed
    // to the lane sweeps land on the points the scalar scan would visit.
    const double step = (hi - lo) / static_cast<double>(points - 1);
    for (std::size_t k = 0; k < points; ++k) {
      out[k] = lo + step * static_cast<double>(k);
    }
  } else {
    const double log_lo = std::log(lo);
    const double log_hi = std::log(hi);
    for (std::size_t k = 0; k < points; ++k) {
      const double frac =
          static_cast<double>(k) / static_cast<double>(points - 1);
      out[k] = std::exp(log_lo + frac * (log_hi - log_lo));
    }
  }
}

std::vector<double> make_bid_grid(double lo, double hi, std::size_t points,
                                  GridSpacing spacing) {
  std::vector<double> out;
  make_bid_grid_into(lo, hi, points, spacing, out);
  return out;
}

}  // namespace lbmv::strategy
