#include "lbmv/util/roots.h"

#include <cmath>

#include "lbmv/util/error.h"

namespace lbmv::util {

RootResult bisect(const std::function<double(double)>& f, double lo, double hi,
                  double xtol, double ftol, int max_iter) {
  LBMV_REQUIRE(lo <= hi, "bisect requires lo <= hi");
  double flo = f(lo);
  double fhi = f(hi);
  RootResult r;
  if (flo == 0.0) {
    r = {lo, 0.0, 0, true};
    return r;
  }
  if (fhi == 0.0) {
    r = {hi, 0.0, 0, true};
    return r;
  }
  LBMV_REQUIRE(std::signbit(flo) != std::signbit(fhi),
               "bisect requires f(lo) and f(hi) with opposite signs");
  for (int it = 0; it < max_iter; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    r.iterations = it + 1;
    if (fmid == 0.0 || std::fabs(fmid) <= ftol || (hi - lo) <= xtol) {
      r.x = mid;
      r.fx = fmid;
      r.converged = true;
      return r;
    }
    if (std::signbit(fmid) == std::signbit(flo)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  r.x = 0.5 * (lo + hi);
  r.fx = f(r.x);
  r.converged = (hi - lo) <= xtol;
  return r;
}

MinResult golden_section_min(const std::function<double(double)>& f, double lo,
                             double hi, double xtol, int max_iter) {
  LBMV_REQUIRE(lo <= hi, "golden_section_min requires lo <= hi");
  constexpr double kInvPhi = 0.6180339887498949;   // 1/phi
  constexpr double kInvPhi2 = 0.3819660112501051;  // 1/phi^2
  double a = lo, b = hi;
  double h = b - a;
  MinResult r;
  if (h <= xtol) {
    r.x = 0.5 * (a + b);
    r.fx = f(r.x);
    r.converged = true;
    return r;
  }
  double c = a + kInvPhi2 * h;
  double d = a + kInvPhi * h;
  double fc = f(c);
  double fd = f(d);
  for (int it = 0; it < max_iter && h > xtol; ++it) {
    r.iterations = it + 1;
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      h = b - a;
      c = a + kInvPhi2 * h;
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      h = b - a;
      d = a + kInvPhi * h;
      fd = f(d);
    }
  }
  r.x = (fc < fd) ? c : d;
  r.fx = (fc < fd) ? fc : fd;
  r.converged = h <= xtol;
  return r;
}

MinResult minimize_scan(const std::function<double(double)>& f, double lo,
                        double hi, int grid, double xtol) {
  LBMV_REQUIRE(lo <= hi, "minimize_scan requires lo <= hi");
  LBMV_REQUIRE(grid >= 2, "minimize_scan requires at least two grid points");
  const double step = (hi - lo) / static_cast<double>(grid - 1);
  double best_x = lo;
  double best_f = f(lo);
  for (int i = 1; i < grid; ++i) {
    const double x = lo + step * static_cast<double>(i);
    const double fx = f(x);
    if (fx < best_f) {
      best_f = fx;
      best_x = x;
    }
  }
  const double a = std::max(lo, best_x - step);
  const double b = std::min(hi, best_x + step);
  MinResult refined = golden_section_min(f, a, b, xtol);
  if (refined.fx <= best_f) return refined;
  return {best_x, best_f, refined.iterations, true};
}

}  // namespace lbmv::util
