#pragma once

/// \file roots.h
/// One-dimensional root finding and scalar minimisation.
///
/// The allocation solvers (lbmv/alloc) equalise marginal costs by searching
/// for a Lagrange multiplier; the strategy layer (lbmv/strategy) maximises
/// agent utility over a bid interval.  Both reduce to the routines here.

#include <functional>

namespace lbmv::util {

/// Result of a root search.
struct RootResult {
  double x = 0.0;          ///< location of the root
  double fx = 0.0;         ///< residual f(x)
  int iterations = 0;      ///< iterations consumed
  bool converged = false;  ///< whether the tolerance was met
};

/// Find x in [lo, hi] with f(x) = 0 by bisection.
///
/// Requires f(lo) and f(hi) to bracket the root (opposite signs, or one of
/// them already zero).  Converges to |hi-lo| <= xtol or |f| <= ftol.
[[nodiscard]] RootResult bisect(const std::function<double(double)>& f,
                                double lo, double hi, double xtol = 1e-12,
                                double ftol = 0.0, int max_iter = 200);

/// Result of a scalar minimisation.
struct MinResult {
  double x = 0.0;          ///< location of the minimum
  double fx = 0.0;         ///< value at the minimum
  int iterations = 0;
  bool converged = false;
};

/// Golden-section search for the minimum of a unimodal f on [lo, hi].
///
/// For non-unimodal f this converges to *a* local minimum inside the
/// interval; callers that need the global optimum should seed with a coarse
/// scan (see minimize_scan).
[[nodiscard]] MinResult golden_section_min(
    const std::function<double(double)>& f, double lo, double hi,
    double xtol = 1e-10, int max_iter = 400);

/// Global-ish scalar minimisation: coarse grid scan with \p grid points
/// followed by golden-section refinement around the best cell.
[[nodiscard]] MinResult minimize_scan(const std::function<double(double)>& f,
                                      double lo, double hi, int grid = 64,
                                      double xtol = 1e-10);

}  // namespace lbmv::util
