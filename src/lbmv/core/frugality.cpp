#include "lbmv/core/frugality.h"

#include <cmath>
#include <limits>

#include "lbmv/core/batch.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

double FrugalityReport::ratio() const {
  if (total_valuation == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return total_payment / total_valuation;
}

FrugalityReport frugality_of(const MechanismOutcome& outcome) {
  FrugalityReport report;
  report.total_payment = outcome.total_payment();
  report.total_valuation = outcome.total_valuation_magnitude();
  return report;
}

std::vector<FrugalitySweepPoint> frugality_arrival_sweep(
    const Mechanism& mechanism, const model::SystemConfig& config,
    std::span<const double> rates) {
  std::vector<FrugalitySweepPoint> points;
  points.reserve(rates.size());
  // The truthful profile depends only on the types, so it is shared by the
  // whole sweep; one hoisted workspace keeps the per-rate rounds
  // allocation-free after the first.
  RoundWorkspace ws;
  ws.scratch_profile = model::BidProfile::truthful(config);
  for (double rate : rates) {
    LBMV_REQUIRE(rate > 0.0, "swept arrival rates must be positive");
    mechanism.run_into(config.family(), rate, ws.scratch_profile,
                       ws.scratch_outcome, ws);
    points.push_back({rate, frugality_of(ws.scratch_outcome)});
  }
  return points;
}

std::vector<FrugalitySweepPoint> frugality_heterogeneity_sweep(
    const Mechanism& mechanism, std::size_t n, double arrival_rate,
    std::span<const double> spreads) {
  LBMV_REQUIRE(n >= 2, "need at least two computers");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  // Same family and arrival rate at every point, only the type vector
  // varies; one held workspace keeps the per-spread rounds allocation-free
  // after the first, as in frugality_arrival_sweep.
  const model::LinearFamily family;  // SystemConfig's default family
  RoundWorkspace ws;
  model::BidProfile& profile = ws.scratch_profile;
  profile.bids.resize(n);
  std::vector<FrugalitySweepPoint> points;
  points.reserve(spreads.size());
  for (double spread : spreads) {
    LBMV_REQUIRE(spread >= 1.0, "spread must be >= 1");
    for (std::size_t i = 0; i < n; ++i) {
      const double frac = static_cast<double>(i) / static_cast<double>(n - 1);
      profile.bids[i] = std::pow(spread, frac);  // geometric in [1, spread]
    }
    profile.executions = profile.bids;  // truthful: executions == bids
    mechanism.run_into(family, arrival_rate, profile, ws.scratch_outcome, ws);
    points.push_back({spread, frugality_of(ws.scratch_outcome)});
  }
  return points;
}

}  // namespace lbmv::core
