#include "lbmv/model/allocation.h"

#include <cmath>

#include "lbmv/util/error.h"

namespace lbmv::model {

Allocation::Allocation(std::vector<double> rates) : rates_(std::move(rates)) {
  for (double r : rates_) {
    LBMV_REQUIRE(std::isfinite(r), "allocation rates must be finite");
  }
}

double Allocation::operator[](std::size_t i) const {
  LBMV_REQUIRE(i < rates_.size(), "allocation index out of range");
  return rates_[i];
}

double Allocation::total_rate() const {
  double s = 0.0;
  for (double r : rates_) s += r;
  return s;
}

bool Allocation::is_feasible(double arrival_rate, double tol) const {
  for (double r : rates_) {
    if (r < -tol) return false;
  }
  const double scale = std::max(1.0, std::fabs(arrival_rate));
  return std::fabs(total_rate() - arrival_rate) <= tol * scale;
}

Allocation Allocation::without(std::size_t i) const {
  LBMV_REQUIRE(i < rates_.size(), "allocation index out of range");
  std::vector<double> rest;
  rest.reserve(rates_.size() - 1);
  for (std::size_t j = 0; j < rates_.size(); ++j) {
    if (j != i) rest.push_back(rates_[j]);
  }
  return Allocation(std::move(rest));
}

double total_latency_linear(const Allocation& x, std::span<const double> t) {
  LBMV_REQUIRE(x.size() == t.size(),
               "allocation and type vector must have equal size");
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    total += t[i] * x[i] * x[i];
  }
  return total;
}

double total_latency(
    const Allocation& x,
    std::span<const std::unique_ptr<LatencyFunction>> latencies) {
  LBMV_REQUIRE(x.size() == latencies.size(),
               "allocation and latency vector must have equal size");
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0) continue;  // skip to avoid domain checks at 0 rate
    total += latencies[i]->cost(x[i]);
  }
  return total;
}

}  // namespace lbmv::model
