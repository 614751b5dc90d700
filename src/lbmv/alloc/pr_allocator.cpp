#include "lbmv/alloc/pr_allocator.h"

#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::alloc {
namespace {

double inverse_sum(std::span<const double> types) {
  double s = 0.0;
  for (double t : types) {
    LBMV_REQUIRE(t > 0.0, "PR algorithm requires positive types");
    s += 1.0 / t;
  }
  return s;
}

}  // namespace

PrSolve pr_allocate_into(std::span<const double> types, double arrival_rate,
                         std::span<double> rates_out) {
  LBMV_REQUIRE(!types.empty(), "PR algorithm requires at least one computer");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  LBMV_REQUIRE(rates_out.size() == types.size(),
               "rates_out must have one slot per computer");
  const double s = inverse_sum(types);
  for (std::size_t i = 0; i < types.size(); ++i) {
    rates_out[i] = pr_rate_at(types[i], s, arrival_rate);
  }
  return PrSolve{s, arrival_rate * arrival_rate / s};
}

model::Allocation pr_allocate(std::span<const double> types,
                              double arrival_rate) {
  std::vector<double> x(types.size());
  (void)pr_allocate_into(types, arrival_rate, x);
  return model::Allocation(std::move(x));
}

double pr_optimal_latency(std::span<const double> types, double arrival_rate) {
  LBMV_REQUIRE(!types.empty(), "PR algorithm requires at least one computer");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  return arrival_rate * arrival_rate / inverse_sum(types);
}

double pr_rest_at(double inverse_sum, std::span<const double> types,
                  std::size_t agent) {
  const double inverse = 1.0 / types[agent];
  if (!pr_rest_cancels(inverse_sum, inverse)) return inverse_sum - inverse;
  double rest = 0.0;
  for (std::size_t j = 0; j < types.size(); ++j) {
    if (j != agent) rest += 1.0 / types[j];
  }
  return rest;
}

void pr_leave_one_out_from_sum(double inverse_bid_sum,
                               std::span<const double> types,
                               double arrival_rate, std::span<double> out) {
  LBMV_REQUIRE(types.size() >= 2,
               "leave-one-out requires at least two computers");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  LBMV_REQUIRE(out.size() == types.size(),
               "out must have one slot per computer");
  for (std::size_t i = 0; i < types.size(); ++i) {
    out[i] = pr_leave_one_out_at(pr_rest_at(inverse_bid_sum, types, i),
                                 arrival_rate, i, types.size());
  }
}

void pr_leave_one_out_into(std::span<const double> types, double arrival_rate,
                           std::span<double> out) {
  LBMV_REQUIRE(types.size() >= 2,
               "leave-one-out requires at least two computers");
  if (obs::enabled()) {
    obs::MechProbes& probes = obs::MechProbes::get();
    probes.loo_batches.inc();
    probes.loo_batch_size.record(static_cast<double>(types.size()));
  }
  pr_leave_one_out_from_sum(inverse_sum(types), types, arrival_rate, out);
}

std::vector<double> pr_leave_one_out_latencies(std::span<const double> types,
                                               double arrival_rate) {
  std::vector<double> out(types.size());
  pr_leave_one_out_into(types, arrival_rate, out);
  return out;
}

void PRAllocator::allocate_into(const model::LatencyFamily&,
                                std::span<const double> types,
                                double arrival_rate,
                                std::vector<double>& rates) const {
  rates.resize(types.size());
  (void)pr_allocate_into(types, arrival_rate, rates);
}

double PRAllocator::optimal_latency(const model::LatencyFamily& family,
                                    std::span<const double> types,
                                    double arrival_rate) const {
  // Only the linear family admits the closed form; elsewhere evaluate the
  // proportional split against the family's actual latency curves.
  if (dynamic_cast<const model::LinearFamily*>(&family) != nullptr) {
    return pr_optimal_latency(types, arrival_rate);
  }
  return Allocator::optimal_latency(family, types, arrival_rate);
}

void PRAllocator::leave_one_out_into(const model::LatencyFamily& family,
                                     std::span<const double> types,
                                     double arrival_rate,
                                     std::vector<double>& out) const {
  if (dynamic_cast<const model::LinearFamily*>(&family) != nullptr) {
    out.resize(types.size());
    pr_leave_one_out_into(types, arrival_rate, out);
    return;
  }
  Allocator::leave_one_out_into(family, types, arrival_rate, out);
}

}  // namespace lbmv::alloc
