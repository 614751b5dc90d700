#include "lbmv/alloc/allocator.h"

#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::alloc {

model::Allocation Allocator::allocate(const model::LatencyFamily& family,
                                      std::span<const double> types,
                                      double arrival_rate) const {
  std::vector<double> rates;
  allocate_into(family, types, arrival_rate, rates);
  return model::Allocation(std::move(rates));
}

double Allocator::optimal_latency(const model::LatencyFamily& family,
                                  std::span<const double> types,
                                  double arrival_rate) const {
  const model::Allocation x = allocate(family, types, arrival_rate);
  const auto latencies = [&] {
    std::vector<std::unique_ptr<model::LatencyFunction>> fns;
    fns.reserve(types.size());
    for (double t : types) fns.push_back(family.make(t));
    return fns;
  }();
  return model::total_latency(x, latencies);
}

std::vector<double> Allocator::leave_one_out_latencies(
    const model::LatencyFamily& family, std::span<const double> types,
    double arrival_rate) const {
  std::vector<double> out;
  leave_one_out_into(family, types, arrival_rate, out);
  return out;
}

void Allocator::leave_one_out_into(const model::LatencyFamily& family,
                                   std::span<const double> types,
                                   double arrival_rate,
                                   std::vector<double>& out) const {
  const std::size_t n = types.size();
  LBMV_REQUIRE(n >= 2, "leave-one-out requires at least two computers");
  if (obs::enabled()) {
    obs::MechProbes& probes = obs::MechProbes::get();
    probes.loo_batches.inc();
    probes.loo_batch_size.record(static_cast<double>(n));
  }
  // One scratch buffer serves every subsystem: it starts as the profile
  // with agent 0 removed, and after solving subsystem i the single write
  // scratch[i] = types[i] turns it into the profile with agent i+1 removed.
  // The element order matches BidProfile::without, so the numeric results
  // are identical to the per-agent-copy formulation.
  std::vector<double> scratch(types.begin() + 1, types.end());
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = optimal_latency(family, scratch, arrival_rate);
    if (i + 1 < n) scratch[i] = types[i];
  }
}

}  // namespace lbmv::alloc
