#pragma once

// Shared test fixture: every shipped mechanism on every latency family it
// has a closed-form profile context for, with feasible arrival rates.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/rng.h"

namespace lbmv_test {

/// One (mechanism, family, feasible arrival rate) test case.
struct Case {
  std::string name;
  std::shared_ptr<const lbmv::core::Mechanism> mechanism;
  std::shared_ptr<const lbmv::model::LatencyFamily> family;
  double arrival_rate;
};

inline std::vector<double> band_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) ti = 0.8 + 0.5 * rng.uniform();
  return t;
}

/// Every mechanism on every family it supports.  Arrival rates keep every
/// profile this suite perturbs (bids x [0.8, 1.2], executions x [1, 1.05])
/// feasible: M/M/1 stays under half capacity, linear/workload are
/// unconstrained.
inline std::vector<Case> all_cases(std::size_t n, std::uint64_t seed) {
  using lbmv::core::CompBonusMechanism;
  using lbmv::core::CompensationBasis;
  const auto types = band_types(n, seed);
  double sum_mu = 0.0;
  for (double t : types) sum_mu += 1.0 / t;
  const double mm1_rate = 0.4 * sum_mu;
  const double linear_rate = 20.0;
  const double workload_rate = static_cast<double>(n);

  const auto linear = std::make_shared<const lbmv::model::LinearFamily>();
  const auto mm1 = std::make_shared<const lbmv::model::MM1Family>();
  const auto workload =
      std::make_shared<const lbmv::model::WorkloadFamily>(0.5);
  const auto pr = std::make_shared<const lbmv::alloc::PRAllocator>();
  const auto mm1_alloc = std::make_shared<const lbmv::alloc::MM1Allocator>();
  const auto workload_alloc =
      std::make_shared<const lbmv::alloc::WorkloadAllocator>();

  std::vector<Case> cases;
  const auto add = [&](std::string name,
                       std::shared_ptr<const lbmv::core::Mechanism> mech,
                       std::shared_ptr<const lbmv::model::LatencyFamily> fam,
                       double rate) {
    cases.push_back({std::move(name), std::move(mech), std::move(fam), rate});
  };
  add("comp_bonus_exec/linear",
      std::make_shared<const CompBonusMechanism>(pr,
                                                 CompensationBasis::kExecution),
      linear, linear_rate);
  add("comp_bonus_bid/linear",
      std::make_shared<const CompBonusMechanism>(pr, CompensationBasis::kBid),
      linear, linear_rate);
  add("vcg/linear", std::make_shared<const lbmv::core::VcgMechanism>(pr),
      linear, linear_rate);
  add("no_payment/linear",
      std::make_shared<const lbmv::core::NoPaymentMechanism>(pr), linear,
      linear_rate);
  add("archer_tardos/linear",
      std::make_shared<const lbmv::core::ArcherTardosMechanism>(), linear,
      linear_rate);
  add("comp_bonus_exec/mm1",
      std::make_shared<const CompBonusMechanism>(mm1_alloc,
                                                 CompensationBasis::kExecution),
      mm1, mm1_rate);
  add("comp_bonus_bid/mm1",
      std::make_shared<const CompBonusMechanism>(mm1_alloc,
                                                 CompensationBasis::kBid),
      mm1, mm1_rate);
  add("vcg/mm1", std::make_shared<const lbmv::core::VcgMechanism>(mm1_alloc),
      mm1, mm1_rate);
  add("no_payment/mm1",
      std::make_shared<const lbmv::core::NoPaymentMechanism>(mm1_alloc), mm1,
      mm1_rate);
  add("comp_bonus_exec/workload",
      std::make_shared<const CompBonusMechanism>(workload_alloc,
                                                 CompensationBasis::kExecution),
      workload, workload_rate);
  add("vcg/workload",
      std::make_shared<const lbmv::core::VcgMechanism>(workload_alloc),
      workload, workload_rate);
  add("no_payment/workload",
      std::make_shared<const lbmv::core::NoPaymentMechanism>(workload_alloc),
      workload, workload_rate);
  return cases;
}

}  // namespace lbmv_test
