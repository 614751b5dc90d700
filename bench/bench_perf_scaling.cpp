// Ablation A2: computational cost of the mechanism (google-benchmark).
//
// The paper's protocol is centralised with O(n) messages; the computational
// bottleneck is the payment rule, which evaluates n leave-one-out optima
// (O(n^2) for the naive PR evaluation).  These microbenchmarks measure:
//   * the PR closed-form allocation (O(n)),
//   * the numeric convex allocator on the same instances,
//   * full compensation-and-bonus payment computation,
//   * a truthfulness audit grid, serial vs thread-pool parallel.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/dist/protocols.h"
#include "lbmv/game/wardrop.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/obs.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/sim/replication.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"

namespace {

std::vector<double> random_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return t;
}

void BM_PrAllocate(benchmark::State& state) {
  const auto types = random_types(static_cast<std::size_t>(state.range(0)),
                                  42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lbmv::alloc::pr_allocate(types, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PrAllocate)->RangeMultiplier(4)->Range(4, 65536)->Complexity();

void BM_ConvexAllocate(benchmark::State& state) {
  const auto types = random_types(static_cast<std::size_t>(state.range(0)),
                                  42);
  const lbmv::model::LinearFamily family;
  const lbmv::alloc::ConvexAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(family, types, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConvexAllocate)->RangeMultiplier(4)->Range(4, 1024)->Complexity();

void BM_LeaveOneOutBatch(benchmark::State& state) {
  // The new payment-engine hot path: all n leave-one-out optima in one call
  // (closed form R^2 / (S - 1/t_i) for the PR/linear pairing — O(n) total).
  const auto types = random_types(static_cast<std::size_t>(state.range(0)),
                                  42);
  const lbmv::model::LinearFamily family;
  const lbmv::alloc::PRAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        allocator.leave_one_out_latencies(family, types, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LeaveOneOutBatch)
    ->RangeMultiplier(4)
    ->Range(4, 65536)
    ->Complexity();

void BM_LeaveOneOutPerAgent(benchmark::State& state) {
  // The seed's formulation: one profile copy and one fresh re-solve per
  // agent — O(n^2).  Kept as the baseline the batch API is measured against.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto types = random_types(n, 42);
  const lbmv::model::LinearFamily family;
  const lbmv::alloc::PRAllocator allocator;
  for (auto _ : state) {
    std::vector<double> out(n);
    std::vector<double> rest;
    for (std::size_t i = 0; i < n; ++i) {
      rest.assign(types.begin(), types.end());
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
      out[i] = allocator.optimal_latency(family, rest, 20.0);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LeaveOneOutPerAgent)
    ->RangeMultiplier(4)
    ->Range(4, 4096)
    ->Complexity();

void BM_CompBonusRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 7), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const auto profile = lbmv::model::BidProfile::truthful(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.run(config, profile));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompBonusRound)->RangeMultiplier(4)->Range(4, 4096)->Complexity();

void BM_RunInto(benchmark::State& state) {
  // Allocation-free round kernel: same outcome as run() bit for bit, but
  // every scratch plane drawn from a caller-held workspace and the linear
  // family fused into closed forms (DESIGN.md §11).
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 7), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const auto profile = lbmv::model::BidProfile::truthful(config);
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  for (auto _ : state) {
    mechanism.run_into(config, profile, out, ws);
    benchmark::DoNotOptimize(out.actual_latency);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RunInto)->RangeMultiplier(4)->Range(4, 4096)->Complexity();

void BM_SingleRoundReference(benchmark::State& state) {
  // The reference path (Mechanism::run_reference_into, the generic
  // oracle): the same-run baseline the vectorized engine benchmarks below
  // are measured against.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::LinearFamily family;
  const auto bids = random_types(n, 7);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  for (auto _ : state) {
    mechanism.run_reference_into(family, 20.0, bids, bids, out, ws);
    benchmark::DoNotOptimize(out.actual_latency);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleRoundReference)
    ->RangeMultiplier(4)
    ->Range(1024, 1 << 20)
    ->Complexity();

void BM_SingleRoundSimd(benchmark::State& state) {
  // The vectorized engine, serial (DESIGN.md §12): two blocked SIMD passes,
  // closed-form totals, transposed publish.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::LinearFamily family;
  const auto bids = random_types(n, 7);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  const lbmv::core::RoundOptions serial{1, nullptr};
  for (auto _ : state) {
    mechanism.run_into(family, 20.0, bids, bids, out, ws, serial);
    benchmark::DoNotOptimize(out.actual_latency);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleRoundSimd)
    ->RangeMultiplier(4)
    ->Range(1024, 1 << 20)
    ->Complexity();

void BM_SingleRoundSimdSharded(benchmark::State& state) {
  // The vectorized engine with its agent axis fanned over the global pool
  // (auto shard count).  Bit-identical to the serial run by construction.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::LinearFamily family;
  const auto bids = random_types(n, 7);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  const lbmv::core::RoundOptions sharded{0, nullptr};
  for (auto _ : state) {
    mechanism.run_into(family, 20.0, bids, bids, out, ws, sharded);
    benchmark::DoNotOptimize(out.actual_latency);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SingleRoundSimdSharded)
    ->RangeMultiplier(4)
    ->Range(1024, 1 << 20)
    ->Complexity();

void BM_BatchRound(benchmark::State& state) {
  // 64 profiles per iteration, one run_into each on one held workspace.
  // items/sec = mechanism rounds.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t profiles = 64;
  const lbmv::model::SystemConfig config(random_types(n, 7), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  std::vector<lbmv::model::BidProfile> rounds(profiles);
  for (std::size_t b = 0; b < profiles; ++b) {
    rounds[b].bids = random_types(n, 100 + b);
    rounds[b].executions = rounds[b].bids;
  }
  lbmv::core::RoundWorkspace ws;
  lbmv::core::MechanismOutcome out;
  for (auto _ : state) {
    for (const auto& profile : rounds) {
      mechanism.run_into(config, profile, out, ws);
      benchmark::DoNotOptimize(out.actual_latency);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(profiles));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BatchRound)->RangeMultiplier(4)->Range(4, 4096)->Complexity();

void BM_WardropEquilibrium(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lbmv::util::Rng rng(9);
  std::vector<std::unique_ptr<lbmv::model::LatencyFunction>> links;
  for (std::size_t i = 0; i < n; ++i) {
    links.push_back(std::make_unique<lbmv::model::AffineLatency>(
        rng.uniform(0.0, 3.0), rng.uniform(0.1, 2.0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lbmv::game::wardrop_equilibrium(links, 20.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WardropEquilibrium)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity();

void BM_TreeDistributedRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 5), 20.0);
  const auto intents = lbmv::model::BidProfile::truthful(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lbmv::dist::run_distributed_round(
        lbmv::dist::Topology::kTree, config, intents));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeDistributedRound)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_AuditSerial(benchmark::State& state) {
  const lbmv::model::SystemConfig config(random_types(16, 3), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  options.parallel = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_agent(config, 0, options));
  }
}
BENCHMARK(BM_AuditSerial)->Unit(benchmark::kMillisecond);

void BM_AuditParallel(benchmark::State& state) {
  const lbmv::model::SystemConfig config(random_types(16, 3), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  options.parallel = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_agent(config, 0, options));
  }
}
BENCHMARK(BM_AuditParallel)->Unit(benchmark::kMillisecond);

void BM_AuditAll(benchmark::State& state) {
  // Full-system audit with the incremental per-audit context (O(1) per grid
  // point) and agent-level parallelism.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 3), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_all(config, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AuditAll)
    ->RangeMultiplier(4)
    ->Range(4, 1024)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_AuditAllReference(benchmark::State& state) {
  // The reference context: every grid point re-runs the full mechanism.
  const auto n = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config(random_types(n, 3), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  options.incremental = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.audit_all(config, options));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AuditAllReference)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Complexity()
    ->Unit(benchmark::kMillisecond);

void BM_DeviationGridScalar(benchmark::State& state) {
  // Scalar baseline for the contexts' lane sweeps (DESIGN.md §13):
  // 1000 candidate bids per agent scanned one ProfileUtilityContext::utility
  // call at a time.  items/sec = candidate evaluations.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t grid_points = 1000;
  const lbmv::model::SystemConfig config(random_types(n, 13), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const auto context = mechanism.make_profile_context(
      config.family(), config.arrival_rate(),
      lbmv::model::BidProfile::truthful(config));
  std::vector<std::vector<double>> grids(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = config.true_value(i);
    lbmv::strategy::make_bid_grid_into(0.05 * t, 20.0 * t, grid_points,
                                       lbmv::strategy::GridSpacing::kLinear,
                                       grids[i]);
  }
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = config.true_value(i);
      double best = -1e300;
      for (double bid : grids[i]) {
        const double u = context->utility(i, bid, t);
        if (u > best) best = u;
      }
      sink += best;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * grid_points));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeviationGridScalar)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

void BM_DeviationGridVector(benchmark::State& state) {
  // The same sweep through the context's 4-lane sweep
  // (ProfileUtilityContext::best_response).  Bit-identical argmax to
  // the scalar scan by construction.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t grid_points = 1000;
  const lbmv::model::SystemConfig config(random_types(n, 13), 20.0);
  const lbmv::core::CompBonusMechanism mechanism;
  const auto context = mechanism.make_profile_context(
      config.family(), config.arrival_rate(),
      lbmv::model::BidProfile::truthful(config));
  std::vector<std::vector<double>> grids(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = config.true_value(i);
    lbmv::strategy::make_bid_grid_into(0.05 * t, 20.0 * t, grid_points,
                                       lbmv::strategy::GridSpacing::kLinear,
                                       grids[i]);
  }
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sink +=
          context->best_response(i, grids[i], config.true_value(i)).utility;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * grid_points));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeviationGridVector)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();

// ---- Simulation throughput -------------------------------------------------

void BM_ReplicatedRound(benchmark::State& state) {
  // Parallel Monte-Carlo protocol rounds; threads swept via the range arg.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const lbmv::model::SystemConfig config({0.01, 0.02, 0.04}, 2.0);
  const lbmv::core::CompBonusMechanism mechanism;
  lbmv::sim::ProtocolOptions options;
  options.horizon = 500.0;
  const lbmv::sim::VerifiedProtocol protocol(mechanism, options);
  lbmv::util::ThreadPool pool(threads);
  lbmv::sim::ReplicationOptions replication;
  replication.replications = 8;
  replication.pool = &pool;
  const auto intents = lbmv::model::BidProfile::truthful(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        protocol.run_replicated(config, intents, replication));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(replication.replications));
}
BENCHMARK(BM_ReplicatedRound)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
