// Records the repo's performance trajectory: times the payment-engine and
// audit hot paths at n = 64 / 256 / 1024 and writes BENCH_perf.json.  Run
// from the repo root after a perf-relevant change and commit the file so
// regressions (or wins) are visible in history:
//
//     ./build/tools/lbmv_bench_perf [output.json]
//
// Measured series:
//   * pr_allocate              closed-form PR allocation            O(n)
//   * leave_one_out_batch      batch L_{-i} engine (closed form)    O(n)
//   * leave_one_out_per_agent  seed formulation: re-solve per agent O(n^2)
//   * comp_bonus_round         full mechanism round                 O(n)
//   * audit_all                incremental audit, parallel agents
//   * audit_all_reference      the reference context: one full mechanism
//                              run per grid point (n = 64 only)
//
// plus a `sim_throughput` section timing replicated protocol rounds/sec at
// 1/4/8 pool threads (each round runs the per-server recursion of
// sim/lindley.h),
//
// plus a `strategy_throughput` section for the single-deviation game
// engine: one best-response round through the O(1) closed-form profile
// context vs the reference context (re-run the mechanism per deviation)
// measured in this same run (the closed-form round as the median of 11
// independent timing windows),
// tournament instance and learning replication rates at 1 and 8 pool
// threads, and a differential cross-check (incremental vs naive utilities
// across all four mechanisms including boundary bids) whose failure makes
// the runner exit non-zero.
//
// plus a `batch_round_throughput` section for the allocation-free batched
// round kernels (DESIGN.md §11): rounds/sec through the preserved seed
// formulation (fresh allocations every round), the current scalar run()
// loop, a run_into loop on one held workspace (serial) and a parallel_for
// over run_into with thread-local workspaces (parallel), with a
// differential cross-check against the seed formulation that also gates
// the exit code.
//
// plus a `deviation_grid` section for the profile contexts' lane sweeps
// (DESIGN.md §13): full candidate-bid sweeps (grid = 1000 bids per agent
// over [0.05 t, 20 t]) through the scalar per-point
// ProfileUtilityContext::utility loop and the 4-lane
// ProfileUtilityContext::best_response — both in this same run — with a
// 1e-9 vectorized-vs-scalar differential gate on the exit code.
//
// plus an `obs_timeseries` section for the live-telemetry pipeline
// (DESIGN.md §9): the single-round hot path timed with recording disabled
// vs enabled (probes + invariant monitors live), the time-series sampler's
// per-scrape cost, and a zero-violations monitor gate on the exit code
// that dumps the flight recorder as JSONL when it fails,
//
// plus a `nonlinear_round` section for the fused nonlinear-family round
// kernels (DESIGN.md §14): one M/M/1 round and one workload-family round
// at n = 256 / 1024 / 10000 through the generic virtual-dispatch arena
// (Mechanism::run_reference_into, the oracle) and the fused engines
// (run_into) on the same mechanisms in this same run, with a fused-vs-generic outcome
// differential and a Newton-vs-long-double-bisection check on the workload
// KKT multiplier, both gating the exit code at 1e-9.
//
// plus a `nonlinear_loo` section for the nonlinear families' leave-one-out
// vectors (DESIGN.md §14): M/M/1 at n = 1000 with idle servers and the
// workload family at n = 10^4, each against a same-run baseline of n
// per-agent exact solves that also serves as the differential oracle
// gating the exit code.
//
// The emitted document carries a top-level `sections` manifest listing
// every section key actually written, so consumers (the CI perf-smoke
// check) can assert the documented shape matches the real one instead of
// trusting prose notes that drift.  Run configuration (arrival rate, smoke
// mode) is nested under a `config` object, never as stray top-level keys.
//
// `--smoke` shrinks every workload (CI-sized: n = 64, short timing
// windows, sim section skipped) while still emitting the
// strategy_throughput, batch_round_throughput, deviation_grid,
// obs_timeseries, nonlinear_round, and nonlinear_loo sections
// (deviation_grid keeping its n = 256 row, nonlinear_round its n = 1024
// rows and nonlinear_loo its full sizes, so the speedup gates stay
// meaningful) and running the full cross-checks.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/flight_recorder.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/obs/obs.h"
#include "lbmv/obs/sampler.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/sim/replication.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/core/vcg.h"
#include "lbmv/strategy/best_response.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/strategy/learning.h"
#include "lbmv/strategy/strategy.h"
#include "lbmv/strategy/tournament.h"
#include "lbmv/util/simd.h"
#include "lbmv/util/json.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"

namespace {

using lbmv::util::JsonValue;

std::vector<double> random_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return t;
}

/// Mean service times in a narrow band (mu = 1/theta in [1, 2]): at
/// R = half the total capacity every computer stays active in the full set
/// and in all n leave-one-out subsystems, so the generic/fused comparison
/// times all-active rounds (idle-server fleets are nonlinear_loo's).
std::vector<double> narrow_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = rng.uniform(0.5, 1.0);
  }
  return t;
}

/// Long-double bisection oracle for the workload-family KKT solve: brackets
/// the conservation residual g(lambda) = sum_i x_i(lambda) - R from the
/// guaranteed-below start 2R/S, bisects to long-double convergence, and
/// returns the max relative error of the Newton rates against the oracle
/// rates x_i(lambda*).
double workload_bisection_max_rel_err(std::span<const double> thetas,
                                      double gamma, double arrival_rate,
                                      std::span<const double> newton_rates) {
  const long double g3 = 3.0L * static_cast<long double>(gamma);
  const auto rate_at = [&](long double lambda, double theta) {
    return (std::sqrt(1.0L + g3 * lambda / static_cast<long double>(theta)) -
            1.0L) /
           g3;
  };
  const auto residual = [&](long double lambda) {
    long double sum = 0.0L;
    for (double theta : thetas) sum += rate_at(lambda, theta);
    return sum - static_cast<long double>(arrival_rate);
  };
  long double inv_sum = 0.0L;
  for (double theta : thetas) inv_sum += 1.0L / theta;
  // x_i(lambda) <= lambda / (2 theta_i), so g(2R/S) <= 0: a valid lower
  // bracket (the same start the Newton solver uses).
  long double lo = 2.0L * static_cast<long double>(arrival_rate) / inv_sum;
  long double hi = lo > 0.0L ? 2.0L * lo : 1.0L;
  while (residual(hi) <= 0.0L) hi *= 2.0L;
  for (int it = 0; it < 200; ++it) {
    const long double mid = 0.5L * (lo + hi);
    if (residual(mid) <= 0.0L) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const long double lambda = 0.5L * (lo + hi);
  double max_err = 0.0;
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const long double oracle = rate_at(lambda, thetas[i]);
    const double err = static_cast<double>(
        std::fabs(static_cast<long double>(newton_rates[i]) - oracle) /
        std::fmax(1.0L, std::fabs(oracle)));
    max_err = std::max(max_err, err);
  }
  return max_err;
}

/// Seconds per call: warm up once, then repeat until the total exceeds
/// min_seconds (and at least min_reps calls) so fast paths are not measured
/// off a single clock tick.
template <typename F>
double seconds_per_call(F&& f, double min_seconds = 0.2, int min_reps = 5) {
  using clock = std::chrono::steady_clock;
  f();  // warm-up
  int reps = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds || reps < min_reps) {
    f();
    ++reps;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
    if (reps >= 1000000) break;
  }
  return elapsed / reps;
}

struct Result {
  std::string name;
  std::size_t n;
  double seconds;
};

// ---- batch round workloads -------------------------------------------------

/// Faithful reproduction of the seed comp-bonus round (the pre-batch-kernel
/// Mechanism::run and the comp-bonus payment pass it called): a fresh
/// allocation, three freshly heap-allocated vectors of per-agent latency
/// functions plus one make() per agent for the compensation basis, and a
/// fresh leave-one-out vector — every call.  Kept here, like the audit reference
/// baseline, so batch_round_throughput measures its speedup in the same
/// run and cross-checks the kernels against the original formulation.
lbmv::core::MechanismOutcome seed_comp_bonus_round(
    const lbmv::model::LatencyFamily& family,
    const lbmv::alloc::Allocator& allocator, double arrival_rate,
    const lbmv::model::BidProfile& profile) {
  lbmv::core::MechanismOutcome outcome;
  outcome.allocation = allocator.allocate(family, profile.bids, arrival_rate);
  const auto make_fns = [&](const std::vector<double>& thetas) {
    std::vector<std::unique_ptr<lbmv::model::LatencyFunction>> fns;
    fns.reserve(thetas.size());
    for (double theta : thetas) fns.push_back(family.make(theta));
    return fns;
  };
  const auto exec_fns = make_fns(profile.executions);
  const auto bid_fns = make_fns(profile.bids);
  outcome.actual_latency =
      lbmv::model::total_latency(outcome.allocation, exec_fns);
  outcome.reported_latency =
      lbmv::model::total_latency(outcome.allocation, bid_fns);
  // The seed's payment pass rebuilt the execution latencies for its own
  // actual-latency term; reproduce that extra pass too.
  const auto payment_exec_fns = make_fns(profile.executions);
  const double actual =
      lbmv::model::total_latency(outcome.allocation, payment_exec_fns);
  const std::vector<double> latency_without =
      allocator.leave_one_out_latencies(family, profile.bids, arrival_rate);
  outcome.agents.resize(profile.size());
  for (std::size_t i = 0; i < profile.size(); ++i) {
    auto& agent = outcome.agents[i];
    agent.allocation = outcome.allocation[i];
    const double cost = (agent.allocation == 0.0)
                            ? 0.0
                            : exec_fns[i]->cost(agent.allocation);
    agent.valuation = -cost;
    agent.compensation =
        (agent.allocation == 0.0)
            ? 0.0
            : family.make(profile.executions[i])->cost(agent.allocation);
    agent.bonus = latency_without[i] - actual;
    agent.payment = agent.compensation + agent.bonus;
    agent.utility = agent.payment + agent.valuation;
  }
  return outcome;
}

/// Relative difference between two outcomes across every per-agent field.
double outcome_max_rel_err(const lbmv::core::MechanismOutcome& a,
                           const lbmv::core::MechanismOutcome& b) {
  const auto rel = [](double x, double y) {
    return std::fabs(x - y) / std::max(1.0, std::fabs(y));
  };
  double err = rel(a.actual_latency, b.actual_latency);
  err = std::max(err, rel(a.reported_latency, b.reported_latency));
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    err = std::max(err, rel(a.allocation[i], b.allocation[i]));
    err = std::max(err, rel(a.agents[i].compensation, b.agents[i].compensation));
    err = std::max(err, rel(a.agents[i].bonus, b.agents[i].bonus));
    err = std::max(err, rel(a.agents[i].payment, b.agents[i].payment));
    err = std::max(err, rel(a.agents[i].utility, b.agents[i].utility));
  }
  return err;
}

/// Replicated protocol rounds per second on a pool of `threads` workers.
double replications_per_sec(std::size_t threads) {
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
  const double seconds = seconds_per_call(
      [&] { (void)protocol.run_replicated(config, intents, replication); },
      0.5, 3);
  return static_cast<double>(replication.replications) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string output = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      output = arg;
    }
  }
  const double arrival_rate = 20.0;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{64, 256, 1024};

  const lbmv::model::LinearFamily family;
  const lbmv::alloc::PRAllocator allocator;
  std::vector<Result> results;
  double audit_incremental_64 = 0.0;
  double audit_reference_64 = 0.0;

  for (std::size_t n : sizes) {
    const auto types = random_types(n, 42);
    const lbmv::model::SystemConfig config(types, arrival_rate);
    const lbmv::core::CompBonusMechanism mechanism;
    const auto profile = lbmv::model::BidProfile::truthful(config);

    results.push_back({"pr_allocate", n, seconds_per_call([&] {
                         (void)lbmv::alloc::pr_allocate(types, arrival_rate);
                       })});

    results.push_back(
        {"leave_one_out_batch", n, seconds_per_call([&] {
           (void)allocator.leave_one_out_latencies(family, types,
                                                   arrival_rate);
         })});

    results.push_back(
        {"leave_one_out_per_agent", n, seconds_per_call([&] {
           std::vector<double> out(n);
           std::vector<double> rest;
           for (std::size_t i = 0; i < n; ++i) {
             rest.assign(types.begin(), types.end());
             rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
             out[i] = allocator.optimal_latency(family, rest, arrival_rate);
           }
         })});

    results.push_back({"comp_bonus_round", n, seconds_per_call([&] {
                         (void)mechanism.run(config, profile);
                       })});

    const lbmv::core::TruthfulnessAuditor auditor(mechanism);
    lbmv::core::AuditOptions incremental;
    const double audit_seconds = seconds_per_call(
        [&] { (void)auditor.audit_all(config, incremental); }, 0.5, 3);
    results.push_back({"audit_all", n, audit_seconds});

    if (n == 64) {
      audit_incremental_64 = audit_seconds;
      lbmv::core::AuditOptions reference;
      reference.incremental = false;
      audit_reference_64 = seconds_per_call(
          [&] { (void)auditor.audit_all(config, reference); }, 0.5, 3);
      results.push_back({"audit_all_reference", n, audit_reference_64});
    }
  }

  JsonValue::Array series;
  for (const auto& r : results) {
    JsonValue::Object entry;
    entry["name"] = r.name;
    entry["n"] = static_cast<double>(r.n);
    entry["seconds_per_call"] = r.seconds;
    series.emplace_back(std::move(entry));
    std::cout << r.name << " n=" << r.n << ": " << r.seconds * 1e6
              << " us/call\n";
  }

  JsonValue::Object derived;
  if (audit_incremental_64 > 0.0 && audit_reference_64 > 0.0) {
    derived["audit_all_speedup_n64"] =
        audit_reference_64 / audit_incremental_64;
    std::cout << "audit_all speedup at n=64: "
              << audit_reference_64 / audit_incremental_64 << "x\n";
  }

  // Simulation throughput: replicated protocol rounds on 1/4/8 threads.
  JsonValue::Object sim_throughput;
  if (!smoke) {
    JsonValue::Array reps;
    for (std::size_t threads : {1ul, 4ul, 8ul}) {
      const double rate = replications_per_sec(threads);
      JsonValue::Object entry;
      entry["threads"] = static_cast<double>(threads);
      entry["replications_per_sec"] = rate;
      std::cout << "replications threads=" << threads << ": " << rate
                << " reps/s\n";
      reps.emplace_back(std::move(entry));
    }
    sim_throughput["replicated_rounds"] = std::move(reps);
    sim_throughput["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    sim_throughput["threads_used"] = 8.0;  // widest replication pool above
    sim_throughput["note"] =
        "replication scaling is bounded by hardware_concurrency";
  }

  // Single-deviation game engine: one best-response round through the O(1)
  // profile context against the naive re-run baseline in this same run,
  // thread scaling for tournaments/learning, and a differential cross-check
  // that gates the exit code.
  JsonValue::Object strategy_throughput;
  bool cross_check_pass = true;
  {
    const double tmin = smoke ? 0.05 : 0.5;
    const int treps = smoke ? 2 : 3;

    const std::size_t n = smoke ? 64 : 256;
    const int grid = 100;
    const lbmv::model::SystemConfig config(random_types(n, 7), arrival_rate);
    const lbmv::core::CompBonusMechanism mechanism;
    const auto round_seconds = [&](bool incremental) {
      lbmv::strategy::BestResponseOptions opts;
      opts.max_rounds = 1;
      opts.bid_grid = grid;
      opts.use_incremental = incremental;
      const auto one_round = [&] {
        (void)lbmv::strategy::best_response_dynamics(mechanism, config, opts);
      };
      // The naive round re-runs the whole mechanism per grid point, so a
      // single timed repetition is already seconds-scale at n = 256.
      if (!incremental) return seconds_per_call(one_round, 0.0, 1);
      // The incremental round takes well under a millisecond, and one
      // window's mean swings by tens of percent between windows; the
      // median of independent windows resolves a few percent.
      constexpr std::size_t kWindows = 11;
      std::vector<double> windows(kWindows);
      for (double& w : windows) w = seconds_per_call(one_round, tmin, treps);
      std::nth_element(windows.begin(), windows.begin() + kWindows / 2,
                       windows.end());
      return windows[kWindows / 2];
    };
    const double incremental_round = round_seconds(true);
    const double naive_round = round_seconds(false);
    JsonValue::Object round;
    round["n"] = static_cast<double>(n);
    round["bid_grid"] = static_cast<double>(grid);
    round["incremental_seconds"] = incremental_round;
    round["naive_seconds"] = naive_round;
    round["speedup"] = naive_round / incremental_round;
    strategy_throughput["best_response_round"] = std::move(round);
    std::cout << "best_response_round n=" << n << " grid=" << grid
              << ": incremental " << incremental_round * 1e3
              << " ms, naive " << naive_round * 1e3 << " ms ("
              << naive_round / incremental_round << "x)\n";

    const lbmv::strategy::TruthfulStrategy truthful;
    const lbmv::strategy::ScalingStrategy low2(0.5, 2.0);
    const lbmv::strategy::RandomBidStrategy noisy(0.5, 3.0);
    const std::vector<const lbmv::strategy::Strategy*> strategies{
        &truthful, &low2, &noisy};
    lbmv::strategy::TournamentOptions topts;
    topts.instances = smoke ? 64 : 256;
    topts.agents = 16;
    JsonValue::Array tournament_rates;
    for (std::size_t threads : {1ul, 8ul}) {
      lbmv::util::ThreadPool pool(threads);
      topts.pool = &pool;
      const double secs = seconds_per_call(
          [&] { (void)lbmv::strategy::run_tournament(mechanism, strategies,
                                                     topts); },
          tmin, treps);
      JsonValue::Object entry;
      entry["threads"] = static_cast<double>(threads);
      entry["instances_per_sec"] =
          static_cast<double>(topts.instances) / secs;
      std::cout << "tournament threads=" << threads << ": "
                << static_cast<double>(topts.instances) / secs
                << " instances/s\n";
      tournament_rates.emplace_back(std::move(entry));
    }
    strategy_throughput["tournament"] = std::move(tournament_rates);

    const lbmv::model::SystemConfig learn_config(random_types(16, 9),
                                                 arrival_rate);
    lbmv::strategy::LearningOptions lopts;
    lopts.rounds = smoke ? 60 : 200;
    const std::size_t learn_reps = 8;
    JsonValue::Array learning_rates;
    for (std::size_t threads : {1ul, 8ul}) {
      lbmv::util::ThreadPool pool(threads);
      const double secs = seconds_per_call(
          [&] {
            (void)lbmv::strategy::run_learning_replicated(
                mechanism, learn_config, lopts, learn_reps, &pool);
          },
          tmin, treps);
      JsonValue::Object entry;
      entry["threads"] = static_cast<double>(threads);
      entry["replications_per_sec"] =
          static_cast<double>(learn_reps) / secs;
      std::cout << "learning threads=" << threads << ": "
                << static_cast<double>(learn_reps) / secs << " reps/s\n";
      learning_rates.emplace_back(std::move(entry));
    }
    strategy_throughput["learning"] = std::move(learning_rates);

    // Differential cross-check: the closed-form utilities must match the
    // naive re-run path across every mechanism, at interior and boundary
    // bids.  A mismatch fails the run (non-zero exit).
    double max_err = 0.0;
    const std::size_t cn = 12;
    const lbmv::model::SystemConfig check_config(random_types(cn, 21),
                                                 arrival_rate);
    std::vector<std::unique_ptr<lbmv::core::Mechanism>> mechanisms;
    mechanisms.push_back(std::make_unique<lbmv::core::CompBonusMechanism>());
    mechanisms.push_back(std::make_unique<lbmv::core::CompBonusMechanism>(
        lbmv::core::default_allocator(),
        lbmv::core::CompensationBasis::kBid));
    mechanisms.push_back(std::make_unique<lbmv::core::VcgMechanism>());
    mechanisms.push_back(std::make_unique<lbmv::core::NoPaymentMechanism>());
    for (const auto& m : mechanisms) {
      const lbmv::model::BidProfile base =
          lbmv::model::BidProfile::truthful(check_config);
      const auto fast = m->make_profile_context(
          check_config.family(), check_config.arrival_rate(), base);
      const auto naive = m->make_reference_context(
          check_config.family(), check_config.arrival_rate(), base);
      if (!fast->closed_form()) {
        cross_check_pass = false;
        std::cerr << "cross-check: " << m->name()
                  << " has no incremental path\n";
        continue;
      }
      for (std::size_t i = 0; i < cn; ++i) {
        const double t = check_config.true_value(i);
        for (double bid_mult : {0.05, 0.7, 1.0, 3.0, 20.0}) {
          for (double exec_mult : {1.0, 2.0}) {
            const double a = fast->utility(i, bid_mult * t, exec_mult * t);
            const double b = naive->utility(i, bid_mult * t, exec_mult * t);
            const double err =
                std::fabs(a - b) / std::max(1.0, std::fabs(b));
            max_err = std::max(max_err, err);
          }
        }
      }
    }
    if (max_err >= 1e-9) cross_check_pass = false;
    strategy_throughput["utilities_cross_check_max_abs_err"] = max_err;
    strategy_throughput["cross_check_pass"] = cross_check_pass;
    strategy_throughput["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    strategy_throughput["threads_used"] =
        8.0;  // widest tournament/learning pool above
    strategy_throughput["note"] =
        "naive_seconds re-runs the full mechanism per grid point "
        "(use_incremental = false) in the same process as the incremental "
        "timing, which now rides the 4-lane deviation-grid kernels (the "
        "deviation_grid section isolates that lane-level win against the "
        "scalar per-point closed form); tournament/learning thread scaling "
        "is bounded by hardware_concurrency (1 on the recording container)";
    std::cout << "utilities cross-check: max rel err " << max_err << " -> "
              << (cross_check_pass ? "pass" : "FAIL") << "\n";
  }

  // Batched round kernels (DESIGN.md §11): rounds/sec through the seed
  // formulation (fresh allocation, per-agent heap-allocated latency
  // functions and a fresh leave-one-out vector each round — reproduced
  // above as seed_comp_bonus_round), the current scalar run() loop, a
  // run_into loop on one held workspace and a parallel_for over run_into
  // with thread-local workspaces over the same profiles, plus a
  // differential cross-check of the fused kernels against the seed
  // formulation that gates the exit code.
  JsonValue::Object batch_round_throughput;
  bool batch_check_pass = true;
  {
    const std::size_t profiles = smoke ? 64 : 256;
    const lbmv::core::CompBonusMechanism mechanism;
    const double tmin = smoke ? 0.05 : 0.3;
    const int treps = smoke ? 2 : 3;
    JsonValue::Array batch_series;
    double max_err = 0.0;
    double best_speedup_n256 = 0.0;
    for (std::size_t n : sizes) {
      std::vector<lbmv::model::BidProfile> rounds(profiles);
      for (std::size_t b = 0; b < profiles; ++b) {
        rounds[b].bids = random_types(n, 1000 + b);
        rounds[b].executions = rounds[b].bids;
        for (double& e : rounds[b].executions) e *= 1.25;
      }

      const double seed_secs = seconds_per_call(
          [&] {
            for (const auto& p : rounds) {
              (void)seed_comp_bonus_round(family, allocator, arrival_rate, p);
            }
          },
          tmin, treps);
      const double run_secs = seconds_per_call(
          [&] {
            for (const auto& p : rounds) {
              (void)mechanism.run(family, arrival_rate, p);
            }
          },
          tmin, treps);
      std::vector<lbmv::core::MechanismOutcome> outcomes(profiles);
      lbmv::core::RoundWorkspace ws;
      const double serial_secs = seconds_per_call(
          [&] {
            for (std::size_t b = 0; b < profiles; ++b) {
              mechanism.run_into(family, arrival_rate, rounds[b], outcomes[b],
                                 ws);
            }
          },
          tmin, treps);
      const auto run_parallel = [&] {
        lbmv::util::ThreadPool::global().parallel_for(
            0, profiles, [&](std::size_t b) {
              mechanism.run_into(
                  family, arrival_rate, rounds[b], outcomes[b],
                  lbmv::core::RoundWorkspace::thread_local_instance());
            });
      };
      const double parallel_secs = seconds_per_call(run_parallel, tmin, treps);

      // Differential cross-check: the fused kernels are bit-exact against
      // the seed formulation on the linear family by construction; the
      // gate leaves roundoff headroom for other platforms.
      run_parallel();
      for (std::size_t b = 0; b < profiles; ++b) {
        const auto reference = seed_comp_bonus_round(family, allocator,
                                                     arrival_rate, rounds[b]);
        max_err = std::max(max_err,
                           outcome_max_rel_err(outcomes[b], reference));
      }

      const double count = static_cast<double>(profiles);
      const double serial_speedup = seed_secs / serial_secs;
      const double parallel_speedup = seed_secs / parallel_secs;
      JsonValue::Object entry;
      entry["n"] = static_cast<double>(n);
      entry["profiles"] = count;
      entry["seed_rounds_per_sec"] = count / seed_secs;
      entry["run_rounds_per_sec"] = count / run_secs;
      entry["batch_serial_rounds_per_sec"] = count / serial_secs;
      entry["batch_parallel_rounds_per_sec"] = count / parallel_secs;
      entry["serial_speedup_vs_seed"] = serial_speedup;
      entry["parallel_speedup_vs_seed"] = parallel_speedup;
      batch_series.emplace_back(std::move(entry));
      if (n == 256) {
        best_speedup_n256 = std::max(serial_speedup, parallel_speedup);
      }
      std::cout << "batch_round n=" << n << ": seed " << count / seed_secs
                << " rounds/s, run() " << count / run_secs
                << ", batch serial " << count / serial_secs << " ("
                << serial_speedup << "x), batch parallel "
                << count / parallel_secs << " (" << parallel_speedup
                << "x)\n";
    }
    // Single-round series (DESIGN.md §12): ONE round at large n through the
    // reference path (Mechanism::run_reference_into, the generic oracle),
    // the vectorized engine serial, and the vectorized engine with the
    // agent axis auto-sharded over the global pool — all in this same
    // process, with a differential cross-check between the two engines
    // that shares the exit-code gate.
    JsonValue::Array single_series;
    double single_max_err = 0.0;
    double simd_speedup_n1024 = 0.0;
    const std::vector<std::size_t> single_sizes =
        smoke ? std::vector<std::size_t>{1024, 10'000}
              : std::vector<std::size_t>{1024, 10'000, 100'000, 1'000'000};
    for (std::size_t n : single_sizes) {
      const auto bids = random_types(n, 77);
      auto execs = bids;
      for (double& e : execs) e *= 1.25;
      lbmv::core::RoundWorkspace ws;
      lbmv::core::MechanismOutcome reference_outcome;
      lbmv::core::MechanismOutcome simd_outcome;
      constexpr lbmv::core::RoundOptions serial_round{/*shards=*/1,
                                                      /*pool=*/nullptr};
      constexpr lbmv::core::RoundOptions auto_round{};

      const double reference_secs = seconds_per_call(
          [&] {
            mechanism.run_reference_into(family, arrival_rate, bids, execs,
                                         reference_outcome, ws);
          },
          tmin, treps);
      const double simd_secs = seconds_per_call(
          [&] {
            mechanism.run_into(family, arrival_rate, bids, execs,
                               simd_outcome, ws, serial_round);
          },
          tmin, treps);
      single_max_err = std::max(
          single_max_err,
          outcome_max_rel_err(simd_outcome, reference_outcome));
      const double sharded_secs = seconds_per_call(
          [&] {
            mechanism.run_into(family, arrival_rate, bids, execs,
                               simd_outcome, ws, auto_round);
          },
          tmin, treps);

      JsonValue::Object entry;
      entry["n"] = static_cast<double>(n);
      entry["reference_serial_rounds_per_sec"] = 1.0 / reference_secs;
      entry["simd_serial_rounds_per_sec"] = 1.0 / simd_secs;
      entry["simd_sharded_rounds_per_sec"] = 1.0 / sharded_secs;
      entry["simd_serial_speedup_vs_reference"] = reference_secs / simd_secs;
      entry["sharded_speedup_vs_reference"] = reference_secs / sharded_secs;
      single_series.emplace_back(std::move(entry));
      if (n == 1024) simd_speedup_n1024 = reference_secs / simd_secs;
      std::cout << "single_round n=" << n << ": reference "
                << 1.0 / reference_secs << " rounds/s, simd serial "
                << 1.0 / simd_secs << " (" << reference_secs / simd_secs
                << "x), simd sharded " << 1.0 / sharded_secs << " ("
                << reference_secs / sharded_secs << "x)\n";
    }

    if (max_err >= 1e-9) batch_check_pass = false;
    if (single_max_err >= 1e-9) batch_check_pass = false;
    batch_round_throughput["series"] = std::move(batch_series);
    batch_round_throughput["single_round"] = std::move(single_series);
    batch_round_throughput["differential_max_rel_err"] = max_err;
    batch_round_throughput["simd_differential_max_rel_err"] = single_max_err;
    batch_round_throughput["vector_backend"] =
        std::string(lbmv::core::vector_backend_name());
    batch_round_throughput["cross_check_pass"] = batch_check_pass;
    if (best_speedup_n256 > 0.0) {
      batch_round_throughput["best_speedup_n256"] = best_speedup_n256;
      derived["batch_round_speedup_n256"] = best_speedup_n256;
    }
    if (simd_speedup_n1024 > 0.0) {
      derived["simd_round_speedup_n1024"] = simd_speedup_n1024;
    }
    batch_round_throughput["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    batch_round_throughput["threads_used"] = static_cast<double>(
        lbmv::util::ThreadPool::global().thread_count());
    batch_round_throughput["note"] =
        "seed_rounds_per_sec re-runs the original per-round formulation "
        "(fresh allocation, per-agent heap-allocated latency functions, "
        "fresh leave-one-out vector) in this same process; run() now rides "
        "the fused kernel with a thread-local workspace, so its rate "
        "tracks batch_serial; single_round compares the reference path "
        "against the vectorized engine (vector_backend) serial and "
        "auto-sharded on the global pool; parallel scaling is bounded by "
        "threads_used (the global pool) and hardware_concurrency";
    std::cout << "batch kernels cross-check: max rel err " << max_err
              << ", simd " << single_max_err << " -> "
              << (batch_check_pass ? "pass" : "FAIL") << "\n";
  }

  // Deviation-grid sweeps (DESIGN.md §13): sweep grid = 1000 candidate
  // bids per agent (linear over [0.05 t_i, 20 t_i]) for every agent, through
  // two paths in this same process: the scalar per-point
  // ProfileUtilityContext::utility scan (the pre-kernel formulation, kept
  // as the oracle) and the context's 4-lane sweep.  Both produce
  // bit-identical argmaxes by construction; the differential check below
  // compares the vectorized utilities against the scalar oracle point by
  // point and gates the exit code at 1e-9.
  JsonValue::Object deviation_grid;
  bool grid_check_pass = true;
  {
    const std::size_t grid_points = 1000;
    const double tmin = smoke ? 0.05 : 0.3;
    const int treps = smoke ? 2 : 3;
    // Smoke keeps the n = 256 row: the CI perf-smoke check asserts the
    // >= 3x serial speedup there, so the gated configuration must exist in
    // the smoke document too (the sweep is milliseconds-scale).
    const std::vector<std::size_t> grid_sizes =
        smoke ? std::vector<std::size_t>{64, 256}
              : std::vector<std::size_t>{64, 256, 1024};
    JsonValue::Array grid_series;
    double max_err = 0.0;
    double serial_speedup_n256 = 0.0;
    const lbmv::core::CompBonusMechanism mechanism;
    for (std::size_t n : grid_sizes) {
      const lbmv::model::SystemConfig config(random_types(n, 13),
                                             arrival_rate);
      const auto context = mechanism.make_profile_context(
          config.family(), config.arrival_rate(),
          lbmv::model::BidProfile::truthful(config));
      // Per-agent candidate grids, built once outside the timed regions so
      // both paths sweep the identical candidates.
      std::vector<std::vector<double>> grids(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = config.true_value(i);
        lbmv::strategy::make_bid_grid_into(
            0.05 * t, 20.0 * t, grid_points,
            lbmv::strategy::GridSpacing::kLinear, grids[i]);
      }
      double sink = 0.0;  // consumed below so the sweeps cannot be elided
      const double scalar_secs = seconds_per_call(
          [&] {
            for (std::size_t i = 0; i < n; ++i) {
              const double t = config.true_value(i);
              double best = -std::numeric_limits<double>::infinity();
              for (double bid : grids[i]) {
                const double u = context->utility(i, bid, t);
                if (u > best) best = u;
              }
              sink += best;
            }
          },
          tmin, treps);
      const double serial_secs = seconds_per_call(
          [&] {
            for (std::size_t i = 0; i < n; ++i) {
              sink += context
                          ->best_response(i, grids[i], config.true_value(i))
                          .utility;
            }
          },
          tmin, treps);

      // Differential cross-check: vectorized utilities vs the scalar
      // oracle, every agent, every candidate.
      std::vector<double> utilities(grid_points);
      for (std::size_t i = 0; i < n; ++i) {
        const double t = config.true_value(i);
        context->utilities_into(i, grids[i], t, utilities);
        for (std::size_t j = 0; j < grid_points; ++j) {
          const double reference = context->utility(i, grids[i][j], t);
          const double err = std::fabs(utilities[j] - reference) /
                             std::max(1.0, std::fabs(reference));
          max_err = std::max(max_err, err);
        }
      }

      const double evals = static_cast<double>(n * grid_points);
      const double serial_speedup = scalar_secs / serial_secs;
      if (n == 256) serial_speedup_n256 = serial_speedup;
      JsonValue::Object entry;
      entry["n"] = static_cast<double>(n);
      entry["grid_points"] = static_cast<double>(grid_points);
      entry["scalar_evals_per_sec"] = evals / scalar_secs;
      entry["vector_serial_evals_per_sec"] = evals / serial_secs;
      entry["serial_speedup_vs_scalar"] = serial_speedup;
      grid_series.emplace_back(std::move(entry));
      std::cout << "deviation_grid n=" << n << " grid=" << grid_points
                << ": scalar " << evals / scalar_secs / 1e6
                << "M evals/s, vector serial " << evals / serial_secs / 1e6
                << "M (" << serial_speedup << "x)\n";
      if (sink == 0.0) std::cout << "";  // keep `sink` observable
    }
    if (max_err >= 1e-9) grid_check_pass = false;
    if (serial_speedup_n256 > 0.0) {
      deviation_grid["serial_speedup_n256"] = serial_speedup_n256;
      derived["deviation_grid_speedup_n256"] = serial_speedup_n256;
    }
    deviation_grid["series"] = std::move(grid_series);
    deviation_grid["differential_max_rel_err"] = max_err;
    deviation_grid["cross_check_pass"] = grid_check_pass;
    deviation_grid["vector_backend"] =
        std::string(lbmv::util::simd::backend_name());
    deviation_grid["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    deviation_grid["note"] =
        "scalar_evals_per_sec scans the same per-agent candidate grids "
        "through ProfileUtilityContext::utility one point at a time in this "
        "same process (the differential oracle); vector_serial rides the "
        "4-lane grid kernels (vector_backend); both paths return "
        "bit-identical argmaxes";
    std::cout << "deviation grid cross-check: max rel err " << max_err
              << " -> " << (grid_check_pass ? "pass" : "FAIL") << "\n";
  }

  // Live-telemetry pipeline (DESIGN.md §9): runtime cost of the invariant
  // monitors on the single-round hot path (recording disabled vs enabled in
  // this same process), the time-series sampler's per-scrape cost, and a
  // zero-violations gate over every monitored round in the timed windows.
  // A gate failure dumps the flight recorder next to the document so the
  // offending rounds are attributable.
  JsonValue::Object obs_timeseries;
  bool obs_check_pass = true;
  {
    const std::size_t n = smoke ? 64 : 256;
    const double tmin = smoke ? 0.05 : 0.3;
    const int treps = smoke ? 2 : 3;
    const lbmv::core::CompBonusMechanism mechanism;
    const auto bids = random_types(n, 31);
    const auto execs = bids;  // consistent: arms the participation monitor
    lbmv::core::RoundWorkspace ws;
    lbmv::core::MechanismOutcome outcome;
    constexpr lbmv::core::RoundOptions serial_round{/*shards=*/1,
                                                    /*pool=*/nullptr};
    const auto one_round = [&] {
      mechanism.run_into(family, arrival_rate, bids, execs, outcome, ws,
                         serial_round);
    };

    lbmv::obs::Registry::global().reset();
    lbmv::obs::FlightRecorder::global().clear();
    lbmv::obs::set_enabled(false);
    const double disabled_secs = seconds_per_call(one_round, tmin, treps);
    lbmv::obs::set_enabled(true);
    const double enabled_secs = seconds_per_call(one_round, tmin, treps);

    // Sampler cost: one scrape of the registry the run above populated
    // (shard merge + ring append per live metric).
    lbmv::obs::TimeSeriesSampler sampler;
    const double sample_secs =
        seconds_per_call([&] { sampler.sample(); }, tmin, treps);
    lbmv::obs::set_enabled(false);

    const lbmv::obs::MetricsSnapshot snap =
        lbmv::obs::Registry::global().snapshot();
    const lbmv::obs::MonitorTotals totals = lbmv::obs::monitor_totals(snap);
    if (lbmv::obs::kCompiledIn &&
        (totals.checks == 0 || totals.violations != 0)) {
      obs_check_pass = false;
      const std::string dump = "BENCH_flight_fail.jsonl";
      (void)lbmv::obs::FlightRecorder::global().dump_jsonl(dump);
      std::cerr << "obs monitors: " << totals.violations << " violations in "
                << totals.checks << " checks -> " << dump << "\n";
    }
    lbmv::obs::Registry::global().reset();
    lbmv::obs::FlightRecorder::global().clear();

    obs_timeseries["n"] = static_cast<double>(n);
    obs_timeseries["disabled_rounds_per_sec"] = 1.0 / disabled_secs;
    obs_timeseries["enabled_rounds_per_sec"] = 1.0 / enabled_secs;
    obs_timeseries["enabled_over_disabled_cost"] =
        enabled_secs / disabled_secs;
    obs_timeseries["sampler_seconds_per_sample"] = sample_secs;
    obs_timeseries["sampled_series"] =
        static_cast<double>(sampler.series().size());
    obs_timeseries["monitor_checks"] = static_cast<double>(totals.checks);
    obs_timeseries["monitor_violations"] =
        static_cast<double>(totals.violations);
    obs_timeseries["compiled_in"] = lbmv::obs::kCompiledIn;
    obs_timeseries["cross_check_pass"] = obs_check_pass;
    obs_timeseries["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    obs_timeseries["threads_used"] = 1.0;  // serial single-round hot path
    obs_timeseries["note"] =
        "disabled/enabled time the identical single-round hot path with "
        "recording off (one relaxed load per probe and monitor site) and on "
        "(probes + the four round-invariant monitors live), so their ratio "
        "is the runtime telemetry cost; sampler_seconds_per_sample is one "
        "registry scrape into the ring-buffered timeseries; the gate "
        "requires every monitored round in the timed windows to be "
        "violation-free";
    std::cout << "obs_timeseries n=" << n << ": disabled "
              << 1.0 / disabled_secs << " rounds/s, enabled "
              << 1.0 / enabled_secs << " (cost "
              << (enabled_secs / disabled_secs - 1.0) * 100.0
              << "%), sampler " << sample_secs * 1e6 << " us/sample, "
              << totals.checks << " checks / " << totals.violations
              << " violations -> " << (obs_check_pass ? "pass" : "FAIL")
              << "\n";
  }

  // Fused nonlinear-family rounds (DESIGN.md §14): one full mechanism round
  // on the M/M/1 and workload-dependent-rate families through the generic
  // virtual-dispatch arena (run_reference_into — the oracle, fresh
  // active-set machinery and per-agent virtual latency calls) and the fused
  // engines (run_into — closed form / damped-free Newton on workspace
  // planes), same mechanisms, same profiles, same process.  Differential
  // gates on the exit code: fused vs generic outcomes at 1e-9 for both
  // families, and the workload Newton rates against a long-double bisection
  // oracle on the KKT multiplier at 1e-9.
  JsonValue::Object nonlinear_round;
  bool nonlinear_check_pass = true;
  {
    const double tmin = smoke ? 0.05 : 0.3;
    const int treps = smoke ? 2 : 3;
    // Smoke keeps the n = 1024 row: the CI perf-smoke check asserts the
    // >= 3x fused speedup there, so the gated configuration must exist in
    // the smoke document too.
    const std::vector<std::size_t> nl_sizes =
        smoke ? std::vector<std::size_t>{256, 1024}
              : std::vector<std::size_t>{256, 1024, 10'000};
    const lbmv::model::MM1Family mm1_family;
    const double gamma = 0.5;
    const lbmv::model::WorkloadFamily workload_family(gamma);
    const lbmv::core::CompBonusMechanism mm1_mechanism(
        std::make_shared<const lbmv::alloc::MM1Allocator>());
    const lbmv::core::CompBonusMechanism workload_mechanism(
        std::make_shared<const lbmv::alloc::WorkloadAllocator>());
    constexpr lbmv::core::RoundOptions serial_round{/*shards=*/1,
                                                    /*pool=*/nullptr};
    JsonValue::Array nl_series;
    double mm1_max_err = 0.0;
    double workload_max_err = 0.0;
    double bisect_max_err = 0.0;
    double mm1_speedup_n1024 = 0.0;
    std::uint64_t fused_rounds_probed = 0;
    std::uint64_t newton_iters_probed = 0;
    for (std::size_t n : nl_sizes) {
      const auto thetas = narrow_types(n, 57);
      auto execs = thetas;
      for (double& e : execs) e *= 1.05;  // keeps x_i < mu~_i (stable queues)
      double sum_mu = 0.0;
      for (double theta : thetas) sum_mu += 1.0 / theta;
      const double mm1_rate = 0.5 * sum_mu;  // half capacity: all active

      lbmv::core::RoundWorkspace ws;
      lbmv::core::MechanismOutcome generic_outcome;
      lbmv::core::MechanismOutcome fused_outcome;

      const double mm1_generic_secs = seconds_per_call(
          [&] {
            mm1_mechanism.run_reference_into(mm1_family, mm1_rate, thetas,
                                             execs, generic_outcome, ws);
          },
          tmin, treps);
      const double mm1_fused_secs = seconds_per_call(
          [&] {
            mm1_mechanism.run_into(mm1_family, mm1_rate, thetas, execs,
                                   fused_outcome, ws, serial_round);
          },
          tmin, treps);
      mm1_max_err = std::max(
          mm1_max_err, outcome_max_rel_err(fused_outcome, generic_outcome));

      const double workload_rate = static_cast<double>(n);
      const double workload_generic_secs = seconds_per_call(
          [&] {
            workload_mechanism.run_reference_into(workload_family,
                                                  workload_rate, thetas,
                                                  execs, generic_outcome, ws);
          },
          tmin, treps);
      const double workload_fused_secs = seconds_per_call(
          [&] {
            workload_mechanism.run_into(workload_family, workload_rate,
                                        thetas, execs, fused_outcome, ws,
                                        serial_round);
          },
          tmin, treps);
      workload_max_err = std::max(
          workload_max_err,
          outcome_max_rel_err(fused_outcome, generic_outcome));

      // Probe-verified engagement, outside the timed regions: with
      // recording on, one fused round per family must bump
      // lbmv_mech_nonlinear_rounds_total (a silent fall-through to the
      // generic path would make the fused timings above a lie).
      lbmv::obs::Registry::global().reset();
      lbmv::obs::set_enabled(true);
      mm1_mechanism.run_into(mm1_family, mm1_rate, thetas, execs,
                             fused_outcome, ws, serial_round);
      workload_mechanism.run_into(workload_family, workload_rate, thetas,
                                  execs, fused_outcome, ws, serial_round);
      lbmv::obs::set_enabled(false);
      {
        const lbmv::obs::MetricsSnapshot snap =
            lbmv::obs::Registry::global().snapshot();
        const auto counter = [&](const char* name) -> std::uint64_t {
          const auto it = snap.counters.find(name);
          return it == snap.counters.end() ? 0 : it->second;
        };
        fused_rounds_probed = counter("lbmv_mech_nonlinear_rounds_total");
        newton_iters_probed = counter("lbmv_mech_newton_iters_total");
        if (lbmv::obs::kCompiledIn && fused_rounds_probed != 2) {
          nonlinear_check_pass = false;
          std::cerr << "nonlinear rounds fell through to the generic path "
                       "(probed "
                    << fused_rounds_probed << " fused rounds, expected 2)\n";
        }
        lbmv::obs::Registry::global().reset();
      }

      // Newton vs long-double bisection on the workload KKT system.
      std::vector<double> newton_rates(n);
      const lbmv::alloc::WorkloadSolve solve = lbmv::alloc::workload_solve_into(
          thetas, gamma, workload_rate, newton_rates);
      bisect_max_err = std::max(
          bisect_max_err, workload_bisection_max_rel_err(
                              thetas, gamma, workload_rate, newton_rates));

      const double mm1_speedup = mm1_generic_secs / mm1_fused_secs;
      const double workload_speedup =
          workload_generic_secs / workload_fused_secs;
      if (n == 1024) mm1_speedup_n1024 = mm1_speedup;
      JsonValue::Object entry;
      entry["n"] = static_cast<double>(n);
      entry["mm1_generic_rounds_per_sec"] = 1.0 / mm1_generic_secs;
      entry["mm1_fused_rounds_per_sec"] = 1.0 / mm1_fused_secs;
      entry["mm1_fused_speedup"] = mm1_speedup;
      entry["workload_generic_rounds_per_sec"] = 1.0 / workload_generic_secs;
      entry["workload_fused_rounds_per_sec"] = 1.0 / workload_fused_secs;
      entry["workload_fused_speedup"] = workload_speedup;
      entry["workload_newton_iters"] = static_cast<double>(solve.iterations);
      nl_series.emplace_back(std::move(entry));
      std::cout << "nonlinear_round n=" << n << ": mm1 generic "
                << 1.0 / mm1_generic_secs << " rounds/s, fused "
                << 1.0 / mm1_fused_secs << " (" << mm1_speedup
                << "x); workload generic " << 1.0 / workload_generic_secs
                << " rounds/s, fused " << 1.0 / workload_fused_secs << " ("
                << workload_speedup << "x, " << solve.iterations
                << " Newton iters)\n";
    }

    if (mm1_max_err >= 1e-9) nonlinear_check_pass = false;
    if (workload_max_err >= 1e-9) nonlinear_check_pass = false;
    if (bisect_max_err >= 1e-9) nonlinear_check_pass = false;
    if (mm1_speedup_n1024 > 0.0) {
      derived["nonlinear_round_speedup_n1024"] = mm1_speedup_n1024;
    }
    nonlinear_round["series"] = std::move(nl_series);
    nonlinear_round["mm1_differential_max_rel_err"] = mm1_max_err;
    nonlinear_round["workload_differential_max_rel_err"] = workload_max_err;
    nonlinear_round["newton_vs_bisection_max_rel_err"] = bisect_max_err;
    nonlinear_round["fused_rounds_probed"] =
        static_cast<double>(fused_rounds_probed);
    nonlinear_round["newton_iters_probed"] =
        static_cast<double>(newton_iters_probed);
    nonlinear_round["cross_check_pass"] = nonlinear_check_pass;
    nonlinear_round["vector_backend"] =
        std::string(lbmv::core::vector_backend_name());
    nonlinear_round["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    nonlinear_round["threads_used"] = 1.0;  // both engines run agent-serial
    nonlinear_round["note"] =
        "generic rows run the virtual-dispatch arena path (kScalar backend) "
        "on the same MM1Allocator/WorkloadAllocator mechanisms as the fused "
        "rows (kVectorized), so the ratio isolates the §14 fused engines; "
        "the narrow service-rate band keeps every computer active, so these "
        "rows time all-active rounds (idle-server rounds run the same fused "
        "engine; nonlinear_loo times their leave-one-out vector); "
        "newton_vs_bisection re-solves the workload KKT system with a "
        "long-double bisection oracle; probe fields are from one recorded "
        "fused round per family (outside the timed regions) at the largest "
        "n, asserting the fused engines actually engaged";
    std::cout << "nonlinear cross-check: mm1 max rel err " << mm1_max_err
              << ", workload " << workload_max_err << ", bisection "
              << bisect_max_err << " -> "
              << (nonlinear_check_pass ? "pass" : "FAIL") << "\n";
  }

  // Nonlinear leave-one-out vectors (DESIGN.md §14): the sorted-prefix
  // M/M/1 pass and the workload moment expansion, each including the full
  // solve it starts from, against a same-run baseline of n per-agent exact
  // solves — mm1_optimal_latency on every rest set, and workload_solve_into
  // on every rest set warm-started at the full-set multiplier.  The
  // baseline values double as the differential oracle, whose max relative
  // error gates the exit code (1e-12 M/M/1, 1e-9 workload).
  JsonValue::Object nonlinear_loo;
  bool loo_check_pass = true;
  {
    const double tmin = smoke ? 0.05 : 0.3;
    const int treps = smoke ? 2 : 3;
    const auto rest_of = [](std::span<const double> v, std::size_t i,
                            std::vector<double>& rest) {
      rest.assign(v.begin(), v.end());
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
    };
    const auto max_rel_err = [](std::span<const double> got,
                                std::span<const double> want) {
      double err = 0.0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        err = std::max(err, std::fabs(got[i] - want[i]) /
                                std::max(1.0, std::fabs(want[i])));
      }
      return err;
    };

    // M/M/1: n = 1000 mean service times log-uniform over [0.1, 1] at 0.3
    // load, the e2e `nonlinear` fleet, where about a third sit idle.
    const std::size_t mm1_n = 1000;
    std::vector<double> mus(mm1_n);
    {
      lbmv::util::Rng rng(71);
      for (double& mu : mus) {
        mu = 1.0 / std::exp(rng.uniform(std::log(0.1), std::log(1.0)));
      }
    }
    double mus_total = 0.0;
    for (double mu : mus) mus_total += mu;
    const double mm1_rate = 0.3 * mus_total;
    std::vector<double> mm1_baseline(mm1_n);
    std::vector<double> rest;
    const double mm1_baseline_secs = seconds_per_call(
        [&] {
          for (std::size_t i = 0; i < mm1_n; ++i) {
            rest_of(mus, i, rest);
            mm1_baseline[i] = lbmv::alloc::mm1_optimal_latency(rest, mm1_rate);
          }
        },
        tmin, treps);
    std::vector<double> mm1_rates(mm1_n);
    std::vector<double> mm1_loo(mm1_n);
    lbmv::alloc::Mm1Planes planes;
    std::size_t mm1_active = 0;
    const double mm1_loo_secs = seconds_per_call(
        [&] {
          const lbmv::alloc::Mm1Solve full =
              lbmv::alloc::mm1_solve_into(mus, mm1_rate, mm1_rates, planes);
          lbmv::alloc::mm1_leave_one_out_into(mus, mm1_rate, full, planes,
                                              mm1_loo);
          mm1_active = full.active;
        },
        tmin, treps);
    const double mm1_err = max_rel_err(mm1_loo, mm1_baseline);
    const double mm1_speedup = mm1_baseline_secs / mm1_loo_secs;
    if (!(mm1_err <= 1e-12)) loo_check_pass = false;

    // Workload family: n = 10^4 types log-uniform over [1, 10], gamma = 0.5,
    // R = 2n.  The baseline costs ~n^2 Newton sweeps, so it is timed once.
    const std::size_t wl_n = 10'000;
    const double gamma = 0.5;
    std::vector<double> thetas(wl_n);
    {
      lbmv::util::Rng rng(72);
      for (double& t : thetas) {
        t = std::exp(rng.uniform(std::log(1.0), std::log(10.0)));
      }
    }
    const double wl_rate = 2.0 * static_cast<double>(wl_n);
    std::vector<double> wl_rates(wl_n);
    std::vector<double> wl_baseline(wl_n);
    std::vector<double> rest_rates(wl_n - 1);
    double wl_baseline_secs = 0.0;
    {
      const auto start = std::chrono::steady_clock::now();
      const lbmv::alloc::WorkloadSolve full =
          lbmv::alloc::workload_solve_into(thetas, gamma, wl_rate, wl_rates);
      for (std::size_t i = 0; i < wl_n; ++i) {
        rest_of(thetas, i, rest);
        wl_baseline[i] = lbmv::alloc::workload_solve_into(
                             rest, gamma, wl_rate, rest_rates, full.lambda)
                             .optimal_latency;
      }
      wl_baseline_secs = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    }
    std::vector<double> wl_loo(wl_n);
    std::vector<double> wl_scratch;
    lbmv::alloc::WorkloadLooStats wl_stats;
    const double wl_loo_secs = seconds_per_call(
        [&] {
          const lbmv::alloc::WorkloadSolve full =
              lbmv::alloc::workload_solve_into(thetas, gamma, wl_rate,
                                               wl_rates);
          wl_stats = lbmv::alloc::workload_leave_one_out_into(
              thetas, gamma, wl_rate, full, wl_rates, wl_loo, wl_scratch);
        },
        tmin, treps);
    const double wl_err = max_rel_err(wl_loo, wl_baseline);
    const double wl_speedup = wl_baseline_secs / wl_loo_secs;
    if (!(wl_err <= 1e-9)) loo_check_pass = false;

    JsonValue::Object mm1_entry;
    mm1_entry["n"] = static_cast<double>(mm1_n);
    mm1_entry["load"] = 0.3;
    mm1_entry["idle_share"] =
        1.0 - static_cast<double>(mm1_active) / static_cast<double>(mm1_n);
    mm1_entry["baseline_seconds"] = mm1_baseline_secs;
    mm1_entry["loo_seconds"] = mm1_loo_secs;
    mm1_entry["speedup"] = mm1_speedup;
    mm1_entry["max_rel_err"] = mm1_err;
    JsonValue::Object wl_entry;
    wl_entry["n"] = static_cast<double>(wl_n);
    wl_entry["gamma"] = gamma;
    wl_entry["baseline_seconds"] = wl_baseline_secs;
    wl_entry["loo_seconds"] = wl_loo_secs;
    wl_entry["speedup"] = wl_speedup;
    wl_entry["max_rel_err"] = wl_err;
    wl_entry["fallbacks"] = static_cast<double>(wl_stats.fallbacks);
    wl_entry["fallback_newton_iters"] =
        static_cast<double>(wl_stats.newton_iters);
    nonlinear_loo["mm1"] = std::move(mm1_entry);
    nonlinear_loo["workload"] = std::move(wl_entry);
    nonlinear_loo["cross_check_pass"] = loo_check_pass;
    nonlinear_loo["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    nonlinear_loo["threads_used"] = 1.0;
    nonlinear_loo["note"] =
        "loo rows time the full solve plus the whole leave-one-out vector "
        "(sorted-prefix active-set search for M/M/1, K-term moment expansion "
        "with certified fallback for the workload family); baseline rows "
        "solve every rest set exactly in the same run (the workload baseline "
        "once, warm-started at the full-set multiplier) and supply the "
        "differential oracle";
    derived["nonlinear_loo_mm1_speedup_n1000"] = mm1_speedup;
    derived["nonlinear_loo_workload_speedup_n10000"] = wl_speedup;
    std::cout << "nonlinear_loo: mm1 n=" << mm1_n << " idle "
              << 1.0 - static_cast<double>(mm1_active) /
                           static_cast<double>(mm1_n)
              << ", baseline " << mm1_baseline_secs * 1e3 << " ms, loo "
              << mm1_loo_secs * 1e3 << " ms (" << mm1_speedup
              << "x, max rel err " << mm1_err << "); workload n=" << wl_n
              << ", baseline " << wl_baseline_secs * 1e3 << " ms, loo "
              << wl_loo_secs * 1e3 << " ms (" << wl_speedup << "x, "
              << wl_stats.fallbacks << " fallbacks, max rel err " << wl_err
              << ") -> " << (loo_check_pass ? "pass" : "FAIL") << "\n";
  }

  JsonValue::Object doc;
  doc["schema"] = "lbmv-bench-perf-v1";
  {
    // Run configuration rides under one nested object — stray top-level
    // scalar keys (the old `arrival_rate`) polluted the document shape.
    JsonValue::Object run_config;
    run_config["arrival_rate"] = arrival_rate;
    run_config["smoke"] = smoke;
    doc["config"] = std::move(run_config);
  }
  doc["results"] = std::move(series);
  doc["derived"] = std::move(derived);
  if (!smoke) {
    doc["sim_throughput"] = std::move(sim_throughput);
  }
  doc["strategy_throughput"] = std::move(strategy_throughput);
  doc["batch_round_throughput"] = std::move(batch_round_throughput);
  doc["deviation_grid"] = std::move(deviation_grid);
  doc["obs_timeseries"] = std::move(obs_timeseries);
  doc["nonlinear_round"] = std::move(nonlinear_round);
  doc["nonlinear_loo"] = std::move(nonlinear_loo);

  // Machine-checkable shape manifest: every composite (object/array)
  // section actually present in this document, in dump order.  The CI
  // perf-smoke check asserts this list matches the real top-level keys, so
  // the documented shape can no longer drift from what the runner emits.
  {
    JsonValue::Array sections;
    for (const auto& [key, value] : doc) {
      if (value.is_object() || value.is_array()) sections.emplace_back(key);
    }
    doc["sections"] = std::move(sections);
  }

  std::ofstream out(output);
  if (!out) {
    std::cerr << "cannot open " << output << " for writing\n";
    return 1;
  }
  out << JsonValue(std::move(doc)).dump(2) << "\n";
  std::cout << "wrote " << output << "\n";
  if (!cross_check_pass) {
    std::cerr << "strategy utilities cross-check FAILED\n";
    return 1;
  }
  if (!batch_check_pass) {
    std::cerr << "batch round kernels cross-check FAILED\n";
    return 1;
  }
  if (!grid_check_pass) {
    std::cerr << "deviation grid kernels cross-check FAILED\n";
    return 1;
  }
  if (!obs_check_pass) {
    std::cerr << "obs invariant-monitor gate FAILED\n";
    return 1;
  }
  if (!nonlinear_check_pass) {
    std::cerr << "nonlinear round kernels cross-check FAILED\n";
    return 1;
  }
  if (!loo_check_pass) {
    std::cerr << "nonlinear leave-one-out cross-check FAILED\n";
    return 1;
  }
  return 0;
}
