// lbmv end-to-end workload benchmark (see ../README.md).
//
//   lbmv_e2e --workload protocol|epochs|nonlinear|certify|all --seed N
//            --seconds S --trace 0|1 [--scale full|tiny] [--ops N]
//            [--commit ID] [--trace-dir DIR]
//
// --trace 0 times the one-call entry points and prints the end-to-end
// metrics; --trace 1 runs the traced drivers and prints the per-layer
// metrics, writing the spans to DIR/trace_<workload>_seed<N>.json.  The last
// line of standard output is one JSON object: correct, attempted, failed,
// metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lbmv/core/simd_round.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/obs/obs.h"
#include "lbmv/util/simd.h"
#include "lbmv/util/thread_pool.h"
#include "span_trace.h"
#include "workloads.h"

#ifndef LBMV_E2E_BUILD_TYPE
#define LBMV_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
// Taken during static initialisation, before main: setup_s's first sample
// runs from here.
const Clock::time_point g_process_start = Clock::now();

// Workers of the pool the protocol replications fan out on.  One: on a
// shared host an op that keeps several cores busy is timed by its slowest
// core, which measures the neighbours rather than the program.
constexpr std::size_t kOpWorkers = 1;
// Reference passes whose median is the unit of an op's time.
constexpr std::size_t kRefWindow = 9;
// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 9;
// A timed run goes on past --seconds until it has this many ops, so p90
// always has at least ten samples beyond it.
constexpr std::size_t kMinTimedOps = 100;
// No run measures for longer than this, whatever --seconds asks.
constexpr double kHardCapSeconds = 150.0;
// Ops of each kind the traced run needs at least.
constexpr std::size_t kMinTracedOps = 3;
// Ops the counting pass runs with obs on.
constexpr std::size_t kCountedOps = 2;
// Traced op: |outer wall - root span| may be at most this share of the
// outer wall (or kAccountingFloorMs, for tiny ops).
constexpr double kAccountingSlack = 0.02;
constexpr double kAccountingFloorMs = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  e2e::Scale scale = e2e::Scale::kFull;
  std::size_t max_ops = 0;  // 0: time-bounded
  std::string commit = "unknown";
  std::string trace_dir = ".bench_build";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "lbmv_e2e: " << problem
            << "\nusage: lbmv_e2e --workload protocol|epochs|nonlinear|"
               "certify|all --seed N --seconds S --trace 0|1 "
               "[--scale full|tiny] [--ops N] [--commit ID] "
               "[--trace-dir DIR]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace must be 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "full" && value != "tiny") {
          usage("--scale must be full or tiny");
        }
        args.scale = value == "tiny" ? e2e::Scale::kTiny : e2e::Scale::kFull;
      } else if (flag == "--ops") {
        args.max_ops = std::stoull(value);
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  const auto& names = e2e::workload_names();
  if (args.workload != "all" &&
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Outcome of one workload's run.
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few reasons
  std::vector<Metric> metrics;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }
};

std::string env_json(const Args& args, const e2e::Workload& w) {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"op_workers\": " << w.workers()
      << ", \"global_pool_workers\": "
      << std::max(1u, std::thread::hardware_concurrency())
      << ", \"kernel_backend\": \""
      << (lbmv::core::kernel_backend() == lbmv::core::KernelBackend::kVectorized
              ? "vectorized"
              : "scalar")
      << "\", \"vector_backend\": \"" << lbmv::core::vector_backend_name()
      << "\", \"lbmv_obs\": " << (lbmv::obs::kCompiledIn ? "true" : "false")
      << ", \"lbmv_simd\": " << (lbmv::util::simd::kAvx2 ? "true" : "false")
      << ", \"build_type\": \"" << LBMV_E2E_BUILD_TYPE << "\", \"commit\": \""
      << args.commit << "\", \"workload\": \"" << args.workload
      << "\", \"seed\": " << args.seed << ", \"scale\": \""
      << (args.scale == e2e::Scale::kTiny ? "tiny" : "full") << "\"}";
  return out.str();
}

// The unit of the gated op times.  A shared host changes speed as a whole:
// on a 4-vCPU x86-64 VM, one op on the same inputs took 70 ms in one run
// and 130 ms a minute later, in CPU time as much as in wall time.  Each
// timed op is therefore preceded by one pass of this fixed computation,
// owned by the benchmark and never by the library, and the gated metrics
// give the op's time in units of the median of the last kRefWindow passes
// (the median keeps one preempted pass from moving the unit; the window
// follows a change of speed within a run).  A change to the library moves
// them; a change of host speed moves op and pass together and cancels.
//
// The pass walks one pseudo-random cycle through 16 KiB, with integer
// hashing and a floating-point square-root chain beside it.  16 KiB stays
// in L1, whose sets do not depend on where the pages land in physical
// memory, so the pass costs the same in every process; an untimed walk
// first brings the cycle back into cache, so what the op before it left
// there does not change the pass either.
class Reference {
 public:
  Reference() : next_(kSlots) {
    // Sattolo's shuffle of the identity: one cycle through every slot.
    for (std::uint32_t k = 0; k < kSlots; ++k) next_[k] = k;
    std::uint64_t state = 0x2545f4914f6cdd1dull;
    for (std::uint32_t k = kSlots - 1; k > 0; --k) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next_[k], next_[(state >> 33) % k]);
    }
  }

  // One pass; \p wall_ms and \p cpu_ms receive its cost.
  void run(double& wall_ms, double& cpu_ms) {
    walk(kSlots);
    const double c0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    walk(kSteps);
    wall_ms = seconds_since(t0) * 1e3;
    cpu_ms = (cpu_seconds() - c0) * 1e3;
  }

 private:
  void walk(std::uint32_t steps) {
    std::uint32_t i = 0;
    std::uint64_t h = 0xcbf29ce484222325ull;
    double acc = 1.0;
    for (std::uint32_t k = 0; k < steps; ++k) {
      i = next_[i];
      h = (h ^ i) * 0x100000001b3ull;
      acc = 0.5 * acc + std::sqrt(static_cast<double>(h >> 12) + acc);
    }
    sink_ = acc + static_cast<double>(i);
  }

  static constexpr std::uint32_t kSlots = 1u << 12;
  static constexpr std::uint32_t kSteps = 1u << 18;
  std::vector<std::uint32_t> next_;
  volatile double sink_ = 0.0;
};

std::uint64_t monitor_violations() {
  return lbmv::obs::monitor_totals(lbmv::obs::Registry::global().snapshot())
      .violations;
}

// Builds the workload and runs one untimed warm-up op, kSetupRepeats times;
// returns the last workload, its reference digest and the median set-up
// time.  The first set-up is timed from process start.
struct Setup {
  std::unique_ptr<e2e::Workload> workload;
  std::uint64_t reference = 0;
  double median_s = 0.0;
};

Setup set_up(const Args& args, const std::string& name, bool first,
             lbmv::util::ThreadPool& pool) {
  Setup out;
  std::vector<double> times;
  for (int k = 0; k < kSetupRepeats; ++k) {
    out.workload.reset();
    const Clock::time_point start =
        (first && k == 0) ? g_process_start : Clock::now();
    auto w = e2e::make_workload(name, args.seed, args.scale, pool);
    lbmv::obs::set_enabled(w->obs_on());
    w->run_op();
    const std::uint64_t digest = w->check();
    times.push_back(seconds_since(start));
    if (k > 0 && digest != out.reference) {
      throw e2e::CheckFailure("set-up " + std::to_string(k) +
                              " produced different outputs from set-up 0");
    }
    out.reference = digest;
    out.workload = std::move(w);
  }
  out.median_s = quantile(times, 0.5);
  return out;
}

// One op with its output checks; returns false (and records why) on
// failure.  \p wall_ms and \p cpu_ms receive the op's cost.
template <typename Op>
bool checked_op(e2e::Workload& w, std::uint64_t reference, Op&& op,
                RunResult& result, double& wall_ms, double& cpu_ms,
                const char* mismatch) {
  ++result.attempted;
  const double c0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  try {
    op();
  } catch (const std::exception& e) {
    wall_ms = seconds_since(t0) * 1e3;
    cpu_ms = (cpu_seconds() - c0) * 1e3;
    result.fail(std::string("op threw: ") + e.what());
    return false;
  }
  wall_ms = seconds_since(t0) * 1e3;
  cpu_ms = (cpu_seconds() - c0) * 1e3;
  try {
    if (w.check() != reference) {
      result.fail(mismatch);
      return false;
    }
  } catch (const std::exception& e) {
    result.fail(std::string("output check failed: ") + e.what());
    return false;
  }
  return true;
}

bool keep_going(const Args& args, std::size_t ops, Clock::time_point start,
                double budget_s, std::size_t min_ops) {
  const double elapsed = seconds_since(start);
  if (elapsed >= kHardCapSeconds) return false;
  if (args.max_ops > 0) return ops < args.max_ops;
  return elapsed < budget_s || ops < min_ops;
}

// --trace 0: the end-to-end metrics.
RunResult timed_run(const Args& args, Setup& setup) {
  e2e::Workload& w = *setup.workload;
  RunResult result;
  const bool obs_on = w.obs_on();
  lbmv::obs::set_enabled(obs_on);
  std::uint64_t violations = obs_on ? monitor_violations() : 0;

  Reference reference;
  double ref_ms = 0.0;
  double ref_cpu_ms = 0.0;
  std::vector<double> ref_ms_all, ref_cpu_all;
  for (std::size_t k = 0; k + 1 < kRefWindow; ++k) {
    reference.run(ref_ms, ref_cpu_ms);
    ref_ms_all.push_back(ref_ms);
    ref_cpu_all.push_back(ref_cpu_ms);
  }
  const auto recent = [](const std::vector<double>& v) {
    return quantile(std::vector<double>(v.end() - kRefWindow, v.end()), 0.5);
  };

  std::vector<double> ok_ms, cpu_ms_all, ok_ref, cpu_ref;
  double wall_total_ms = 0.0;
  const Clock::time_point start = Clock::now();
  while (keep_going(args, result.attempted, start, args.seconds,
                    kMinTimedOps)) {
    reference.run(ref_ms, ref_cpu_ms);
    ref_ms_all.push_back(ref_ms);
    ref_cpu_all.push_back(ref_cpu_ms);
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    bool ok = checked_op(
        w, setup.reference, [&] { w.run_op(); }, result, wall_ms, cpu_ms,
        "op outputs differ from the warm-up op on the same inputs");
    if (ok && obs_on) {
      const std::uint64_t now = monitor_violations();
      if (now != violations) {
        result.fail("an invariant monitor flagged the op");
        ok = false;
      }
      violations = now;
    }
    wall_total_ms += wall_ms;
    cpu_ms_all.push_back(cpu_ms);
    cpu_ref.push_back(cpu_ms / recent(ref_cpu_all));
    if (ok) {
      ok_ms.push_back(wall_ms);
      ok_ref.push_back(wall_ms / recent(ref_ms_all));
    }
  }

  const auto attempted = static_cast<double>(result.attempted);
  const std::size_t beyond_p90 = ok_ms.size() / 10;
  result.metrics = {
      {"op_p50_ref", quantile(ok_ref, 0.5), "ref"},
      {"op_p90_ref", quantile(ok_ref, 0.9), "ref"},
      {"cpu_per_op_ref", quantile(cpu_ref, 0.5), "ref"},
      {"setup_s", setup.median_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_ratio", static_cast<double>(ok_ms.size()) / attempted, "ratio"},
  };
  // The same ops in host time: what a user of this host saw during the run.
  std::cout << "  samples: " << ok_ms.size() << " ops timed, " << beyond_p90
            << " beyond p90"
            << (beyond_p90 < 10 ? " (fewer than 10: p90 is indicative only)"
                                : "")
            << "\n  fail_ratio: "
            << static_cast<double>(result.failed) / attempted
            << " (ok_ratio = 1 - fail_ratio)"
            << "\n  host time (not gated): ops_per_s = "
            << static_cast<double>(ok_ms.size()) / (wall_total_ms / 1e3)
            << ", op_p50_ms = " << quantile(ok_ms, 0.5)
            << ", op_p90_ms = " << quantile(ok_ms, 0.9)
            << ", cpu_ms_per_op = " << quantile(cpu_ms_all, 0.5)
            << ", reference_ms = " << quantile(ref_ms_all, 0.5) << "\n";
  return result;
}

double mean_of(const std::map<std::string, double>& totals,
               const std::string& name, std::size_t ops) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second / static_cast<double>(ops);
}

std::uint64_t counter(const lbmv::obs::MetricsSnapshot& s,
                      const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// --trace 1: the per-layer metrics.
RunResult traced_run(const Args& args, Setup& setup, const std::string& env,
                     const std::string& name) {
  e2e::Workload& w = *setup.workload;
  RunResult result;
  const bool obs_on = w.obs_on();
  lbmv::obs::set_enabled(obs_on);

  // Phase 1 (half the time): traced ops, each checked bit for bit against
  // the one-call reference.
  e2e::SpanRecorder recorder;
  std::vector<double> traced_ms;
  std::vector<std::uint64_t> traced_ids;
  Clock::time_point start = Clock::now();
  for (std::uint64_t op = 0;
       keep_going(args, traced_ids.size(), start, args.seconds / 2,
                  kMinTracedOps);
       ++op) {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    const bool ok = checked_op(
        w, setup.reference,
        [&] {
          const e2e::ScopedSpan root(&recorder, "op", -1, op);
          w.run_traced_op(recorder, op, root.index());
        },
        result, wall_ms, cpu_ms,
        "traced driver outputs differ from the one-call result");
    (void)ok;  // a failed op is already counted; its spans are still checked
    traced_ids.push_back(op);
    traced_ms.push_back(wall_ms);
  }

  // Phase 2 (the other half): plain one-call ops, alternating obs on and
  // off, for the obs overhead, the tracing overhead and pool busy time.
  std::vector<double> on_ms, off_ms, same_cpu_ms, same_ms;
  start = Clock::now();
  for (std::size_t k = 0;
       keep_going(args, k, start, args.seconds / 2, 2 * kMinTracedOps); ++k) {
    const bool on = k % 2 == 0;
    lbmv::obs::set_enabled(on);
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    if (!checked_op(
            w, setup.reference, [&] { w.run_op(); }, result, wall_ms, cpu_ms,
            "op outputs differ from the warm-up op on the same inputs")) {
      continue;
    }
    (on ? on_ms : off_ms).push_back(wall_ms);
    if (on == obs_on) {
      same_ms.push_back(wall_ms);
      same_cpu_ms.push_back(cpu_ms);
    }
  }

  // Phase 3 (untimed): counts from the obs registry over kCountedOps ops.
  lbmv::obs::set_enabled(true);
  lbmv::obs::Registry::global().reset();
  std::size_t counted = 0;
  for (std::size_t k = 0; k < kCountedOps; ++k) {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    counted += checked_op(
        w, setup.reference, [&] { w.run_op(); }, result, wall_ms, cpu_ms,
        "op outputs differ from the warm-up op on the same inputs");
  }
  const lbmv::obs::MetricsSnapshot snap =
      lbmv::obs::Registry::global().snapshot();
  lbmv::obs::set_enabled(obs_on);
  const auto per_op = [&](const std::string& counter_name) {
    return counted == 0 ? 0.0
                        : static_cast<double>(counter(snap, counter_name)) /
                              static_cast<double>(counted);
  };
  const lbmv::obs::MonitorTotals monitors = lbmv::obs::monitor_totals(snap);
  if (monitors.violations != 0) {
    result.fail("invariant monitors flagged " +
                std::to_string(monitors.violations) + " violations");
  }

  // Attribution: mean span time per op, by span name.
  const std::vector<e2e::Span> spans = recorder.spans();
  std::map<std::string, double> span_totals;
  double self_total = 0.0;
  double worst_gap = 0.0;
  for (std::size_t k = 0; k < traced_ids.size(); ++k) {
    const e2e::OpAttribution a = e2e::attribute_op(spans, traced_ids[k]);
    if (!a.well_formed) result.fail("malformed span tree: " + a.problem);
    for (const auto& [span_name, ms] : a.by_name) span_totals[span_name] += ms;
    self_total += a.self_ms;
    if (k < traced_ms.size()) {
      // Outer wall (around the whole traced call) vs the root span.
      const double gap = std::fabs(traced_ms[k] - a.root_ms);
      worst_gap = std::max(worst_gap, gap / traced_ms[k]);
      if (gap > std::max(kAccountingSlack * traced_ms[k], kAccountingFloorMs)) {
        result.fail("spans do not account for the traced op time");
      }
    }
  }
  const std::size_t ops = std::max<std::size_t>(1, traced_ids.size());
  const auto span_ms = [&](const std::string& span_name) {
    return mean_of(span_totals, span_name, ops);
  };
  const double self_ms = self_total / static_cast<double>(ops);

  const double event_loop_ms = span_ms("sim.event_loop");
  const double events_per_op = per_op("lbmv_sim_events_total");
  const double rounds = per_op("lbmv_mech_rounds_total");
  const double fused = per_op("lbmv_mech_linear_fast_rounds_total") +
                       per_op("lbmv_mech_nonlinear_rounds_total");
  const auto dirty = snap.histograms.find("lbmv_core_delta_dirty_agents");
  const double dirty_ratio =
      (dirty == snap.histograms.end() || dirty->second.count == 0 ||
       w.delta_agents() == 0)
          ? 0.0
          : dirty->second.mean() / static_cast<double>(w.delta_agents());
  const double grid_evals = per_op("lbmv_strategy_grid_evals_total");
  const double grid_wasted = per_op("lbmv_strategy_grid_lanes_wasted_total");
  const double plain_ms = quantile(same_ms, 0.5);
  const double busy =
      sum(same_ms) > 0.0
          ? sum(same_cpu_ms) /
                (sum(same_ms) * static_cast<double>(w.workers()))
          : 0.0;

  result.metrics = {
      {"sim.event_loop_ms", event_loop_ms, "ms"},
      {"sim.events_per_op", events_per_op, "count"},
      {"sim.events_per_s",
       event_loop_ms > 0.0 ? events_per_op / (event_loop_ms / 1e3) : 0.0,
       "1/s"},
      {"sim.estimate_ms", span_ms("sim.estimate"), "ms"},
      {"sim.epoch_self_ms", w.epoch_op() ? self_ms : 0.0, "ms"},
      {"alloc.allocate_ms", span_ms("alloc.allocate"), "ms"},
      {"alloc.optimal_latency_ms", span_ms("alloc.optimal_latency"), "ms"},
      {"alloc.newton_iters_per_op", per_op("lbmv_mech_newton_iters_total"),
       "count"},
      {"core.round_ms", span_ms("core.round"), "ms"},
      {"core.rounds_per_op", rounds, "count"},
      {"core.fused_round_ratio", rounds > 0.0 ? fused / rounds : 0.0, "ratio"},
      {"core.delta_dirty_ratio", dirty_ratio, "ratio"},
      {"core.audit_linear_ms", span_ms("core.audit_linear"), "ms"},
      {"core.audit_mm1_ms", span_ms("core.audit_mm1"), "ms"},
      {"core.audit_workload_ms", span_ms("core.audit_workload"), "ms"},
      {"core.audit_evals_per_op", per_op("lbmv_mech_audit_evaluations_total"),
       "count"},
      {"strategy.learning_ms", span_ms("strategy.learning"), "ms"},
      {"strategy.grid_evals_per_op", grid_evals, "count"},
      {"strategy.grid_lane_waste_ratio",
       grid_evals + grid_wasted > 0.0 ? grid_wasted / (grid_evals + grid_wasted)
                                      : 0.0,
       "ratio"},
      {"util.pool_busy_ratio", busy, "ratio"},
      {"obs.overhead_ratio",
       quantile(off_ms, 0.5) > 0.0
           ? quantile(on_ms, 0.5) / quantile(off_ms, 0.5)
           : 0.0,
       "ratio"},
      {"obs.monitor_checks_per_op",
       counted == 0 ? 0.0
                    : static_cast<double>(monitors.checks) /
                          static_cast<double>(counted),
       "count"},
      {"obs.monitor_violations", static_cast<double>(monitors.violations),
       "count"},
      {"op.self_ms", self_ms, "ms"},
      {"trace.overhead_ratio",
       plain_ms > 0.0 ? quantile(traced_ms, 0.5) / plain_ms : 0.0, "ratio"},
  };

  std::cout << "  traced ops: " << traced_ids.size()
            << ", plain ops: " << on_ms.size() + off_ms.size()
            << ", counted ops: " << counted << "\n  accounting: op wall = "
            << "self " << self_ms << " ms + layer spans; worst outer/root gap "
            << worst_gap * 100.0 << "% (slack " << kAccountingSlack * 100.0
            << "%)\n  traced op p50 " << quantile(traced_ms, 0.5)
            << " ms vs plain op p50 " << plain_ms
            << " ms: tracing overhead " << (quantile(traced_ms, 0.5) - plain_ms)
            << " ms\n";
  for (const auto& [span_name, total] : span_totals) {
    std::cout << "  span " << span_name << ": "
              << total / static_cast<double>(ops) << " ms/op\n";
  }

  std::filesystem::create_directories(args.trace_dir);
  const std::string path = args.trace_dir + "/trace_" + name + "_seed" +
                           std::to_string(args.seed) + ".json";
  std::ofstream file(path);
  file << recorder.to_chrome_json(env);
  if (!file) {
    result.fail("cannot write the trace to " + path);
  } else {
    std::cout << "  spans written to " << path << "\n";
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::vector<std::string> names;
  if (args.workload == "all") {
    names = e2e::workload_names();
  } else {
    names = {args.workload};
  }

  lbmv::util::ThreadPool pool(kOpWorkers);
  std::vector<std::pair<std::string, RunResult>> results;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    Setup setup;
    try {
      setup = set_up(args, name, i == 0, pool);
    } catch (const std::exception& e) {
      std::cerr << "lbmv_e2e: set-up of workload " << name
                << " failed: " << e.what() << "\n";
      return 1;
    }
    Args per = args;
    per.workload = name;
    const std::string env = env_json(per, *setup.workload);
    std::cout << "workload " << name << " (seed " << args.seed << ", trace "
              << args.trace << ")\n  env " << env << "\n";
    RunResult r = args.trace ? traced_run(per, setup, env, name)
                             : timed_run(per, setup);
    for (const Metric& m : r.metrics) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    for (const std::string& why : r.failures) {
      std::cout << "  FAILED: " << why << "\n";
    }
    results.emplace_back(name, std::move(r));
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const auto& [name, r] : results) {
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : r.metrics) {
      const std::string key =
          results.size() == 1 ? m.name : name + "." + m.name;
      metrics << (first ? "" : ", ") << "\"" << key << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
  }
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return 0;
}
