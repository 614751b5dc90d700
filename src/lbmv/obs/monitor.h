#pragma once

/// \file monitor.h
/// Online invariant monitors: the mechanism's own guarantees as metrics.
///
/// The paper's construction is a mechanism *with verification*; the
/// monitors make verification itself observable.  An `InvariantMonitor`
/// wraps one named invariant (allocation feasibility, voluntary
/// participation, payment decomposition, ...) and turns every check into
/// three metric families plus a structured anomaly record:
///
///   lbmv_monitor_<name>_checks_total       rounds/commits inspected
///   lbmv_monitor_<name>_violations_total   residuals beyond tolerance
///   lbmv_monitor_<name>_residual           |residual| magnitude histogram
///
/// A violation additionally lands a `Severity::kError` record (with the
/// caller's key/value payload) in the flight recorder, so `lbmv obs`, the
/// JSONL dump and the crash hook all surface *which* round went wrong and
/// by how much — not just that a counter moved.
///
/// Cost contract: callers gate on `obs::enabled()` before computing the
/// residual, so a disabled run pays one relaxed load per wired site and a
/// compiled-out build (`LBMV_OBS=0`) pays nothing.  check() itself is two
/// counter increments plus one histogram record on the happy path.
///
/// The monitors live in obs (below util) so core, sim and strategy can
/// all feed them without dependency cycles; the residual *math* stays in
/// the owning subsystem (e.g. core/invariants.h).

#include <initializer_list>
#include <limits>
#include <string>

#include "lbmv/obs/flight_recorder.h"
#include "lbmv/obs/metrics.h"

namespace lbmv::obs {

/// One named invariant: checks counter + violations counter + residual
/// magnitude histogram + flight-recorder anomaly records.
class InvariantMonitor {
 public:
  /// \p name is the metric infix (lbmv_monitor_<name>_checks_total ...);
  /// \p subsystem tags the flight records; \p tolerance is the violation
  /// threshold on |residual| (infinity = record-only residual gauge).
  /// All three must be string literals (stored as pointers).
  InvariantMonitor(const char* name, const char* subsystem, double tolerance);

  /// Record one check: |residual| into the histogram, the checks counter,
  /// and — when |residual| > tolerance — the violations counter plus a
  /// flight-recorder record carrying \p payload (the residual itself is
  /// always prepended).  Returns true when the check passed.
  bool check(double residual,
             std::initializer_list<FlightRecord::KeyValue> payload = {});

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] double tolerance() const { return tolerance_; }

 private:
  const char* name_;
  const char* subsystem_;
  double tolerance_;
  Counter checks_;
  Counter violations_;
  Histogram residual_;
};

/// The built-in monitors, resolved once (function-local static) like the
/// probe bundles in probes.h.  Tolerances are the repo's differential
/// 1e-9 bound for closed-form identities; the estimate-gap monitors are
/// record-only gauges (verification noise is data, not a bug).
struct Monitors {
  /// |sum(x_i) - R| / R after every allocation (mechanism rounds and the
  /// protocol's step-2 assignment alike).
  InvariantMonitor feasibility{"feasibility", "mech", 1e-9};
  /// max_i |P_i - (C_i + B_i)| / scale — the comp-bonus decomposition
  /// identity (P = C + B) every paying rule must satisfy.
  InvariantMonitor payment_decomposition{"payment_decomposition", "mech",
                                         1e-9};
  /// Voluntary participation at consistent rounds: max(0, -min_i U_i) /
  /// scale must vanish (paper Thm 3.2) for every mechanism that
  /// guarantees participation.
  InvariantMonitor participation{"participation", "mech", 1e-9};
  /// KKT stationarity of the PR allocation on linear rounds: the spread
  /// of the marginals b_j x_j (constant at the optimum) — the
  /// epsilon-optimality gauge for the allocator.
  InvariantMonitor kkt_stationarity{"kkt_stationarity", "alloc", 1e-9};
  /// Protocol mass balance: the step-2 assignment must ship exactly R.
  InvariantMonitor protocol_mass_balance{"protocol_mass_balance", "protocol",
                                         1e-9};
  /// Record-only: relative gap between payments at the estimated and the
  /// oracle execution values — how much verification noise moves money.
  InvariantMonitor protocol_estimate_gap{
      "protocol_estimate_gap", "protocol",
      std::numeric_limits<double>::infinity()};

  static Monitors& get();
};

/// Sum of every lbmv_monitor_*_checks_total / _violations_total in a
/// snapshot — the dashboard's one-line health summary.
struct MonitorTotals {
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
};
[[nodiscard]] MonitorTotals monitor_totals(const MetricsSnapshot& snapshot);

}  // namespace lbmv::obs
