#pragma once

/// \file obs.h
/// Master switches for the lbmv observability layer.
///
/// Observability in this repo is **zero-cost when off** at two levels:
///
///   * **Compile time** — building with `-DLBMV_OBS=0` (CMake option
///     `LBMV_OBS=OFF`) turns every probe into an empty inline function:
///     `obs::enabled()` becomes `constexpr false`, so instrumentation
///     guarded by `if (obs::enabled())` is dead code the optimiser deletes
///     outright.  The registry and trace recorder still compile (snapshots
///     are simply empty), so no caller needs `#if` guards.
///   * **Run time** — with probes compiled in (the default), recording is
///     gated on one process-wide flag read with a single relaxed atomic
///     load.  The flag starts **off**; nothing is recorded until a caller
///     (the `lbmv obs` command, a bench, a test) opts in via
///     `set_enabled(true)`.  BENCH_perf.json's `obs_timeseries` section
///     times the single-round hot path with recording disabled and
///     enabled in one run.
///
/// With recording on, a probe is a thread-local shard lookup plus relaxed
/// loads and stores on cells only that thread writes (no locked
/// instructions; metrics.h "Cost model"), and a protocol round publishes
/// its per-server families once, after the round, not per job.  DESIGN.md
/// §9 gives the measured end-to-end cost.
///
/// The layer lives *below* util (lbmv_obs has no lbmv dependencies) so the
/// thread pool and every layer above it can be instrumented without
/// dependency cycles.

#include <atomic>

#ifndef LBMV_OBS
#define LBMV_OBS 1
#endif

namespace lbmv::obs {

/// Whether probes are compiled in at all (`LBMV_OBS` != 0).
inline constexpr bool kCompiledIn = LBMV_OBS != 0;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

#if LBMV_OBS
/// One relaxed load: the whole cost of a probe while recording is off.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
#else
/// Probes compiled out: instrumentation guarded by this is dead code.
[[nodiscard]] constexpr bool enabled() { return false; }
#endif

/// Turn run-time recording on or off (process-wide).  Handles resolved
/// while recording was off still work afterwards; per-instance probes that
/// check enabled() at construction (e.g. sim::Server) must be constructed
/// with recording on to participate.
void set_enabled(bool on);

}  // namespace lbmv::obs
