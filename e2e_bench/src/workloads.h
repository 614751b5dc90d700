#pragma once

// The benchmark's four workloads.  Each generates its inputs from the seed,
// runs one op through the library's one-call entry point (run_op), or the
// same op as a traced driver that calls each layer's public functions in
// the order the entry point does (run_traced_op), and checks the outputs of
// the last op it ran (check).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lbmv/util/thread_pool.h"
#include "span_trace.h"

namespace e2e {

enum class Scale { kFull, kTiny };

// An output check that did not hold.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One op through the one-call entry point(s).
  virtual void run_op() = 0;

  // The same op, with a span around every layer call.  Spans are children
  // of \p root; \p op tags them.
  virtual void run_traced_op(SpanRecorder& recorder, std::uint64_t op,
                             int root) = 0;

  // Checks the outputs of the last op (throws CheckFailure) and returns a
  // digest of every output bit, so two ops can be compared bit for bit.
  [[nodiscard]] virtual std::uint64_t check() const = 0;

  // Whether the workload runs with obs recording on.
  [[nodiscard]] virtual bool obs_on() const = 0;
  // Threads an op may keep busy (pool workers, or 1 for a serial op).
  [[nodiscard]] virtual std::size_t workers() const = 0;
  // Agents per delta-engine round (the denominator of delta_dirty_ratio);
  // 0 when the op runs no delta engine.
  [[nodiscard]] virtual std::size_t delta_agents() const = 0;
  // Whether sim.epoch_self_ms applies (the op is a run_epochs horizon).
  [[nodiscard]] virtual bool epoch_op() const = 0;
};

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"protocol", "epochs",
                                              "nonlinear", "certify"};
  return names;
}

// Builds the named workload: generates its inputs from \p seed and
// constructs every object an op needs.  The protocol replications fan out
// on \p pool (the harness's, shared by every set-up of a run so that
// repeated set-ups do not pile up thread arenas in peak_rss_mb); every
// other op runs on the calling thread.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, Scale scale,
    lbmv::util::ThreadPool& pool);

}  // namespace e2e
