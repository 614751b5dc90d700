// Determinism of the event-driven stack (Simulation + Server + JobSource):
// two runs on the same seed record identical completion traces (job ids,
// arrival/start/finish times) under every ServiceModel, and the loop
// processes exactly one arrival and one completion per job, plus the one
// arrival past the horizon that the source drops.  The stack is the Lindley
// recursion's oracle (test_protocol), so it must carry no hidden state.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/sim/engine.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/rng.h"

namespace {

using namespace lbmv::sim;
using lbmv::util::Rng;

struct Workload {
  std::vector<double> execution_values{0.02, 0.05, 0.11, 0.4};
  std::vector<double> rates{2.0, 1.5, 1.0, 0.5};
  double horizon = 500.0;
  std::uint64_t seed = 1234;
};

/// One drained run: per-server completion traces and the loop's counts.
struct StackRun {
  std::vector<std::vector<Completion>> traces;
  std::size_t processed = 0;
  std::uint64_t jobs = 0;
};

StackRun run_stack(const Workload& w, ServiceModel model) {
  Rng rng(w.seed);
  Simulation sim;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<Server*> ptrs;
  for (std::size_t i = 0; i < w.execution_values.size(); ++i) {
    servers.push_back(std::make_unique<Server>(
        sim, "C" + std::to_string(i + 1), w.execution_values[i], model,
        rng.split(i + 1)));
    ptrs.push_back(servers.back().get());
  }
  JobSource source(sim, ptrs, w.rates, w.horizon, rng.split(0));
  source.start();
  sim.run();
  StackRun run;
  for (const Server* s : ptrs) run.traces.push_back(s->completions());
  run.processed = sim.processed();
  run.jobs = source.jobs_emitted();
  return run;
}

void expect_identical(const StackRun& a, const StackRun& b) {
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t s = 0; s < a.traces.size(); ++s) {
    ASSERT_EQ(a.traces[s].size(), b.traces[s].size()) << "server " << s;
    ASSERT_FALSE(a.traces[s].empty()) << "workload produced no jobs; weak test";
    for (std::size_t j = 0; j < a.traces[s].size(); ++j) {
      const Completion& x = a.traces[s][j];
      const Completion& y = b.traces[s][j];
      // Bit-for-bit: exact double equality, not approximate.
      EXPECT_EQ(x.job_id, y.job_id) << "server " << s << " job " << j;
      EXPECT_EQ(x.arrival, y.arrival) << "server " << s << " job " << j;
      EXPECT_EQ(x.start, y.start) << "server " << s << " job " << j;
      EXPECT_EQ(x.finish, y.finish) << "server " << s << " job " << j;
    }
  }
  EXPECT_EQ(a.processed, b.processed);
}

TEST(SimDeterminism, SelfDeterministicExponential) {
  const Workload w;
  expect_identical(run_stack(w, ServiceModel::kExponential),
                   run_stack(w, ServiceModel::kExponential));
}

TEST(SimDeterminism, SelfDeterministicDeterministic) {
  const Workload w;
  expect_identical(run_stack(w, ServiceModel::kDeterministic),
                   run_stack(w, ServiceModel::kDeterministic));
}

TEST(SimDeterminism, SelfDeterministicErlang2) {
  const Workload w;
  expect_identical(run_stack(w, ServiceModel::kErlang2),
                   run_stack(w, ServiceModel::kErlang2));
}

TEST(SimDeterminism, HoldsAcrossSeedsAndLoads) {
  for (const std::uint64_t seed : {7ull, 42ull, 90210ull}) {
    for (const double load_scale : {0.5, 2.0}) {
      Workload w;
      w.seed = seed;
      for (double& r : w.rates) r *= load_scale;
      w.horizon = 200.0;
      expect_identical(run_stack(w, ServiceModel::kExponential),
                       run_stack(w, ServiceModel::kExponential));
    }
  }
}

TEST(SimDeterminism, ProcessesOneArrivalAndOneCompletionPerJob) {
  // Every emitted job is one arrival event and one completion event; the
  // first arrival past the horizon is one more event, dropped unrouted.
  for (const auto model :
       {ServiceModel::kExponential, ServiceModel::kDeterministic,
        ServiceModel::kErlang2}) {
    const StackRun run = run_stack(Workload{}, model);
    std::size_t completed = 0;
    for (const auto& trace : run.traces) completed += trace.size();
    ASSERT_GT(run.jobs, 0u);
    EXPECT_EQ(completed, run.jobs);
    EXPECT_EQ(run.processed, 2 * run.jobs + 1);
  }
}

}  // namespace
