// Tests for the queueing server, the Poisson job source and metrics —
// including the M/M/1 sanity check that anchors the simulator to theory.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/sim/engine.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/sim/metrics.h"
#include "lbmv/sim/server.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using namespace lbmv::sim;
using lbmv::util::Rng;

TEST(ServiceModelMapping, RoundTripsAllModels) {
  for (const auto model :
       {ServiceModel::kExponential, ServiceModel::kDeterministic,
        ServiceModel::kErlang2}) {
    for (double t : {0.25, 1.0, 7.5}) {
      const double m = mean_service_from_linear_coefficient(t, model);
      EXPECT_NEAR(linear_coefficient_from_mean_service(m, model), t, 1e-12);
    }
  }
}

TEST(ServiceModelMapping, ExponentialCoefficientIsMeanSquared) {
  EXPECT_DOUBLE_EQ(
      linear_coefficient_from_mean_service(0.5, ServiceModel::kExponential),
      0.25);
  EXPECT_DOUBLE_EQ(linear_coefficient_from_mean_service(
                       1.0, ServiceModel::kDeterministic),
                   0.5);
}

TEST(Server, ServesJobsFifoWithDeterministicService) {
  Simulation sim;
  Server server(sim, "s", 0.5, ServiceModel::kDeterministic, Rng(1));
  // t = 0.5 deterministic => mean service = 1.0 exactly.
  sim.schedule(0.0, [&] { server.submit(Job{1, 0.0}); });
  sim.schedule(0.1, [&] { server.submit(Job{2, 0.1}); });
  sim.run();
  const auto& completions = server.completions();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].job_id, 1u);
  EXPECT_DOUBLE_EQ(completions[0].start, 0.0);
  EXPECT_DOUBLE_EQ(completions[0].finish, 1.0);
  EXPECT_EQ(completions[1].job_id, 2u);
  EXPECT_DOUBLE_EQ(completions[1].start, 1.0);  // waited for job 1
  EXPECT_DOUBLE_EQ(completions[1].finish, 2.0);
  EXPECT_DOUBLE_EQ(completions[1].waiting_time(), 0.9);
  EXPECT_DOUBLE_EQ(server.busy_time(), 2.0);
}

TEST(Server, Erlang2ServiceHasHalfTheExponentialVariance) {
  // Same mean service time, but Erlang-2 has variance m^2/2 instead of
  // m^2 — the lower-variance service distribution the M/G/1 reading of the
  // paper's model allows.
  Simulation sim;
  // Execution value chosen so both models have mean service exactly 1.
  Server exponential(sim, "exp", 1.0, ServiceModel::kExponential, Rng(61));
  Server erlang(sim, "erl", 0.75, ServiceModel::kErlang2, Rng(62));
  sim.schedule(0.0, [&] {
    for (std::uint64_t i = 0; i < 20000; ++i) {
      exponential.submit(Job{i, 0.0});
      erlang.submit(Job{i, 0.0});
    }
  });
  sim.run();
  EXPECT_DOUBLE_EQ(erlang.mean_service_time(), 1.0);
  lbmv::util::RunningStats exp_stats, erl_stats;
  for (const auto& c : exponential.completions()) {
    exp_stats.add(c.service_time());
  }
  for (const auto& c : erlang.completions()) {
    erl_stats.add(c.service_time());
  }
  EXPECT_NEAR(exp_stats.mean(), 1.0, 0.03);
  EXPECT_NEAR(erl_stats.mean(), 1.0, 0.03);
  EXPECT_NEAR(exp_stats.variance(), 1.0, 0.06);
  EXPECT_NEAR(erl_stats.variance(), 0.5, 0.04);
}

TEST(Server, IdleServerStartsServiceImmediately) {
  Simulation sim;
  Server server(sim, "s", 0.5, ServiceModel::kDeterministic, Rng(1));
  sim.schedule(5.0, [&] { server.submit(Job{7, 5.0}); });
  sim.run();
  ASSERT_EQ(server.completions().size(), 1u);
  EXPECT_DOUBLE_EQ(server.completions()[0].waiting_time(), 0.0);
}

TEST(Server, ManyJobsAllComplete) {
  Simulation sim;
  Server server(sim, "s", 0.01, ServiceModel::kExponential, Rng(3));
  sim.schedule(0.0, [&] {
    for (std::uint64_t i = 0; i < 5000; ++i) server.submit(Job{i, 0.0});
  });
  sim.run();
  EXPECT_EQ(server.completions().size(), 5000u);
  EXPECT_FALSE(server.busy());
  EXPECT_EQ(server.queue_length(), 0u);
}

TEST(JobSource, EmitsApproximatelyPoissonCounts) {
  Simulation sim;
  Server fast(sim, "fast", 0.01, ServiceModel::kExponential, Rng(11));
  Server slow(sim, "slow", 0.01, ServiceModel::kExponential, Rng(12));
  std::vector<Server*> servers{&fast, &slow};
  const double horizon = 2000.0;
  JobSource source(sim, servers, {3.0, 1.0}, horizon, Rng(13));
  source.start();
  sim.run();
  const double emitted = static_cast<double>(source.jobs_emitted());
  EXPECT_NEAR(emitted / horizon, 4.0, 0.15);  // ~4 jobs/s total
  const auto counts = source.per_server_counts();
  EXPECT_NEAR(static_cast<double>(counts[0]) / emitted, 0.75, 0.02);
}

TEST(JobSource, ValidatesConstruction) {
  Simulation sim;
  Server s(sim, "s", 1.0, ServiceModel::kExponential, Rng(1));
  std::vector<Server*> servers{&s};
  EXPECT_THROW(JobSource(sim, servers, {1.0, 2.0}, 10.0, Rng(2)),
               lbmv::util::PreconditionError);
  EXPECT_THROW(JobSource(sim, servers, {0.0}, 10.0, Rng(2)),
               lbmv::util::PreconditionError);
  EXPECT_THROW(JobSource(sim, servers, {1.0}, 0.0, Rng(2)),
               lbmv::util::PreconditionError);
}

TEST(JobSource, RejectsAnInfiniteHorizon) {
  // Arrivals would never pass the horizon, so run() would never return.
  Simulation sim;
  Server s(sim, "s", 1.0, ServiceModel::kExponential, Rng(1));
  std::vector<Server*> servers{&s};
  const double inf = std::numeric_limits<double>::infinity();
  try {
    JobSource source(sim, servers, {1.0}, inf, Rng(2));
    ADD_FAILURE() << "an infinite horizon was accepted";
  } catch (const lbmv::util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("horizon must be finite"),
              std::string::npos)
        << e.what();
  }
}

TEST(JobSource, RejectsAnInfiniteRate) {
  // An infinite rate draws zero-length gaps: the clock would never move.
  Simulation sim;
  Server a(sim, "a", 1.0, ServiceModel::kExponential, Rng(1));
  Server b(sim, "b", 1.0, ServiceModel::kExponential, Rng(3));
  std::vector<Server*> servers{&a, &b};
  const double inf = std::numeric_limits<double>::infinity();
  try {
    JobSource source(sim, servers, {1.0, inf}, 10.0, Rng(2));
    ADD_FAILURE() << "an infinite rate was accepted";
  } catch (const lbmv::util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("rates[1] must be finite"),
              std::string::npos)
        << e.what();
  }
}

TEST(JobSource, RejectsAnExpectedJobCountPastTheLimit) {
  // Construction only: past the limit the arrival loop would allocate
  // until memory runs out.
  Simulation sim;
  Server s(sim, "s", 1.0, ServiceModel::kExponential, Rng(1));
  std::vector<Server*> servers{&s};
  for (const auto& [rate, horizon] :
       {std::pair{1e300, 1.0}, std::pair{1e7, 1e6}}) {
    try {
      JobSource source(sim, servers, {rate}, horizon, Rng(2));
      ADD_FAILURE() << "rate " << rate << " x horizon " << horizon
                    << " was accepted";
    } catch (const lbmv::util::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "expected job count sum(rates) * horizon"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Mm1Theory, SimulatedWaitingTimeMatchesRhoOverMuMinusLambda) {
  // M/M/1 with lambda = 2, mu = 4: Wq = rho / (mu - lambda) = 0.25.
  Simulation sim;
  // t = m^2 with m = 0.25 => t = 0.0625.
  Server server(sim, "s", 0.0625, ServiceModel::kExponential, Rng(21));
  std::vector<Server*> servers{&server};
  const double horizon = 60000.0;
  JobSource source(sim, servers, {2.0}, horizon, Rng(22));
  source.start();
  sim.run();
  const auto metrics = collect_metrics(servers, horizon, 0.05);
  EXPECT_NEAR(metrics.servers[0].mean_waiting_time, 0.25, 0.02);
  EXPECT_NEAR(metrics.servers[0].utilization, 0.5, 0.02);
  EXPECT_NEAR(metrics.servers[0].throughput, 2.0, 0.05);
}

TEST(Metrics, WarmupDiscardsEarlyJobs) {
  Simulation sim;
  Server server(sim, "s", 0.5, ServiceModel::kDeterministic, Rng(1));
  sim.schedule(0.0, [&] { server.submit(Job{0, 0.0}); });   // in warmup
  sim.schedule(50.0, [&] { server.submit(Job{1, 50.0}); });  // measured
  sim.run();
  std::vector<Server*> servers{&server};
  const auto metrics = collect_metrics(servers, 100.0, 0.2);
  EXPECT_EQ(metrics.servers[0].jobs_completed, 1u);
  EXPECT_EQ(metrics.total_jobs(), 1u);
}

TEST(Metrics, MeasuredTotalLatencyUsesThroughputTimesWaiting) {
  Simulation sim;
  Server server(sim, "s", 0.5, ServiceModel::kDeterministic, Rng(1));
  sim.schedule(10.0, [&] {
    server.submit(Job{0, 0.0});
    server.submit(Job{1, 0.0});  // waits exactly one service time
  });
  sim.run();
  std::vector<Server*> servers{&server};
  const auto metrics = collect_metrics(servers, 100.0, 0.0);
  const auto& sm = metrics.servers[0];
  EXPECT_NEAR(metrics.measured_total_latency,
              sm.throughput * sm.mean_waiting_time, 1e-12);
  EXPECT_DOUBLE_EQ(sm.mean_waiting_time, 0.5);  // (0 + 1) / 2
}

TEST(Metrics, ValidatesArguments) {
  Simulation sim;
  Server server(sim, "s", 1.0, ServiceModel::kExponential, Rng(1));
  std::vector<Server*> servers{&server};
  EXPECT_THROW((void)collect_metrics(servers, 0.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)collect_metrics(servers, 10.0, 1.0),
               lbmv::util::PreconditionError);
}

TEST(Metrics, RejectsNonFiniteArguments) {
  // duration = +inf passes `> 0` but yields zero throughput everywhere;
  // a NaN warmup fraction passes neither bound check and silently keeps
  // every job.  Both must throw instead of producing meaningless output.
  Simulation sim;
  Server server(sim, "s", 1.0, ServiceModel::kExponential, Rng(1));
  std::vector<Server*> servers{&server};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)collect_metrics(servers, inf),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)collect_metrics(servers, nan),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)collect_metrics(servers, 10.0, nan),
               lbmv::util::PreconditionError);
}

}  // namespace
