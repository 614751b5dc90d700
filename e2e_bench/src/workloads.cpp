#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <random>
#include <span>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/delta_engine.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/obs/probes.h"
#include "lbmv/obs/trace.h"
#include "lbmv/sim/epochs.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/sim/rate_estimator.h"
#include "lbmv/sim/server.h"
#include "lbmv/strategy/learning.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"

namespace e2e {
namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::MechanismOutcome;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;

// ---- input generation (the library sees only what this produces) --------

// Seeded generator owned by the benchmark: mt19937_64 bits mapped to
// doubles by hand, so inputs do not depend on a standard library's
// distribution implementations.
class Generator {
 public:
  Generator(std::uint64_t seed, std::uint64_t stream)
      : engine_(lbmv::util::splitmix64(seed * 0x9e3779b97f4a7c15ull + stream)) {}

  double uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  // n values log-uniform in [lo, hi], stratified: value k is drawn from
  // the k-th of n equal slices of [log lo, log hi], and the values are
  // then dealt to agents in a random order.  Aggregates that set the cost
  // of an op (sum 1/t, the idle share of M/M/1 servers) then move little
  // from seed to seed, while every agent's value still depends on the seed.
  std::vector<double> log_uniform(std::size_t n, double lo, double hi) {
    const double a = std::log(lo);
    const double width = std::log(hi) - a;
    std::vector<double> out(n);
    for (std::size_t k = 0; k < n; ++k) {
      out[k] = std::exp(a + width * (static_cast<double>(k) + uniform()) /
                                static_cast<double>(n));
    }
    for (std::size_t k = n; k > 1; --k) {
      std::swap(out[k - 1], out[engine_() % k]);
    }
    return out;
  }
  // A seed to hand to a library component (simulation, drift, learners).
  std::uint64_t seed() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

double sum_inverse(const std::vector<double>& values) {
  double s = 0.0;
  for (const double v : values) s += 1.0 / v;
  return s;
}

// ---- digests and checks -------------------------------------------------

class Digest {
 public:
  void add(std::uint64_t word) {
    h_ ^= word;
    h_ *= 0x100000001b3ull;
    h_ ^= h_ >> 29;
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::span<const double> values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const double v : values) add(v);
  }
  void add(const MechanismOutcome& o) {
    add(o.allocation.rates());
    add(static_cast<std::uint64_t>(o.agents.size()));
    for (const auto& a : o.agents) {
      add(a.allocation);
      add(a.compensation);
      add(a.bonus);
      add(a.payment);
      add(a.valuation);
      add(a.utility);
    }
    add(o.actual_latency);
    add(o.reported_latency);
  }
  void add(const lbmv::util::RunningStats& s) {
    add(static_cast<std::uint64_t>(s.count()));
    add(s.mean());
    add(s.variance());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

bool close_rel(double a, double b, double scale, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, scale);
}

// P = C + B summed over the round.
void check_payment_split(const MechanismOutcome& o, const char* which) {
  double p = 0.0, c = 0.0, b = 0.0, scale = 0.0;
  for (const auto& a : o.agents) {
    p += a.payment;
    c += a.compensation;
    b += a.bonus;
    scale += std::fabs(a.payment) + std::fabs(a.compensation) +
             std::fabs(a.bonus);
  }
  require(close_rel(p, c + b, scale),
          std::string("sum P != sum C + sum B on the ") + which + " outcome");
}

// Per-epoch efficiency in (0, 1] (up to rounding of the two latency sums)
// and sum x = R.
void check_epochs(const lbmv::sim::EpochReport& report, double arrival_rate,
                  std::size_t epochs) {
  require(report.records.size() == epochs, "missing epoch records");
  for (const auto& r : report.records) {
    require(r.efficiency > 0.0 && r.efficiency <= 1.0 + 1e-9,
            "epoch efficiency outside (0, 1]");
    double total = 0.0;
    for (const double x : r.outcome.allocation.rates()) total += x;
    require(close_rel(total, arrival_rate, arrival_rate),
            "epoch allocation does not sum to R");
  }
}

void digest_epochs(Digest& d, const lbmv::sim::EpochReport& report) {
  d.add(static_cast<std::uint64_t>(report.records.size()));
  for (const auto& r : report.records) {
    d.add(r.true_values);
    d.add(r.outcome);
    d.add(r.optimal_latency);
    d.add(r.efficiency);
  }
  d.add(report.cumulative_utility);
  d.add(report.mean_efficiency);
}

// ---- traced run_epochs --------------------------------------------------

// sim::run_epochs, step for step, with spans around the core round and the
// allocator's optimum; everything else (history, config and record copies,
// the drift walk) is the op's self time.
lbmv::sim::EpochReport traced_run_epochs(
    const lbmv::core::Mechanism& mechanism,
    const SystemConfig& initial_config,
    const lbmv::sim::EpochOptions& options, SpanRecorder& rec,
    std::uint64_t op, int parent) {
  const std::size_t n = initial_config.size();
  std::vector<int> lags = options.bid_lags;
  if (lags.empty()) lags.assign(n, 0);
  int max_lag = 0;
  for (const int lag : lags) max_lag = std::max(max_lag, lag);

  lbmv::util::Rng rng(options.seed);
  std::vector<double> current(initial_config.true_values().begin(),
                              initial_config.true_values().end());
  std::deque<std::vector<double>> history(
      static_cast<std::size_t>(max_lag) + 1, current);

  lbmv::sim::EpochReport report;
  report.cumulative_utility.assign(n, 0.0);
  report.records.reserve(static_cast<std::size_t>(options.epochs));
  double efficiency_sum = 0.0;
  BidProfile profile;
  profile.bids.resize(n);
  profile.executions.resize(n);
  std::optional<lbmv::core::DeltaRoundEngine> engine;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto& lagged =
          history[history.size() - 1 - static_cast<std::size_t>(lags[i])];
      profile.bids[i] = lagged[i];
      profile.executions[i] = current[i];
    }
    const SystemConfig config(current, initial_config.arrival_rate(),
                              initial_config.family_ptr());
    lbmv::sim::EpochRecord record;
    record.true_values = current;
    const MechanismOutcome* outcome = nullptr;
    {
      const ScopedSpan span(&rec, "core.round", parent, op);
      if (!engine) {
        engine.emplace(mechanism, initial_config.family_ptr(),
                       initial_config.arrival_rate(), profile);
      } else {
        engine->sync(profile.bids, profile.executions);
      }
      outcome = &engine->outcome();
    }
    record.outcome = *outcome;
    {
      const ScopedSpan span(&rec, "alloc.optimal_latency", parent, op);
      record.optimal_latency = mechanism.allocator().optimal_latency(
          config.family(), current, config.arrival_rate());
    }
    record.efficiency = record.optimal_latency / record.outcome.actual_latency;
    efficiency_sum += record.efficiency;
    for (std::size_t i = 0; i < n; ++i) {
      report.cumulative_utility[i] += record.outcome.agents[i].utility;
    }
    report.records.push_back(std::move(record));

    for (double& t : current) {
      t *= std::exp(rng.normal(0.0, options.drift_sigma));
      if (t < options.min_type) t = options.min_type * options.min_type / t;
      if (t > options.max_type) t = options.max_type * options.max_type / t;
      t = std::clamp(t, options.min_type, options.max_type);
    }
    history.push_back(current);
    history.pop_front();
  }
  report.mean_efficiency =
      efficiency_sum / static_cast<double>(options.epochs);
  return report;
}

// ---- protocol -------------------------------------------------------------

// VerifiedProtocol::run_replicated with 4 replications on the harness's
// one-worker pool, obs on.  Linear family at light load: n servers with mean
// service times log-uniform in [0.005, 0.05], R = 0.1 * sum 1/m, and a
// horizon of ~4e4 jobs per replication; every 16th server executes 1.5x
// slower than it bids, so the verification estimates move the payments.
class ProtocolWorkload final : public Workload {
 public:
  ProtocolWorkload(std::uint64_t seed, Scale scale,
                   lbmv::util::ThreadPool& pool)
      : ProtocolWorkload(Inputs::make(seed, scale), pool) {}

  void run_op() override {
    last_ = protocol_.run_replicated(config_, intents_, replication_);
  }

  void run_traced_op(SpanRecorder& rec, std::uint64_t op, int root) override {
    // VerifiedProtocol::run_replicated: fan out, then merge in order.
    const std::size_t n = config_.size();
    const lbmv::sim::ReplicationRunner runner(replication_);
    lbmv::sim::ReplicatedRoundReport merged;
    merged.rounds.resize(replication_.replications);
    {
      const ScopedSpan fan(&rec, "util.pool_fanout", root, op);
      runner.run([&](std::size_t rep, lbmv::util::Rng& rng) {
        const ScopedSpan span(&rec, "sim.replication", fan.index(), op);
        merged.rounds[rep] = traced_round(rng.seed(), rec, op, span.index());
      });
    }
    merged.estimated_execution.resize(n);
    merged.payments.resize(n);
    for (const auto& round : merged.rounds) {
      merged.measured_latency.add(round.metrics.measured_total_latency);
      merged.total_jobs.add(static_cast<double>(round.metrics.total_jobs()));
      for (std::size_t i = 0; i < n; ++i) {
        merged.estimated_execution[i].add(round.estimated_execution[i]);
        merged.payments[i].add(round.outcome.agents[i].payment);
      }
    }
    last_ = std::move(merged);
  }

  [[nodiscard]] std::uint64_t check() const override {
    const std::size_t n = config_.size();
    require(last_.rounds.size() == replication_.replications,
            "missing replications");
    Digest d;
    for (const auto& r : last_.rounds) {
      require(r.messages == 3 * n, "protocol round did not send 3n messages");
      check_payment_split(r.outcome, "verified");
      check_payment_split(r.oracle_outcome, "oracle");
      d.add(r.allocation.rates());
      d.add(r.estimated_execution);
      for (const bool available : r.estimate_available) {
        d.add(static_cast<std::uint64_t>(available));
      }
      d.add(r.outcome);
      d.add(r.oracle_outcome);
      d.add(r.metrics.measured_total_latency);
      d.add(static_cast<std::uint64_t>(r.metrics.total_jobs()));
      d.add(static_cast<std::uint64_t>(r.messages));
    }
    d.add(last_.measured_latency);
    d.add(last_.total_jobs);
    for (const auto& s : last_.estimated_execution) d.add(s);
    for (const auto& s : last_.payments) d.add(s);
    return d.value();
  }

  [[nodiscard]] bool obs_on() const override { return true; }
  [[nodiscard]] std::size_t workers() const override {
    return replication_.pool->thread_count();
  }
  [[nodiscard]] std::size_t delta_agents() const override {
    return config_.size();
  }
  [[nodiscard]] bool epoch_op() const override { return false; }

 private:
  struct Inputs {
    SystemConfig config;
    BidProfile intents;
    lbmv::sim::ProtocolOptions options;
    std::uint64_t root_seed = 0;

    static Inputs make(std::uint64_t seed, Scale scale) {
      const bool tiny = scale == Scale::kTiny;
      const std::size_t n = tiny ? 16 : 256;
      const double jobs = tiny ? 2000.0 : 4e4;
      Generator gen(seed, 1);
      const std::vector<double> mean_service =
          gen.log_uniform(n, 0.005, 0.05);
      std::vector<double> types(n);
      for (std::size_t i = 0; i < n; ++i) {
        types[i] = lbmv::sim::linear_coefficient_from_mean_service(
            mean_service[i], lbmv::sim::ServiceModel::kExponential);
      }
      const double rate = 0.1 * sum_inverse(mean_service);
      BidProfile intents;
      intents.bids = types;
      intents.executions = types;
      for (std::size_t i = 0; i < n; i += 16) intents.executions[i] *= 1.5;
      lbmv::sim::ProtocolOptions options;
      options.horizon = jobs / rate;
      options.seed = gen.seed();
      return Inputs{SystemConfig(types, rate), std::move(intents), options,
                    gen.seed()};
    }
  };

  ProtocolWorkload(Inputs in, lbmv::util::ThreadPool& pool)
      : config_(std::move(in.config)),
        intents_(std::move(in.intents)),
        protocol_(mechanism_, in.options) {
    replication_.replications = kReplications;
    replication_.root_seed = in.root_seed;
    replication_.pool = &pool;
  }

  // VerifiedProtocol::run_round(config, intents, seed), step for step.
  lbmv::sim::RoundReport traced_round(std::uint64_t seed, SpanRecorder& rec,
                                      std::uint64_t op, int parent) const {
    namespace sim = lbmv::sim;
    namespace obs = lbmv::obs;
    const sim::ProtocolOptions& options = protocol_.options();
    const obs::Span obs_span("protocol_round", "protocol");
    obs::ProtocolProbes::get().rounds.inc();
    const std::size_t n = config_.size();
    intents_.validate(n);

    sim::RoundReport report;
    report.messages += n;
    {
      const ScopedSpan span(&rec, "alloc.allocate", parent, op);
      report.allocation = mechanism_.allocator().allocate(
          config_.family(), intents_.bids, config_.arrival_rate());
    }
    report.messages += n;
    if (obs::enabled()) {
      double shipped = 0.0;
      for (const double rate : report.allocation.rates()) shipped += rate;
      obs::Monitors::get().protocol_mass_balance.check(
          (shipped - config_.arrival_rate()) / config_.arrival_rate(),
          {{"n", static_cast<double>(n)},
           {"shipped", shipped},
           {"arrival_rate", config_.arrival_rate()}});
    }

    std::optional<ScopedSpan> setup_span;
    setup_span.emplace(&rec, "sim.setup", parent, op);
    lbmv::util::Rng rng(seed);
    sim::Simulation simulation;
    std::vector<std::unique_ptr<sim::Server>> servers;
    std::vector<sim::Server*> server_ptrs;
    servers.reserve(n);
    const double expected_jobs =
        config_.arrival_rate() * options.horizon / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<sim::Server>(
          simulation, "C" + std::to_string(i + 1), intents_.executions[i],
          options.service_model, rng.split(i + 1)));
      servers.back()->reserve(static_cast<std::size_t>(2.0 * expected_jobs) +
                              16);
      server_ptrs.push_back(servers.back().get());
    }
    std::vector<double> rates(report.allocation.rates().begin(),
                              report.allocation.rates().end());
    sim::JobSource source(simulation, server_ptrs, std::move(rates),
                          options.horizon, rng.split(0));
    source.start();
    setup_span.reset();
    {
      const ScopedSpan span(&rec, "sim.event_loop", parent, op);
      simulation.run();
    }
    {
      const ScopedSpan span(&rec, "sim.collect", parent, op);
      report.metrics = sim::collect_metrics(server_ptrs, options.horizon,
                                            options.warmup_fraction);
    }

    report.estimated_execution.resize(n);
    report.estimate_available.resize(n);
    BidProfile verified = intents_;
    {
      const ScopedSpan span(&rec, "sim.estimate", parent, op);
      for (std::size_t i = 0; i < n; ++i) {
        const auto estimate =
            options.trim_fraction > 0.0
                ? sim::estimate_execution_value_trimmed(
                      servers[i]->completions(), options.service_model,
                      options.trim_fraction)
                : sim::estimate_execution_value(servers[i]->completions(),
                                                options.service_model);
        report.estimate_available[i] = estimate.has_value();
        if (!estimate) obs::ProtocolProbes::get().estimate_fallbacks.inc();
        report.estimated_execution[i] =
            estimate ? estimate->execution_value : intents_.bids[i];
        verified.executions[i] = report.estimated_execution[i];
      }
    }
    {
      const ScopedSpan span(&rec, "core.round", parent, op);
      lbmv::core::DeltaRoundEngine engine(mechanism_, config_.family_ptr(),
                                          config_.arrival_rate(), verified);
      report.outcome = engine.outcome();
      engine.sync(intents_.bids, intents_.executions);
      report.oracle_outcome = engine.outcome();
    }
    report.messages += n;
    if (obs::enabled()) {
      const double oracle = report.oracle_outcome.total_payment();
      const double estimated = report.outcome.total_payment();
      obs::Monitors::get().protocol_estimate_gap.check(
          (estimated - oracle) / std::max(1.0, std::fabs(oracle)),
          {{"estimated_total", estimated}, {"oracle_total", oracle}});
    }
    return report;
  }

  static constexpr std::size_t kReplications = 4;

  SystemConfig config_;
  BidProfile intents_;
  CompBonusMechanism mechanism_;
  lbmv::sim::VerifiedProtocol protocol_;
  lbmv::sim::ReplicationOptions replication_;
  lbmv::sim::ReplicatedRoundReport last_;
};

// ---- epochs / nonlinear -----------------------------------------------------

// One run_epochs horizon: a mechanism, its initial config and the options.
struct Horizon {
  std::shared_ptr<const CompBonusMechanism> mechanism;
  SystemConfig config;
  lbmv::sim::EpochOptions options;
};

// One op is a sequence of run_epochs horizons (one for `epochs`, an M/M/1
// and a workload-dependent-rate horizon for `nonlinear`), obs off.
class EpochsWorkload final : public Workload {
 public:
  explicit EpochsWorkload(std::vector<Horizon> horizons)
      : horizons_(std::move(horizons)), last_(horizons_.size()) {}

  void run_op() override {
    for (std::size_t h = 0; h < horizons_.size(); ++h) {
      const Horizon& hz = horizons_[h];
      last_[h] = lbmv::sim::run_epochs(*hz.mechanism, hz.config, hz.options);
    }
  }

  void run_traced_op(SpanRecorder& rec, std::uint64_t op, int root) override {
    for (std::size_t h = 0; h < horizons_.size(); ++h) {
      const Horizon& hz = horizons_[h];
      last_[h] = traced_run_epochs(*hz.mechanism, hz.config, hz.options, rec,
                                   op, root);
    }
  }

  [[nodiscard]] std::uint64_t check() const override {
    Digest d;
    for (std::size_t h = 0; h < horizons_.size(); ++h) {
      const Horizon& hz = horizons_[h];
      check_epochs(last_[h], hz.config.arrival_rate(),
                   static_cast<std::size_t>(hz.options.epochs));
      digest_epochs(d, last_[h]);
    }
    return d.value();
  }

  [[nodiscard]] bool obs_on() const override { return false; }
  [[nodiscard]] std::size_t workers() const override { return 1; }
  [[nodiscard]] std::size_t delta_agents() const override {
    return horizons_.front().config.size();
  }
  [[nodiscard]] bool epoch_op() const override { return true; }

 private:
  std::vector<Horizon> horizons_;
  std::vector<lbmv::sim::EpochReport> last_;
};

// Linear comp-bonus at scale: n = 1e4 types log-uniform in [1, 10],
// R = 0.2 n, 200 epochs of sigma = 0.05 drift in [0.5, 20], bid lags
// cycling 0-3, so every agent changes every epoch.
std::unique_ptr<Workload> make_epochs(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  const std::size_t n = tiny ? 64 : 10000;
  Generator gen(seed, 2);
  lbmv::sim::EpochOptions options;
  options.epochs = tiny ? 10 : 100;
  options.drift_sigma = 0.05;
  options.min_type = 0.5;
  options.max_type = 20.0;
  options.seed = gen.seed();
  options.bid_lags.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    options.bid_lags[i] = static_cast<int>(i % 4);
  }
  std::vector<Horizon> horizons;
  horizons.push_back(Horizon{std::make_shared<const CompBonusMechanism>(),
                             SystemConfig(gen.log_uniform(n, 1.0, 10.0),
                                          0.2 * static_cast<double>(n)),
                             options});
  return std::make_unique<EpochsWorkload>(std::move(horizons));
}

// Two nonlinear families, 5 epochs each, no bid lag.  M/M/1: mean service
// times log-uniform in [0.1, 1], R = 0.3 sum mu, so about a third of the
// servers sit idle and the active set moves with the drift.  Workload-
// dependent rates: gamma = 0.5, types in [1, 10], R = 2n.
std::unique_ptr<Workload> make_nonlinear(std::uint64_t seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  const std::size_t n = tiny ? 32 : 1000;
  Generator gen(seed, 3);
  lbmv::sim::EpochOptions options;
  options.epochs = tiny ? 5 : 2;
  options.drift_sigma = 0.05;

  std::vector<Horizon> horizons;
  const std::vector<double> service = gen.log_uniform(n, 0.1, 1.0);
  options.min_type = 0.05;
  options.max_type = 2.0;
  options.seed = gen.seed();
  horizons.push_back(Horizon{
      std::make_shared<const CompBonusMechanism>(
          std::make_shared<const lbmv::alloc::MM1Allocator>()),
      SystemConfig(service, 0.3 * sum_inverse(service),
                   std::make_shared<const lbmv::model::MM1Family>()),
      options});

  options.min_type = 0.5;
  options.max_type = 20.0;
  options.seed = gen.seed();
  horizons.push_back(Horizon{
      std::make_shared<const CompBonusMechanism>(
          std::make_shared<const lbmv::alloc::WorkloadAllocator>()),
      SystemConfig(gen.log_uniform(n, 1.0, 10.0),
                   2.0 * static_cast<double>(n),
                   std::make_shared<const lbmv::model::WorkloadFamily>(0.5)),
      options});
  return std::make_unique<EpochsWorkload>(std::move(horizons));
}

// ---- certify ----------------------------------------------------------------

// Four calls: audit_all on the linear family (default grid), on M/M/1 at
// 10% load and on the workload family (the nonlinear-kernel suite's grid),
// then a full-feedback learning run.  Every call runs serially on the
// calling thread (AuditOptions::parallel = false).
class CertifyWorkload final : public Workload {
 public:
  CertifyWorkload(std::uint64_t seed, Scale scale) {
    const bool tiny = scale == Scale::kTiny;
    Generator gen(seed, 4);
    const std::size_t n_linear = tiny ? 64 : kLinearAgents;
    linear_.emplace(gen.log_uniform(n_linear, 1.0, 10.0),
                    0.2 * static_cast<double>(n_linear));
    const std::size_t n_mm1 = tiny ? 16 : kNonlinearAgents;
    const std::vector<double> service = gen.log_uniform(n_mm1, 0.1, 1.0);
    mm1_.emplace(service, 0.1 * sum_inverse(service),
                 std::make_shared<const lbmv::model::MM1Family>());
    const std::size_t n_workload = tiny ? 16 : kNonlinearAgents;
    workload_.emplace(
        gen.log_uniform(n_workload, 1.0, 10.0),
        2.0 * static_cast<double>(n_workload),
        std::make_shared<const lbmv::model::WorkloadFamily>(0.5));
    const std::size_t n_learn = tiny ? 16 : kLearningAgents;
    learning_config_.emplace(gen.log_uniform(n_learn, 1.0, 10.0),
                             0.2 * static_cast<double>(n_learn));
    learning_.full_feedback = true;
    learning_.rounds = tiny ? 50 : kLearningRounds;
    learning_.seed = gen.seed();
    nonlinear_grid_.bid_multipliers = {0.85, 0.9, 1.0, 1.2, 1.5, 2.0, 3.0};
    nonlinear_grid_.exec_multipliers = {1.0, 1.1, 1.2};
    linear_grid_.parallel = false;
    nonlinear_grid_.parallel = false;
  }

  void run_op() override {
    last_linear_ = lbmv::core::TruthfulnessAuditor(linear_mech_)
                       .audit_all(*linear_, linear_grid_);
    last_mm1_ = lbmv::core::TruthfulnessAuditor(mm1_mech_)
                    .audit_all(*mm1_, nonlinear_grid_);
    last_workload_ = lbmv::core::TruthfulnessAuditor(workload_mech_)
                         .audit_all(*workload_, nonlinear_grid_);
    last_learning_ =
        lbmv::strategy::run_learning(linear_mech_, *learning_config_,
                                     learning_);
  }

  void run_traced_op(SpanRecorder& rec, std::uint64_t op, int root) override {
    {
      const ScopedSpan span(&rec, "core.audit_linear", root, op);
      last_linear_ = lbmv::core::TruthfulnessAuditor(linear_mech_)
                         .audit_all(*linear_, linear_grid_);
    }
    {
      const ScopedSpan span(&rec, "core.audit_mm1", root, op);
      last_mm1_ = lbmv::core::TruthfulnessAuditor(mm1_mech_)
                      .audit_all(*mm1_, nonlinear_grid_);
    }
    {
      const ScopedSpan span(&rec, "core.audit_workload", root, op);
      last_workload_ = lbmv::core::TruthfulnessAuditor(workload_mech_)
                           .audit_all(*workload_, nonlinear_grid_);
    }
    {
      const ScopedSpan span(&rec, "strategy.learning", root, op);
      last_learning_ = lbmv::strategy::run_learning(
          linear_mech_, *learning_config_, learning_);
    }
  }

  [[nodiscard]] std::uint64_t check() const override {
    Digest d;
    const auto audits = {&last_linear_, &last_mm1_, &last_workload_};
    for (const auto* reports : audits) {
      require(!reports->empty(), "empty audit");
      for (const auto& r : *reports) {
        require(r.truthful_dominant(),
                "agent " + std::to_string(r.agent) +
                    ": truth-telling is not dominant on the grid");
        require(r.truthful_utility >=
                    -1e-9 * std::max(1.0, std::fabs(r.truthful_utility)),
                "agent " + std::to_string(r.agent) +
                    ": voluntary participation fails");
        d.add(static_cast<std::uint64_t>(r.agent));
        d.add(r.truthful_utility);
        d.add(r.best.bid_mult);
        d.add(r.best.exec_mult);
        d.add(r.best.utility);
        d.add(r.max_gain);
      }
    }
    const auto& l = last_learning_;
    require(l.latency_trace.size() == static_cast<std::size_t>(learning_.rounds),
            "learning run is missing rounds");
    d.add(l.final_bid_mult);
    d.add(l.final_exec_mult);
    d.add(l.latency_trace);
    d.add(l.final_greedy_latency);
    d.add(l.truthful_fraction);
    return d.value();
  }

  [[nodiscard]] bool obs_on() const override { return false; }
  [[nodiscard]] std::size_t workers() const override { return 1; }
  [[nodiscard]] std::size_t delta_agents() const override { return 0; }
  [[nodiscard]] bool epoch_op() const override { return false; }

 private:
  static constexpr std::size_t kLinearAgents = 2000;
  static constexpr std::size_t kNonlinearAgents = 100;
  static constexpr std::size_t kLearningAgents = 256;
  static constexpr int kLearningRounds = 300;

  CompBonusMechanism linear_mech_;
  CompBonusMechanism mm1_mech_{
      std::make_shared<const lbmv::alloc::MM1Allocator>()};
  CompBonusMechanism workload_mech_{
      std::make_shared<const lbmv::alloc::WorkloadAllocator>()};
  std::optional<SystemConfig> linear_, mm1_, workload_, learning_config_;
  lbmv::core::AuditOptions linear_grid_;  // the default grid
  lbmv::core::AuditOptions nonlinear_grid_;
  lbmv::strategy::LearningOptions learning_;
  std::vector<lbmv::core::AuditReport> last_linear_, last_mm1_,
      last_workload_;
  lbmv::strategy::LearningResult last_learning_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale,
                                        lbmv::util::ThreadPool& pool) {
  if (name == "protocol") {
    return std::make_unique<ProtocolWorkload>(seed, scale, pool);
  }
  if (name == "epochs") return make_epochs(seed, scale);
  if (name == "nonlinear") return make_nonlinear(seed, scale);
  if (name == "certify") return std::make_unique<CertifyWorkload>(seed, scale);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace e2e
