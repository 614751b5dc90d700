#include "lbmv/cli/commands.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/analysis/paper_experiments.h"
#include "lbmv/analysis/report.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/frugality.h"
#include "lbmv/core/invariants.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/core/vcg.h"
#include "lbmv/dist/protocols.h"
#include "lbmv/game/wardrop.h"
#include "lbmv/obs/flight_recorder.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/obs/obs.h"
#include "lbmv/obs/sampler.h"
#include "lbmv/obs/trace.h"
#include "lbmv/sim/epochs.h"
#include "lbmv/sim/protocol.h"
#include "lbmv/util/ascii_chart.h"
#include "lbmv/strategy/best_response.h"
#include "lbmv/strategy/learning.h"
#include "lbmv/util/cli.h"
#include "lbmv/util/json.h"
#include "lbmv/util/table.h"

namespace lbmv::cli {
namespace {

using util::ArgParser;
using util::JsonValue;
using util::Table;
using util::UsageError;

std::unique_ptr<core::Mechanism> make_mechanism(const std::string& name) {
  if (name == "comp-bonus") return std::make_unique<core::CompBonusMechanism>();
  if (name == "vcg") return std::make_unique<core::VcgMechanism>();
  if (name == "archer-tardos") {
    return std::make_unique<core::ArcherTardosMechanism>();
  }
  if (name == "no-payment") return std::make_unique<core::NoPaymentMechanism>();
  throw UsageError("unknown mechanism '" + name +
                   "' (comp-bonus | vcg | archer-tardos | no-payment)");
}

/// Integer option \p name narrowed to int; out-of-range values are usage
/// errors instead of a silent wrap.
int option_as_int(const ArgParser& args, const std::string& name) {
  const long value = args.option_as_long(name);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw UsageError("option --" + name + " is out of range: " +
                     args.option(name));
  }
  return static_cast<int>(value);
}

/// A number read as an agent index: it must be an integer in [0, n).  The
/// check precedes the cast, which is undefined for NaN, negatives and huge
/// values.
std::size_t agent_index(double value, std::size_t n, const std::string& what) {
  if (!(value >= 0.0 && value < static_cast<double>(n)) ||
      value != std::floor(value)) {
    std::ostringstream os;
    os << what << " must be an agent index in [0, " << n << "), got "
       << value;
    throw UsageError(os.str());
  }
  return static_cast<std::size_t>(value);
}

model::SystemConfig config_from_args(const ArgParser& args) {
  const auto types = args.option_as_doubles("types");
  const double rate = args.option_as_double("rate");
  for (double t : types) {
    if (t <= 0.0) throw UsageError("--types entries must be positive");
  }
  if (rate <= 0.0) throw UsageError("--rate must be positive");
  return model::SystemConfig(types, rate);
}

/// --deviate i:bid_mult[:exec_mult], repeatable via comma separation
/// (e.g. "0:3:1.5,2:0.5").
model::BidProfile profile_from_deviations(const model::SystemConfig& config,
                                          const std::string& spec) {
  model::BidProfile profile = model::BidProfile::truthful(config);
  if (spec.empty()) return profile;
  std::stringstream groups(spec);
  std::string group;
  while (std::getline(groups, group, ',')) {
    std::stringstream fields(group);
    std::string field;
    std::vector<std::string> parts;
    while (std::getline(fields, field, ':')) parts.push_back(field);
    if (parts.size() < 2 || parts.size() > 3) {
      throw UsageError("--deviate expects agent:bid_mult[:exec_mult]");
    }
    try {
      const std::size_t agent =
          agent_index(std::stod(parts[0]), config.size(), "--deviate agent");
      const double bid_mult = std::stod(parts[1]);
      const double exec_mult = parts.size() == 3 ? std::stod(parts[2]) : 1.0;
      profile.bids[agent] = config.true_value(agent) * bid_mult;
      profile.executions[agent] = config.true_value(agent) * exec_mult;
    } catch (const UsageError&) {
      throw;
    } catch (const std::exception&) {
      throw UsageError("malformed --deviate group '" + group + "'");
    }
  }
  return profile;
}

JsonValue outcome_to_json(const core::MechanismOutcome& outcome) {
  JsonValue::Array agents;
  for (const auto& a : outcome.agents) {
    JsonValue::Object agent;
    agent["allocation"] = a.allocation;
    agent["compensation"] = a.compensation;
    agent["bonus"] = a.bonus;
    agent["payment"] = a.payment;
    agent["valuation"] = a.valuation;
    agent["utility"] = a.utility;
    agents.emplace_back(std::move(agent));
  }
  JsonValue::Object root;
  root["actual_latency"] = outcome.actual_latency;
  root["reported_latency"] = outcome.reported_latency;
  root["total_payment"] = outcome.total_payment();
  root["agents"] = JsonValue(std::move(agents));
  return JsonValue(std::move(root));
}

void print_outcome(const core::MechanismOutcome& outcome, std::ostream& out) {
  Table table({"Agent", "jobs/s", "Compensation", "Bonus", "Payment",
               "Utility"});
  for (std::size_t i = 0; i < outcome.agents.size(); ++i) {
    const auto& a = outcome.agents[i];
    table.add_row({"C" + std::to_string(i + 1), Table::num(a.allocation, 4),
                   Table::num(a.compensation, 4), Table::num(a.bonus, 4),
                   Table::num(a.payment, 4), Table::num(a.utility, 4)});
  }
  out << "actual latency: " << Table::num(outcome.actual_latency, 4)
      << "   reported latency: "
      << Table::num(outcome.reported_latency, 4) << "\n"
      << table.to_markdown();
}

int cmd_paper(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv paper", "regenerate the paper's evaluation");
  args.add_option("rate", "arrival rate (jobs/s)", "20");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = analysis::paper_table1_config().with_arrival_rate(
      args.option_as_double("rate"));
  const core::CompBonusMechanism mechanism;
  const auto results = analysis::run_paper_experiments(mechanism, config);
  out << analysis::render_table1(config) << '\n'
      << analysis::render_table2() << '\n'
      << analysis::render_figure1(results) << '\n'
      << analysis::render_figure2(results) << '\n'
      << analysis::render_figure6(results);
  return 0;
}

int cmd_run(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv run", "run one mechanism round");
  args.add_option("types", "true values, comma separated", "1,2,5,10");
  args.add_option("rate", "arrival rate (jobs/s)", "20");
  args.add_option("mechanism", "mechanism name", "comp-bonus");
  args.add_option("deviate", "agent:bid_mult[:exec_mult], comma separated",
                  "");
  args.add_flag("json", "emit JSON instead of a table");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const auto mechanism = make_mechanism(args.option("mechanism"));
  const auto profile =
      profile_from_deviations(config, args.option("deviate"));
  const auto outcome = mechanism->run(config, profile);
  if (args.flag("json")) {
    out << outcome_to_json(outcome).dump(2) << '\n';
  } else {
    print_outcome(outcome, out);
  }
  return 0;
}

int cmd_audit(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv audit", "grid-audit truthfulness per agent");
  args.add_option("types", "true values, comma separated", "1,2,5,10");
  args.add_option("rate", "arrival rate (jobs/s)", "20");
  args.add_option("mechanism", "mechanism name", "comp-bonus");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const auto mechanism = make_mechanism(args.option("mechanism"));
  const core::TruthfulnessAuditor auditor(*mechanism);
  Table table({"Agent", "Truthful utility", "Best deviation", "Max gain",
               "Dominant?"});
  bool all_ok = true;
  for (const auto& report : auditor.audit_all(config)) {
    const bool ok = report.truthful_dominant(1e-7);
    all_ok &= ok;
    std::ostringstream best;
    best << "bid x" << report.best.bid_mult << ", exec x"
         << report.best.exec_mult;
    table.add_row({"C" + std::to_string(report.agent + 1),
                   Table::num(report.truthful_utility, 4), best.str(),
                   Table::num(report.max_gain, 6), ok ? "yes" : "NO"});
  }
  out << "mechanism: " << mechanism->name()
      << (mechanism->uses_verification() ? " (with verification)" : "")
      << "\n"
      << table.to_markdown() << "voluntary participation: "
      << (core::voluntary_participation_holds(*mechanism, config) ? "holds"
                                                                  : "VIOLATED")
      << "\n";
  return all_ok ? 0 : 1;
}

int cmd_frugality(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv frugality", "payment structure at the truthful profile");
  args.add_option("types", "true values, comma separated", "1,2,5,10");
  args.add_option("rate", "arrival rate (jobs/s)", "20");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const core::CompBonusMechanism mechanism;
  const auto outcome =
      mechanism.run(config, model::BidProfile::truthful(config));
  const auto report = core::frugality_of(outcome);
  out << "total payment:     " << Table::num(report.total_payment, 4) << '\n'
      << "total |valuation|: " << Table::num(report.total_valuation, 4)
      << '\n'
      << "ratio:             " << Table::num(report.ratio(), 4) << '\n';
  return 0;
}

int cmd_dynamics(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv dynamics", "iterated best-response dynamics");
  args.add_option("types", "true values, comma separated", "1,2,5");
  args.add_option("rate", "arrival rate (jobs/s)", "10");
  args.add_option("mechanism", "mechanism name", "comp-bonus");
  args.add_option("rounds", "max rounds", "20");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const auto mechanism = make_mechanism(args.option("mechanism"));
  strategy::BestResponseOptions options;
  options.max_rounds = option_as_int(args, "rounds");
  const auto result =
      strategy::best_response_dynamics(*mechanism, config, options);
  out << "converged: " << (result.converged ? "yes" : "no") << " after "
      << result.rounds << " rounds\n";
  Table table({"Agent", "Final bid / true", "Final exec / true"});
  for (std::size_t i = 0; i < config.size(); ++i) {
    table.add_row({"C" + std::to_string(i + 1),
                   Table::num(result.final_bids[i] / config.true_value(i), 3),
                   Table::num(
                       result.final_executions[i] / config.true_value(i),
                       3)});
  }
  out << table.to_markdown() << "final latency: "
      << Table::num(result.final_actual_latency, 4) << '\n';
  return 0;
}

int cmd_learn(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv learn", "epsilon-greedy bandit agents");
  args.add_option("types", "true values, comma separated", "1,2,5");
  args.add_option("rate", "arrival rate (jobs/s)", "10");
  args.add_option("mechanism", "mechanism name", "comp-bonus");
  args.add_option("rounds", "learning rounds", "800");
  args.add_option("seed", "rng seed", "5");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const auto mechanism = make_mechanism(args.option("mechanism"));
  strategy::LearningOptions options;
  options.rounds = option_as_int(args, "rounds");
  options.seed = static_cast<std::uint64_t>(args.option_as_long("seed"));
  const auto result = strategy::run_learning(*mechanism, config, options);
  Table table({"Agent", "Greedy bid mult", "Greedy exec mult"});
  for (std::size_t i = 0; i < config.size(); ++i) {
    table.add_row({"C" + std::to_string(i + 1),
                   Table::num(result.final_bid_mult[i], 2),
                   Table::num(result.final_exec_mult[i], 2)});
  }
  out << table.to_markdown() << "truthful fraction: "
      << Table::num(result.truthful_fraction, 2)
      << ", greedy-profile latency: "
      << Table::num(result.final_greedy_latency, 4) << '\n';
  return 0;
}

int cmd_protocol(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv protocol",
                 "one simulated round with estimated verification");
  args.add_option("types", "true values (light load!), comma separated",
                  "0.01,0.01,0.02");
  args.add_option("rate", "arrival rate (jobs/s)", "3");
  args.add_option("horizon", "simulated seconds", "20000");
  args.add_option("seed", "rng seed", "42");
  args.add_option("deviate", "agent:bid_mult[:exec_mult]", "");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const core::CompBonusMechanism mechanism;
  sim::ProtocolOptions options;
  options.horizon = args.option_as_double("horizon");
  options.seed = static_cast<std::uint64_t>(args.option_as_long("seed"));
  const sim::VerifiedProtocol protocol(mechanism, options);
  const auto report = protocol.run_round(
      config, profile_from_deviations(config, args.option("deviate")));
  Table table({"Agent", "jobs/s", "Estimated t~", "Payment (estimated)",
               "Payment (oracle)"});
  for (std::size_t i = 0; i < config.size(); ++i) {
    table.add_row({"C" + std::to_string(i + 1),
                   Table::num(report.allocation[i], 4),
                   Table::num(report.estimated_execution[i], 5),
                   Table::num(report.outcome.agents[i].payment, 5),
                   Table::num(report.oracle_outcome.agents[i].payment, 5)});
  }
  out << "messages: " << report.messages << " (3n), jobs: "
      << report.metrics.total_jobs() << '\n'
      << table.to_markdown() << "measured total latency: "
      << Table::num(report.metrics.measured_total_latency, 5)
      << "  analytic: "
      << Table::num(report.oracle_outcome.actual_latency, 5) << '\n';
  return 0;
}

int cmd_dist(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv dist", "distributed payment deployments");
  args.add_option("types", "true values, comma separated", "1,2,5,10");
  args.add_option("rate", "arrival rate (jobs/s)", "20");
  args.add_option("topology", "star | broadcast | tree | private", "tree");
  args.add_option("deviate", "agent:bid_mult[:exec_mult]", "");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const std::string topology_name = args.option("topology");
  dist::Topology topology;
  if (topology_name == "star") {
    topology = dist::Topology::kStar;
  } else if (topology_name == "broadcast") {
    topology = dist::Topology::kBroadcast;
  } else if (topology_name == "tree") {
    topology = dist::Topology::kTree;
  } else if (topology_name == "private") {
    topology = dist::Topology::kPrivate;
  } else {
    throw UsageError("unknown topology '" + topology_name + "'");
  }
  const auto report = dist::run_distributed_round(
      topology, config,
      profile_from_deviations(config, args.option("deviate")));
  Table table({"Agent", "jobs/s", "Payment", "Utility"});
  for (std::size_t i = 0; i < config.size(); ++i) {
    table.add_row({"C" + std::to_string(i + 1),
                   Table::num(report.allocation[i], 4),
                   Table::num(report.payments[i], 4),
                   Table::num(report.utilities[i], 4)});
  }
  out << "protocol: " << report.protocol << ", messages: " << report.messages
      << ", doubles: " << report.doubles_transferred
      << ", time: " << Table::num(report.completion_time, 3) << "s\n"
      << table.to_markdown();
  return 0;
}

int cmd_config(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv config", "run a round described by a JSON file");
  args.add_option("file", "path to the JSON description", "");
  args.add_flag("json", "emit JSON instead of a table");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const std::string path = args.option("file");
  if (path.empty()) throw UsageError("--file is required");
  std::ifstream in(path);
  if (!in) throw UsageError("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buffer.str());

  std::vector<double> types;
  for (const auto& t : doc.at("true_values").as_array()) {
    types.push_back(t.as_number());
  }
  const model::SystemConfig config(types,
                                   doc.at("arrival_rate").as_number());
  model::BidProfile profile = model::BidProfile::truthful(config);
  if (doc.contains("deviations")) {
    for (const auto& d : doc.at("deviations").as_array()) {
      const std::size_t agent = agent_index(
          d.at("agent").as_number(), config.size(), "deviations[].agent");
      profile.bids[agent] =
          config.true_value(agent) * d.number_or("bid_mult", 1.0);
      profile.executions[agent] =
          config.true_value(agent) * d.number_or("exec_mult", 1.0);
    }
  }
  const std::string mechanism_name =
      doc.contains("mechanism") ? doc.at("mechanism").as_string()
                                : "comp-bonus";
  const auto mechanism = make_mechanism(mechanism_name);
  const auto outcome = mechanism->run(config, profile);
  if (args.flag("json")) {
    out << outcome_to_json(outcome).dump(2) << '\n';
  } else {
    print_outcome(outcome, out);
  }
  return 0;
}

int cmd_poa(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv poa",
                 "price of anarchy of selfish routing on parallel links");
  args.add_option("types", "linear slopes t_i, comma separated", "1,2,5");
  args.add_option("constants", "optional constant terms a_i (affine links)",
                  "");
  args.add_option("rate", "demand (jobs/s)", "10");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto slopes = args.option_as_doubles("types");
  std::vector<double> constants(slopes.size(), 0.0);
  if (!args.option("constants").empty()) {
    constants = args.option_as_doubles("constants");
    if (constants.size() != slopes.size()) {
      throw UsageError("--constants must match --types in length");
    }
  }
  std::vector<std::unique_ptr<model::LatencyFunction>> links;
  for (std::size_t i = 0; i < slopes.size(); ++i) {
    if (constants[i] == 0.0) {
      links.push_back(std::make_unique<model::LinearLatency>(slopes[i]));
    } else {
      links.push_back(
          std::make_unique<model::AffineLatency>(constants[i], slopes[i]));
    }
  }
  const auto report =
      game::price_of_anarchy(links, args.option_as_double("rate"));
  out << "equilibrium latency: " << Table::num(report.equilibrium_latency, 4)
      << '\n'
      << "optimal latency:     " << Table::num(report.optimal_latency, 4)
      << '\n'
      << "price of anarchy:    " << Table::num(report.price_of_anarchy(), 4)
      << '\n';
  return 0;
}

int cmd_coalition(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv coalition", "joint-deviation audit for agent pairs");
  args.add_option("types", "true values, comma separated", "1,2,5,10");
  args.add_option("rate", "arrival rate (jobs/s)", "20");
  args.add_option("pair", "two agent indices, comma separated", "0,1");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const auto pair = args.option_as_doubles("pair");
  if (pair.size() != 2) throw UsageError("--pair expects two indices");
  const core::CompBonusMechanism mechanism;
  const core::CoalitionAuditor auditor(mechanism);
  const auto report = auditor.audit_pair(
      config, agent_index(pair[0], config.size(), "--pair"),
      agent_index(pair[1], config.size(), "--pair"));
  out << "joint truthful utility: "
      << Table::num(report.truthful_joint_utility, 4) << '\n'
      << "best joint utility:     "
      << Table::num(report.best.joint_utility, 4) << " (A: bid x"
      << report.best.bid_mult_a << " exec x" << report.best.exec_mult_a
      << "; B: bid x" << report.best.bid_mult_b << " exec x"
      << report.best.exec_mult_b << ")\n"
      << "max joint gain:         " << Table::num(report.max_joint_gain, 4)
      << '\n'
      << "coalition-proof:        "
      << (report.coalition_proof(1e-6) ? "yes" : "NO") << '\n';
  return report.coalition_proof(1e-6) ? 0 : 1;
}

int cmd_epochs(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv epochs", "multi-epoch operation under drift");
  args.add_option("types", "true values, comma separated", "1,2,5");
  args.add_option("rate", "arrival rate (jobs/s)", "10");
  args.add_option("epochs", "number of epochs", "30");
  args.add_option("drift", "per-epoch log-speed sigma", "0.1");
  args.add_option("lag", "bid staleness (epochs), same for every agent",
                  "0");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const core::CompBonusMechanism mechanism;
  sim::EpochOptions options;
  options.epochs = option_as_int(args, "epochs");
  options.drift_sigma = args.option_as_double("drift");
  options.bid_lags.assign(config.size(), option_as_int(args, "lag"));
  const auto report = sim::run_epochs(mechanism, config, options);
  out << "mean efficiency (optimal/achieved): "
      << Table::num(report.mean_efficiency, 4) << '\n';
  Table table({"Agent", "Cumulative utility"});
  for (std::size_t i = 0; i < config.size(); ++i) {
    table.add_row({"C" + std::to_string(i + 1),
                   Table::num(report.cumulative_utility[i], 3)});
  }
  out << table.to_markdown();
  return 0;
}

/// `family{key="value"}` -> `value`; plain family names pass through.
std::string metric_label_value(const std::string& name) {
  const auto open = name.find('"');
  const auto close = name.rfind('"');
  if (open == std::string::npos || close <= open) return name;
  return name.substr(open + 1, close - open - 1);
}

/// Last <= 16 per-interval deltas of one sampled series, for sparklines.
std::vector<double> recent_deltas(const obs::TimeSeriesSampler& sampler,
                                  const std::string& name) {
  const obs::SeriesView view = sampler.series_for(name);
  std::vector<double> deltas;
  const std::size_t first =
      view.points.size() > 17 ? view.points.size() - 17 : 1;
  for (std::size_t p = first; p < view.points.size(); ++p) {
    deltas.push_back(view.points[p].value - view.points[p - 1].value);
  }
  return deltas;
}

void render_obs_dashboard(const obs::MetricsSnapshot& snap, std::ostream& out,
                          const obs::TimeSeriesSampler* sampler = nullptr) {
  if (snap.counters.empty() && snap.gauges.empty() &&
      snap.histograms.empty()) {
    out << "(no metrics recorded"
        << (obs::kCompiledIn ? ")" : "; built with LBMV_OBS=0)") << "\n";
    return;
  }
  const bool windowed = sampler != nullptr && sampler->sample_count() >= 2;
  Table counters(windowed
                     ? std::vector<std::string>{"Counter", "Count", "Rate/s",
                                                "Delta (spark)"}
                     : std::vector<std::string>{"Counter", "Count"});
  for (const auto& [name, value] : snap.counters) {
    if (!windowed) {
      counters.add_row({name, std::to_string(value)});
      continue;
    }
    counters.add_row({name, std::to_string(value),
                      Table::num(sampler->rate_per_sec(name), 1),
                      util::sparkline(recent_deltas(*sampler, name))});
  }
  Table gauges({"Gauge", "Value"});
  for (const auto& [name, value] : snap.gauges) {
    gauges.add_row({name, Table::num(value, 0)});
  }
  Table hists({"Histogram", "Count", "Mean", "p50", "p95", "p99", "Max"});
  for (const auto& [name, h] : snap.histograms) {
    hists.add_row({name, std::to_string(h.count), Table::num(h.mean(), 4),
                   Table::num(h.quantile(0.50), 4),
                   Table::num(h.quantile(0.95), 4),
                   Table::num(h.quantile(0.99), 4), Table::num(h.max, 4)});
  }
  out << counters.to_markdown() << '\n';
  // No built-in probe is a gauge; print the table only when one exists.
  if (!snap.gauges.empty()) out << gauges.to_markdown() << '\n';
  out << hists.to_markdown();

  std::vector<util::Bar> completion_bars;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("lbmv_server_completions_total{", 0) == 0) {
      completion_bars.push_back(
          {metric_label_value(name), static_cast<double>(value)});
    }
  }
  if (!completion_bars.empty()) {
    out << '\n'
        << util::bar_chart("jobs completed per server", completion_bars);
  }

  // Always-on summary lines (every workload, every refresh): the health of
  // the invariant monitors, the 4-lane grid kernels, and the flight
  // recorder — not buried in the tables above.
  const obs::MonitorTotals totals = obs::monitor_totals(snap);
  out << '\n'
      << "invariant monitors: " << totals.checks << " checks, "
      << totals.violations << " violations\n";
  std::uint64_t grid_evals = 0;
  std::uint64_t lanes_wasted = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "lbmv_strategy_grid_evals_total") grid_evals = value;
    if (name == "lbmv_strategy_grid_lanes_wasted_total") lanes_wasted = value;
  }
  out << "grid kernels: " << grid_evals << " candidate bids swept ("
      << lanes_wasted << " padded tail lanes)\n";
  const auto flight_records = obs::FlightRecorder::global().records();
  out << "flight recorder: " << flight_records.size()
      << " records retained, " << obs::FlightRecorder::global().dropped()
      << " dropped";
  std::size_t errors = 0;
  for (const auto& rec : flight_records) {
    if (rec.severity == obs::Severity::kError) ++errors;
  }
  if (errors > 0) out << " (" << errors << " errors)";
  out << '\n';
}

int cmd_obs(const std::vector<std::string>& rest, std::ostream& out) {
  ArgParser args("lbmv obs",
                 "metrics dashboard over a replicated protocol run");
  args.add_option("types", "true values (light load!), comma separated",
                  "0.01,0.01,0.02");
  args.add_option("rate", "arrival rate (jobs/s)", "3");
  args.add_option("horizon", "simulated seconds per replication", "2000");
  args.add_option("replications", "independent replications", "8");
  args.add_option("seed", "rng seed", "42");
  args.add_option("deviate", "agent:bid_mult[:exec_mult]", "");
  args.add_option("snapshot", "dashboard | json | prom | timeseries",
                  "dashboard");
  args.add_option("trace", "write Chrome trace JSON to this file", "");
  args.add_option("flight", "write flight-recorder JSON-lines to this file",
                  "");
  args.add_option("interval-ms",
                  "refresh period for --watch and the timeseries sampler",
                  "250");
  args.add_option("workload", "protocol | dynamics (best-response rounds)",
                  "protocol");
  args.add_option("rounds", "dynamics rounds for --workload dynamics", "12");
  args.add_flag("watch", "redraw the dashboard while the run progresses");
  args.add_flag("seed-violation",
                "inject one corrupted round so the invariant monitors fire");
  args.parse(rest);
  if (args.flag("help")) {
    out << args.help();
    return 0;
  }
  const auto config = config_from_args(args);
  const std::string mode = args.option("snapshot");
  if (mode != "dashboard" && mode != "json" && mode != "prom" &&
      mode != "timeseries") {
    throw UsageError(
        "--snapshot must be dashboard | json | prom | timeseries");
  }
  const std::string workload = args.option("workload");
  if (workload != "protocol" && workload != "dynamics") {
    throw UsageError("--workload must be protocol | dynamics");
  }
  const std::string trace_path = args.option("trace");
  const std::string flight_path = args.option("flight");
  const auto interval =
      std::chrono::milliseconds(args.option_as_long("interval-ms"));
  const long replications = args.option_as_long("replications");
  if (replications <= 0) throw UsageError("--replications must be positive");

  strategy::BestResponseOptions dynamics;
  if (workload == "dynamics") {
    dynamics.max_rounds = option_as_int(args, "rounds");
  }

  // Fresh recording session: drop anything earlier commands recorded, then
  // enable probes for the run (servers register their labelled families at
  // construction, so this must precede the workload).
  obs::Registry::global().reset();
  obs::TraceRecorder::global().clear();
  obs::FlightRecorder::global().clear();
  obs::set_enabled(true);
  const core::CompBonusMechanism mechanism;
  obs::TimeSeriesSampler sampler;

  // After recording stops: write the flight-recorder and trace files asked
  // for, and take the registry's snapshot.
  const auto end_session = [&] {
    if (!flight_path.empty() &&
        !obs::FlightRecorder::global().dump_jsonl(flight_path)) {
      throw UsageError("cannot write '" + flight_path + "'");
    }
    if (!trace_path.empty()) {
      std::ofstream trace_out(trace_path);
      if (!trace_out) throw UsageError("cannot write '" + trace_path + "'");
      trace_out << obs::TraceRecorder::global().to_chrome_json() << '\n';
    }
    return obs::Registry::global().snapshot();
  };
  // The machine-readable modes print their payload and end the command;
  // false leaves the dashboard to the workload.
  const auto emit = [&](const obs::MetricsSnapshot& snap) {
    if (mode == "json") {
      out << snap.to_json() << '\n';
    } else if (mode == "prom") {
      out << snap.to_prometheus(/*with_timestamps=*/true);
    } else if (mode == "timeseries") {
      out << sampler.to_json() << '\n';
    } else {
      return false;
    }
    return true;
  };

  if (workload == "dynamics") {
    // Strategy-layer workload: run best-response dynamics so the
    // lbmv_strategy_* probe family shows up in the dashboard.
    if (mode == "timeseries") sampler.start(interval);
    const auto result =
        strategy::best_response_dynamics(mechanism, config, dynamics);
    sampler.stop();
    sampler.sample();  // final point so short runs still yield a series
    obs::set_enabled(false);
    const obs::MetricsSnapshot snap = end_session();
    if (emit(snap)) return 0;
    render_obs_dashboard(snap, out);
    std::uint64_t evals = 0;
    std::uint64_t avoided = 0;
    std::uint64_t grid_evals = 0;
    std::uint64_t lanes_wasted = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "lbmv_strategy_deviation_evals_total") evals = value;
      if (name == "lbmv_strategy_mechanism_runs_avoided_total") {
        avoided = value;
      }
      if (name == "lbmv_strategy_grid_evals_total") grid_evals = value;
      if (name == "lbmv_strategy_grid_lanes_wasted_total") {
        lanes_wasted = value;
      }
    }
    out << '\n'
        << "cross-check: " << avoided << " of " << evals
        << " deviation evaluations skipped a mechanism run; " << grid_evals
        << " candidate bids swept by the 4-lane grid kernels (" << lanes_wasted
        << " padded tail lanes); dynamics "
        << (result.converged ? "converged" : "stopped") << " after "
        << result.rounds << " rounds\n";
    return obs::kCompiledIn && (evals == 0 || avoided > evals) ? 1 : 0;
  }

  sim::ProtocolOptions options;
  options.horizon = args.option_as_double("horizon");
  options.seed = static_cast<std::uint64_t>(args.option_as_long("seed"));
  // No warmup: every completion the servers count is also counted by
  // collect_metrics, so the counters cross-check exactly below.
  options.warmup_fraction = 0.0;
  const sim::VerifiedProtocol protocol(mechanism, options);
  sim::ReplicationOptions replication;
  replication.replications = static_cast<std::size_t>(replications);
  replication.root_seed = options.seed;
  const auto profile =
      profile_from_deviations(config, args.option("deviate"));

  sim::ReplicatedRoundReport merged;
  std::exception_ptr run_error;
  const auto run = [&] {
    try {
      merged = protocol.run_replicated(config, profile, replication);
    } catch (...) {
      run_error = std::current_exception();
    }
  };
  if (args.flag("watch") && mode == "dashboard") {
    std::atomic<bool> done{false};
    std::thread runner([&] {
      run();
      done.store(true);
    });
    while (!done.load()) {
      std::this_thread::sleep_for(interval);
      sampler.sample();
      out << "\x1b[2J\x1b[H";  // clear screen, home cursor
      render_obs_dashboard(obs::Registry::global().snapshot(), out,
                           &sampler);
    }
    runner.join();
    sampler.sample();
  } else {
    if (mode == "timeseries") sampler.start(interval);
    run();
    sampler.stop();
    sampler.sample();  // final point so short runs still yield a series
  }

  // Demo path for the README quickstart: corrupt one round's outcome and
  // feed it back through the invariant monitors.  Every seeded defect —
  // infeasible allocation, broken P = C + B split, negative truthful
  // utility — must be flagged, land in the flight recorder, and show in
  // the dashboard's violation totals.
  std::size_t seeded_violations = 0;
  if (args.flag("seed-violation")) {
    core::MechanismOutcome bad = mechanism.run(config, profile);
    std::vector<double> rates = std::move(bad.allocation).release();
    if (!rates.empty()) rates[0] *= 1.05;  // ship more than arrives
    bad.allocation = model::Allocation(std::move(rates));
    if (!bad.agents.empty()) {
      bad.agents[0].payment += 1.0;  // break the P = C + B identity
      bad.agents[0].utility = -1.0;  // fake a participation deficit
    }
    seeded_violations = core::check_round_invariants(
        profile.bids, profile.executions, config.arrival_rate(), bad,
        core::RoundInvariantOptions{
            core::FamilyKind::kLinear,
            /*participation_guaranteed=*/
            mechanism.guarantees_voluntary_participation()});
    // Second seeded defect: an over-saturated M/M/1 round (DESIGN.md §14).
    // The same types re-read as mean service times give service rates
    // mu_i = 1/theta_i; pushing computer 0's load to the brink of mu_0
    // ships more than arrives (feasibility) and blows up its marginal
    // mu_0/(mu_0 - x_0)^2 against the others (M/M/1 KKT stationarity).
    {
      const core::CompBonusMechanism mm1_mechanism(
          std::make_shared<const alloc::MM1Allocator>());
      const model::MM1Family mm1_family;
      core::MechanismOutcome bad_mm1 =
          mm1_mechanism.run(mm1_family, config.arrival_rate(), profile);
      std::vector<double> mm1_rates = std::move(bad_mm1.allocation).release();
      if (!mm1_rates.empty()) {
        const double mu0 = 1.0 / profile.bids[0];
        mm1_rates[0] = mu0 * (1.0 - 1e-12);
      }
      bad_mm1.allocation = model::Allocation(std::move(mm1_rates));
      seeded_violations += core::check_round_invariants(
          profile.bids, profile.executions, config.arrival_rate(), bad_mm1,
          core::RoundInvariantOptions{
              core::FamilyKind::kMm1,
              /*participation_guaranteed=*/
              mm1_mechanism.guarantees_voluntary_participation()});
    }
    sampler.sample();
  }
  obs::set_enabled(false);
  if (run_error) std::rethrow_exception(run_error);
  const obs::MetricsSnapshot snap = end_session();
  if (emit(snap)) return 0;

  render_obs_dashboard(snap, out,
                       sampler.sample_count() >= 2 ? &sampler : nullptr);
  std::uint64_t counted = 0;
  std::uint64_t mech_rounds = 0;
  std::uint64_t fast_rounds = 0;
  std::uint64_t allocs_avoided = 0;
  std::uint64_t sharded_rounds = 0;
  std::uint64_t nonlinear_rounds = 0;
  std::uint64_t newton_iters = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("lbmv_server_completions_total{", 0) == 0) {
      counted += value;
    }
    if (name == "lbmv_mech_rounds_total") mech_rounds = value;
    if (name == "lbmv_mech_linear_fast_rounds_total") fast_rounds = value;
    if (name == "lbmv_mech_allocs_avoided_total") allocs_avoided = value;
    if (name == "lbmv_mech_sharded_rounds_total") sharded_rounds = value;
    if (name == "lbmv_mech_nonlinear_rounds_total") nonlinear_rounds = value;
    if (name == "lbmv_mech_newton_iters_total") newton_iters = value;
  }
  std::size_t measured = 0;
  for (const auto& round : merged.rounds) {
    measured += round.metrics.total_jobs();
  }
  const auto spans = obs::TraceRecorder::global().events().size();
  out << '\n'
      << "cross-check: completion counters " << counted
      << (counted == measured ? " == " : " != ") << measured
      << " SystemMetrics total jobs\n"
      << "fused kernels: " << fast_rounds << " of " << mech_rounds
      << " mechanism rounds on the linear fast path, " << allocs_avoided
      << " heap allocations avoided\n"
      << "vector engine: backend " << core::vector_backend_name() << ", "
      << fast_rounds << " vectorized rounds (" << sharded_rounds
      << " sharded), " << nonlinear_rounds
      << " fused nonlinear-family rounds (" << newton_iters
      << " Newton iterations)\n"
      << "trace: " << spans << " spans retained, "
      << obs::TraceRecorder::global().dropped() << " dropped";
  if (!trace_path.empty()) out << " -> " << trace_path;
  out << '\n';
  if (args.flag("seed-violation")) {
    out << "seeded violation: " << seeded_violations
        << " invariant violations flagged";
    if (!flight_path.empty()) out << " -> " << flight_path;
    out << '\n';
    // The demo must actually catch the corruption when probes are live.
    if (obs::kCompiledIn && seeded_violations == 0) return 1;
  }
  return obs::kCompiledIn && counted != measured ? 1 : 0;
}

constexpr const char* kTopHelp =
    "lbmv — load balancing mechanisms with verification\n"
    "\n"
    "commands:\n"
    "  paper       regenerate the paper's tables and figures\n"
    "  run         run one mechanism round on a custom system\n"
    "  audit       grid-audit truthfulness of a mechanism\n"
    "  frugality   payment structure at the truthful profile\n"
    "  dynamics    iterated best-response dynamics\n"
    "  learn       epsilon-greedy bandit agents\n"
    "  protocol    simulated round with estimated verification\n"
    "  dist        distributed payment deployments\n"
    "  config      run a round described by a JSON file\n"
    "  poa         price of anarchy of selfish routing\n"
    "  coalition   joint-deviation audit for agent pairs\n"
    "  epochs      multi-epoch operation under drifting speeds\n"
    "  obs         metrics dashboard over a replicated protocol run\n"
    "\n"
    "run `lbmv <command> --help` for command options.\n";

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kTopHelp;
    return args.empty() ? 2 : 0;
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "paper") return cmd_paper(rest, out);
    if (command == "run") return cmd_run(rest, out);
    if (command == "audit") return cmd_audit(rest, out);
    if (command == "frugality") return cmd_frugality(rest, out);
    if (command == "dynamics") return cmd_dynamics(rest, out);
    if (command == "learn") return cmd_learn(rest, out);
    if (command == "protocol") return cmd_protocol(rest, out);
    if (command == "dist") return cmd_dist(rest, out);
    if (command == "config") return cmd_config(rest, out);
    if (command == "poa") return cmd_poa(rest, out);
    if (command == "coalition") return cmd_coalition(rest, out);
    if (command == "epochs") return cmd_epochs(rest, out);
    if (command == "obs") return cmd_obs(rest, out);
    err << "unknown command '" << command << "'\n\n" << kTopHelp;
    return 2;
  } catch (const UsageError& e) {
    err << "usage error: " << e.what() << '\n';
    return 2;
  } catch (const util::JsonError& e) {
    err << "config error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace lbmv::cli
