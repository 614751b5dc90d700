// Tests for the argument parser and the `lbmv` CLI commands.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "lbmv/cli/commands.h"
#include "lbmv/obs/obs.h"
#include "lbmv/util/cli.h"
#include "lbmv/util/json.h"

namespace {

using lbmv::cli::run_cli;
using lbmv::util::ArgParser;
using lbmv::util::parse_double_list;
using lbmv::util::UsageError;

// --------------------------------------------------------------------------
// ArgParser

TEST(ArgParser, ParsesFlagsOptionsAndPositionals) {
  ArgParser args("prog", "test");
  args.add_flag("verbose", "talk more");
  args.add_option("rate", "jobs/s", "20");
  args.parse({"--verbose", "--rate", "5", "positional"});
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_EQ(args.option("rate"), "5");
  EXPECT_DOUBLE_EQ(args.option_as_double("rate"), 5.0);
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "positional");
}

TEST(ArgParser, SupportsEqualsSyntaxAndDefaults) {
  ArgParser args("prog", "test");
  args.add_option("rate", "jobs/s", "20");
  args.parse({"--rate=7.5"});
  EXPECT_DOUBLE_EQ(args.option_as_double("rate"), 7.5);
  ArgParser untouched("prog", "test");
  untouched.add_option("rate", "jobs/s", "20");
  untouched.parse({});
  EXPECT_EQ(untouched.option("rate"), "20");
}

TEST(ArgParser, RejectsUnknownAndMalformed) {
  ArgParser args("prog", "test");
  args.add_flag("quick", "");
  args.add_option("rate", "", "1");
  EXPECT_THROW(args.parse({"--nope"}), UsageError);
  ArgParser args2("prog", "test");
  args2.add_option("rate", "", "1");
  EXPECT_THROW(args2.parse({"--rate"}), UsageError);  // missing value
  ArgParser args3("prog", "test");
  args3.add_flag("quick", "");
  EXPECT_THROW(args3.parse({"--quick=yes"}), UsageError);
  ArgParser args4("prog", "test");
  args4.add_option("rate", "", "x");
  args4.parse({});
  EXPECT_THROW((void)args4.option_as_double("rate"), UsageError);
  EXPECT_THROW((void)args4.option("undeclared"), UsageError);
}

TEST(ArgParser, NumericListsAndIntegers) {
  ArgParser args("prog", "test");
  args.add_option("types", "", "1,2.5,10");
  args.add_option("rounds", "", "12");
  args.parse({});
  EXPECT_EQ(args.option_as_doubles("types"),
            (std::vector<double>{1.0, 2.5, 10.0}));
  EXPECT_EQ(args.option_as_long("rounds"), 12);
  EXPECT_THROW((void)parse_double_list("1,,2"), UsageError);
  EXPECT_THROW((void)parse_double_list("1,abc"), UsageError);
  EXPECT_THROW((void)parse_double_list(""), UsageError);
}

TEST(ArgParser, HelpListsDeclaredEntries) {
  ArgParser args("prog", "does things");
  args.add_option("rate", "jobs per second", "20");
  args.add_flag("json", "machine output");
  const std::string help = args.help();
  EXPECT_NE(help.find("does things"), std::string::npos);
  EXPECT_NE(help.find("--rate"), std::string::npos);
  EXPECT_NE(help.find("jobs per second"), std::string::npos);
  EXPECT_NE(help.find("--json"), std::string::npos);
}

// --------------------------------------------------------------------------
// run_cli

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, NoArgsPrintsHelpWithError) {
  const auto result = cli({});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.out.find("commands:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto result = cli({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, CommandHelpIsGenerated) {
  const auto result = cli({"run", "--help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("--mechanism"), std::string::npos);
}

TEST(Cli, PaperCommandPrintsHeadlineNumbers) {
  const auto result = cli({"paper"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("78.43"), std::string::npos);
  EXPECT_NE(result.out.find("Figure 1"), std::string::npos);
  EXPECT_NE(result.out.find("Figure 6"), std::string::npos);
}

TEST(Cli, RunCommandTableAndJsonAgree) {
  const auto table = cli({"run", "--types", "1,2", "--rate", "6"});
  EXPECT_EQ(table.code, 0);
  EXPECT_NE(table.out.find("actual latency: 24"), std::string::npos);
  const auto json =
      cli({"run", "--types", "1,2", "--rate", "6", "--json"});
  EXPECT_EQ(json.code, 0);
  EXPECT_NE(json.out.find("\"actual_latency\": 24"), std::string::npos);
}

TEST(Cli, RunWithDeviationChangesOutcome) {
  const auto honest = cli({"run", "--types", "1,2", "--rate", "6"});
  const auto lying =
      cli({"run", "--types", "1,2", "--rate", "6", "--deviate", "0:2:2"});
  EXPECT_EQ(lying.code, 0);
  EXPECT_NE(honest.out, lying.out);
}

TEST(Cli, RunRejectsAnOverflowingArcherTardosRecord) {
  // x^2 and the Archer–Tardos tail overflow at these bids and rate.
  const auto result = cli({"run", "--mechanism", "archer-tardos", "--types",
                           "1e-300,1e-300", "--rate", "1e160"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("payment or utility is not finite: agent 0"),
            std::string::npos)
      << result.err;
  EXPECT_EQ(result.out.find("inf"), std::string::npos) << result.out;
}

TEST(Cli, AuditExitCodeReflectsTruthfulness) {
  EXPECT_EQ(cli({"audit", "--types", "1,2,4", "--rate", "6"}).code, 0);
  const auto broken = cli({"audit", "--types", "1,2,4", "--rate", "6",
                           "--mechanism", "no-payment"});
  EXPECT_EQ(broken.code, 1);
  EXPECT_NE(broken.out.find("NO"), std::string::npos);
}

TEST(Cli, UsageErrorsAreExitCode2) {
  EXPECT_EQ(cli({"run", "--types", "abc", "--rate", "5"}).code, 2);
  EXPECT_EQ(cli({"run", "--mechanism", "quantum"}).code, 2);
  EXPECT_EQ(cli({"run", "--deviate", "banana"}).code, 2);
  EXPECT_EQ(cli({"dist", "--topology", "mesh?"}).code, 2);
  EXPECT_EQ(cli({"config"}).code, 2);  // --file required
}

TEST(Cli, FrugalityMatchesPaperRatio) {
  const auto result =
      cli({"frugality", "--types", "1,1,2,2,2,5,5,5,5,5,10,10,10,10,10,10",
           "--rate", "20"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("2.138"), std::string::npos);
}

TEST(Cli, DistCommandRunsEachTopology) {
  for (const char* topology : {"star", "broadcast", "tree", "private"}) {
    const auto result = cli(
        {"dist", "--types", "1,2,5", "--rate", "10", "--topology", topology});
    EXPECT_EQ(result.code, 0) << topology;
    EXPECT_NE(result.out.find(topology), std::string::npos);
  }
}

TEST(Cli, ConfigCommandReadsJsonFile) {
  const std::string path = ::testing::TempDir() + "lbmv_config_test.json";
  {
    std::ofstream file(path);
    file << R"({
      "true_values": [1, 2, 4],
      "arrival_rate": 8,
      "mechanism": "comp-bonus",
      "deviations": [{"agent": 0, "bid_mult": 3.0, "exec_mult": 1.5}]
    })";
  }
  const auto result = cli({"config", "--file", path, "--json"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"agents\""), std::string::npos);
  // Same round through `run` must agree.
  const auto direct = cli({"run", "--types", "1,2,4", "--rate", "8",
                           "--deviate", "0:3:1.5", "--json"});
  EXPECT_EQ(result.out, direct.out);
  std::remove(path.c_str());
}

TEST(Cli, ConfigCommandReportsJsonErrors) {
  const std::string path = ::testing::TempDir() + "lbmv_bad_config.json";
  {
    std::ofstream file(path);
    file << "{ not json";
  }
  const auto result = cli({"config", "--file", path});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("config error"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, DynamicsAndLearnRun) {
  const auto dynamics = cli({"dynamics", "--types", "1,2", "--rate", "4",
                             "--rounds", "5"});
  EXPECT_EQ(dynamics.code, 0) << dynamics.err;
  EXPECT_NE(dynamics.out.find("final latency"), std::string::npos);
  const auto learn = cli({"learn", "--types", "1,2", "--rate", "4",
                          "--rounds", "60"});
  EXPECT_EQ(learn.code, 0) << learn.err;
  EXPECT_NE(learn.out.find("truthful fraction"), std::string::npos);
}

TEST(Cli, PoaCommandComputesKnownInstance) {
  // Links l1 = 1 + x, l2 = x at unit demand: equilibrium L = 1,
  // optimum L = 7/8, PoA = 8/7.
  const auto result = cli({"poa", "--types", "1,1", "--constants", "1,0",
                           "--rate", "1"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("1.1429"), std::string::npos);
  EXPECT_EQ(cli({"poa", "--types", "1,1", "--constants", "1"}).code, 2);
}

TEST(Cli, PoaIsOneForPureLinearLinks) {
  const auto result = cli({"poa", "--types", "1,2,5", "--rate", "10"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("price of anarchy:    1.0000"),
            std::string::npos);
}

TEST(Cli, CoalitionCommandFlagsManipulablePairs) {
  const auto result =
      cli({"coalition", "--types", "1,1,2", "--rate", "6", "--pair", "0,1"});
  EXPECT_EQ(result.code, 1);  // not coalition-proof
  EXPECT_NE(result.out.find("coalition-proof:        NO"),
            std::string::npos);
  EXPECT_EQ(cli({"coalition", "--pair", "0"}).code, 2);
}

TEST(Cli, AgentIndicesMustBeIntegersInRange) {
  for (const char* pair : {"-1,1", "nan,1", "0,1e300", "0.5,1", "0,3"}) {
    const auto result =
        cli({"coalition", "--types", "1,1,2", "--rate", "6", "--pair", pair});
    EXPECT_EQ(result.code, 2) << pair;
    EXPECT_NE(result.err.find("--pair"), std::string::npos) << result.err;
  }
  for (const char* spec : {"-1:2", "0.5:2", "1e300:2", "3:2"}) {
    const auto result =
        cli({"run", "--types", "1,2,4", "--rate", "8", "--deviate", spec});
    EXPECT_EQ(result.code, 2) << spec;
    EXPECT_NE(result.err.find("--deviate"), std::string::npos) << result.err;
  }
  const std::string path = ::testing::TempDir() + "lbmv_bad_agent.json";
  for (const char* agent : {"-1", "0.5", "1e300", "3"}) {
    {
      std::ofstream file(path);
      file << R"({"true_values": [1, 2, 4], "arrival_rate": 8,
                  "deviations": [{"agent": )"
           << agent << R"(, "bid_mult": 2.0}]})";
    }
    const auto result = cli({"config", "--file", path});
    EXPECT_EQ(result.code, 2) << agent;
    EXPECT_NE(result.err.find("deviations[].agent"), std::string::npos)
        << result.err;
  }
  std::remove(path.c_str());
}

TEST(Cli, IntegerOptionsRejectOutOfRangeValues) {
  const auto expect_usage = [](const std::vector<std::string>& args,
                               const std::string& option) {
    const auto result = cli(args);
    EXPECT_EQ(result.code, 2) << option;
    EXPECT_NE(result.err.find(option), std::string::npos) << result.err;
  };
  const std::string huge = "4294967297";  // 2^32 + 1 wraps to int 1
  expect_usage({"epochs", "--epochs", huge}, "--epochs");
  expect_usage({"epochs", "--lag", huge}, "--lag");
  expect_usage({"epochs", "--lag", "-" + huge}, "--lag");
  expect_usage({"dynamics", "--rounds", huge}, "--rounds");
  expect_usage({"learn", "--rounds", huge}, "--rounds");
  expect_usage({"obs", "--workload", "dynamics", "--rounds", huge},
               "--rounds");
  expect_usage({"obs", "--replications", "-1"}, "--replications");
  expect_usage({"obs", "--replications", "0"}, "--replications");
}

TEST(Cli, EpochsCommandReportsEfficiency) {
  const auto fresh = cli({"epochs", "--types", "1,2", "--rate", "4",
                          "--epochs", "15", "--drift", "0.2", "--lag", "0"});
  EXPECT_EQ(fresh.code, 0) << fresh.err;
  EXPECT_NE(fresh.out.find("mean efficiency"), std::string::npos);
  EXPECT_NE(fresh.out.find("1.0000"), std::string::npos);  // fresh = optimal
  const auto stale = cli({"epochs", "--types", "1,2", "--rate", "4",
                          "--epochs", "15", "--drift", "0.2", "--lag", "3"});
  EXPECT_EQ(stale.code, 0);
  EXPECT_EQ(stale.out.find("mean efficiency (optimal/achieved): 1.0000"),
            std::string::npos);  // degraded
}

TEST(Cli, ProtocolCommandRuns) {
  const auto result = cli({"protocol", "--types", "0.01,0.02", "--rate", "2",
                           "--horizon", "4000"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("messages: 6"), std::string::npos);
}

// --------------------------------------------------------------------------
// obs
//
// Snapshot-content tests require probes compiled in; under -DLBMV_OBS=OFF
// the command still runs but records nothing, so they skip.

#define SKIP_IF_OBS_COMPILED_OUT()                                      \
  if (!lbmv::obs::kCompiledIn)                                          \
  GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)"

// Event-loop families that no longer exist: a protocol round runs no event
// loop, so rows of these could only read 0.
constexpr const char* kDeletedSimFamilies[] = {
    "lbmv_sim_events", "lbmv_sim_window", "lbmv_sim_queue_depth",
    "lbmv_sim_closure_slab_in_use"};

TEST(Cli, ObsDashboardCrossChecksCompletionCounters) {
  SKIP_IF_OBS_COMPILED_OUT();
  const auto result = cli({"obs", "--types", "0.01,0.02", "--rate", "2",
                           "--horizon", "200", "--replications", "2"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("lbmv_sim_source_jobs_total"), std::string::npos);
  EXPECT_NE(result.out.find("lbmv_server_completions_total{server=\"C1\"}"),
            std::string::npos);
  EXPECT_NE(result.out.find(" == "), std::string::npos);  // cross-check held
  EXPECT_EQ(result.out.find(" != "), std::string::npos);
  for (const char* family : kDeletedSimFamilies) {
    EXPECT_EQ(result.out.find(family), std::string::npos) << family;
  }
}

TEST(Cli, ObsJsonSnapshotParsesWithDocumentedFamilies) {
  SKIP_IF_OBS_COMPILED_OUT();
  const auto result =
      cli({"obs", "--types", "0.01,0.02", "--rate", "2", "--horizon", "200",
           "--replications", "2", "--snapshot", "json"});
  EXPECT_EQ(result.code, 0) << result.err;
  const auto doc = lbmv::util::JsonValue::parse(result.out);
  const auto& counters = doc.at("counters");
  const auto& histograms = doc.at("histograms");
  for (const char* family :
       {"lbmv_server_arrivals_total{server=\"C1\"}",
        "lbmv_server_completions_total{server=\"C1\"}",
        "lbmv_sim_source_jobs_total", "lbmv_mech_rounds_total",
        "lbmv_mech_leave_one_out_batches_total",
        "lbmv_protocol_rounds_total", "lbmv_protocol_replications_total",
        "lbmv_pool_tasks_total"}) {
    EXPECT_TRUE(counters.contains(family)) << family;
  }
  EXPECT_TRUE(histograms.contains("lbmv_server_waiting_seconds{server=\"C1\"}"));
  EXPECT_GT(counters.at("lbmv_sim_source_jobs_total").as_number(), 0.0);
  EXPECT_FALSE(doc.contains("gauges"));
  for (const char* section : {"counters", "histograms"}) {
    for (const auto& [name, value] : doc.at(section).as_object()) {
      for (const char* family : kDeletedSimFamilies) {
        EXPECT_NE(name.rfind(family, 0), 0u) << section << ": " << name;
      }
    }
  }
}

TEST(Cli, ObsPromSnapshotHasTypeLines) {
  SKIP_IF_OBS_COMPILED_OUT();
  const auto result =
      cli({"obs", "--types", "0.01,0.02", "--rate", "2", "--horizon", "200",
           "--replications", "2", "--snapshot", "prom"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("# TYPE lbmv_sim_source_jobs_total counter"),
            std::string::npos);
  EXPECT_NE(result.out.find("# TYPE lbmv_server_completions_total counter"),
            std::string::npos);
  EXPECT_NE(result.out.find("lbmv_server_completions_total{server=\"C1\"}"),
            std::string::npos);
  EXPECT_NE(
      result.out.find("# TYPE lbmv_server_waiting_seconds histogram"),
      std::string::npos);
  for (const char* family : kDeletedSimFamilies) {
    EXPECT_EQ(result.out.find(family), std::string::npos) << family;
  }
}

TEST(Cli, ObsTraceExportIsValidChromeJson) {
  SKIP_IF_OBS_COMPILED_OUT();
  const std::string path = "cli_obs_trace_test.json";
  const auto result =
      cli({"obs", "--types", "0.01,0.02", "--rate", "2", "--horizon", "200",
           "--replications", "2", "--trace", path});
  EXPECT_EQ(result.code, 0) << result.err;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = lbmv::util::JsonValue::parse(buffer.str());
  EXPECT_FALSE(doc.at("traceEvents").as_array().empty());
  std::remove(path.c_str());
}

TEST(Cli, ObsRejectsBadSnapshotMode) {
  const auto result = cli({"obs", "--snapshot", "xml"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--snapshot"), std::string::npos);
}

TEST(Cli, ObsDynamicsWorkloadShowsStrategyProbes) {
  SKIP_IF_OBS_COMPILED_OUT();
  const auto result = cli({"obs", "--types", "1,2,5", "--rate", "10",
                           "--workload", "dynamics", "--rounds", "4"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("lbmv_strategy_deviation_evals_total"),
            std::string::npos);
  EXPECT_NE(result.out.find("lbmv_strategy_mechanism_runs_avoided_total"),
            std::string::npos);
  EXPECT_NE(result.out.find("lbmv_strategy_best_response_round_seconds"),
            std::string::npos);
  EXPECT_NE(result.out.find("cross-check"), std::string::npos);
}

TEST(Cli, ObsDynamicsJsonSnapshotCountsEvaluations) {
  SKIP_IF_OBS_COMPILED_OUT();
  const auto result = cli({"obs", "--types", "1,2,5", "--rate", "10",
                           "--workload", "dynamics", "--rounds", "4",
                           "--snapshot", "json"});
  EXPECT_EQ(result.code, 0) << result.err;
  const auto doc = lbmv::util::JsonValue::parse(result.out);
  const auto& counters = doc.at("counters");
  ASSERT_TRUE(counters.contains("lbmv_strategy_deviation_evals_total"));
  const double evals =
      counters.at("lbmv_strategy_deviation_evals_total").as_number();
  EXPECT_GT(evals, 0.0);
  // Comp-bonus on the default linear family has the closed form: every
  // evaluation skips a mechanism run.
  EXPECT_EQ(
      counters.at("lbmv_strategy_mechanism_runs_avoided_total").as_number(),
      evals);
}

TEST(Cli, ObsRejectsBadWorkload) {
  const auto result = cli({"obs", "--workload", "galactic"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--workload"), std::string::npos);
}

}  // namespace
