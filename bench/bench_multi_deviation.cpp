// Bench A11: the paper's conjecture, quantified.
//
// §4 closes its Figure 1 discussion with: "We expect even larger increase
// if more than one computer does not report its true value and does not
// use its full processing capacity."  The paper never measures it; we do.
// On the Table 1 system we let k computers (the fastest first, then down
// the speed groups) repeat the Low2 deviation (bid 0.5x, execute 2x slower)
// and the High1 deviation (bid 3x, execute at the bid), and chart the total
// latency against k.

#include <cstdio>
#include <vector>

#include "lbmv/analysis/paper_config.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/bids.h"
#include "lbmv/util/ascii_chart.h"
#include "lbmv/util/table.h"

int main() {
  using lbmv::util::Table;
  using namespace lbmv;

  const auto config = analysis::paper_table1_config();
  const core::CompBonusMechanism mechanism;
  const double optimal =
      mechanism.run(config, model::BidProfile::truthful(config))
          .actual_latency;

  struct DeviationKind {
    const char* name;
    double bid_mult;
    double exec_mult;
  };
  const DeviationKind kinds[] = {{"Low2-style (0.5x bid, 2x slower)", 0.5,
                                  2.0},
                                 {"High1-style (3x bid, exec = bid)", 3.0,
                                  3.0}};

  std::printf(
      "Bench A11: latency vs number of deviating computers (Table 1 system,"
      "\nR = 20, L* = %.2f)\n\n",
      optimal);

  for (const auto& kind : kinds) {
    Table table({"Deviators k", "Total latency", "Increase vs optimal"});
    std::vector<lbmv::util::Bar> bars;
    // One profile per deviation kind: k = j extends k = j - 1 by a single
    // agent, so each sweep step moves one entry and runs one round.
    model::BidProfile profile = model::BidProfile::truthful(config);
    for (std::size_t k = 0; k <= config.size(); ++k) {
      if (k > 0) {
        const double t = config.true_value(k - 1);
        profile.bids[k - 1] = t * kind.bid_mult;
        profile.executions[k - 1] = t * kind.exec_mult;
      }
      const double latency = mechanism.run(config, profile).actual_latency;
      table.add_row({std::to_string(k), Table::num(latency),
                     Table::pct(latency / optimal - 1.0)});
      if (k % 2 == 0) {
        bars.push_back({"k=" + std::to_string(k), latency});
      }
    }
    std::printf("%s:\n%s%s\n", kind.name, table.to_markdown().c_str(),
                lbmv::util::bar_chart("", bars).c_str());
  }
  std::printf(
      "The conjecture holds with an interesting wrinkle: Low2-style mass\n"
      "deviation is worst at intermediate k (the deviating fast machines\n"
      "drag overload onto themselves), while if *every* machine deviates by\n"
      "the same consistent multiplier the proportions — and hence part of\n"
      "the damage — cancel.\n");
  return 0;
}
