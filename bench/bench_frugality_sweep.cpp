// Ablation A6: frugality vs system shape.
//
// The paper reports a single frugality number (payment at most ~2.5x
// valuation) for its one 16-computer testbed.  This bench maps the measure:
// (a) versus heterogeneity — true values geometrically spread over
//     [1, spread] — where the closed form is ratio = 1 + sum s_i/(S - s_i);
// (b) versus system size n for a homogeneous system, where the ratio is
//     1 + n/(n-1) and tends to 2 from above.

#include <cstdio>
#include <vector>

#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/frugality.h"
#include "lbmv/model/bids.h"
#include "lbmv/util/table.h"

int main() {
  using lbmv::util::Table;
  using namespace lbmv;

  const core::CompBonusMechanism mechanism;

  const std::vector<double> spreads{1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0};
  const auto by_spread =
      core::frugality_heterogeneity_sweep(mechanism, 16, 20.0, spreads);
  Table spread_table({"Spread t_max/t_min", "Total payment",
                      "Total |valuation|", "Ratio"});
  for (const auto& point : by_spread) {
    spread_table.add_row({Table::num(point.parameter, 0),
                          Table::num(point.report.total_payment),
                          Table::num(point.report.total_valuation),
                          Table::num(point.report.ratio(), 4)});
  }
  std::printf(
      "Ablation A6a: frugality vs heterogeneity (n = 16, R = 20, truthful)\n"
      "%s\n",
      spread_table.to_markdown().c_str());

  Table size_table({"n (homogeneous)", "Ratio", "1 + n/(n-1)"});
  for (std::size_t n : {2, 4, 8, 16, 32, 64, 128}) {
    const model::SystemConfig config(std::vector<double>(n, 1.0), 20.0);
    const auto report = core::frugality_of(
        mechanism.run(config, model::BidProfile::truthful(config)));
    size_table.add_row(
        {std::to_string(n), Table::num(report.ratio(), 4),
         Table::num(1.0 + static_cast<double>(n) /
                              static_cast<double>(n - 1), 4)});
  }
  std::printf(
      "Ablation A6b: frugality vs system size (homogeneous, truthful)\n%s\n",
      size_table.to_markdown().c_str());
  std::printf(
      "The paper's 2.5 bound is a property of its particular testbed: the\n"
      "ratio is ~2 + epsilon for homogeneous systems and grows with\n"
      "heterogeneity as the fast machines become more pivotal.\n");
  return 0;
}
