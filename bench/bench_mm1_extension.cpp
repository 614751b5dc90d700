// Ablation A7: the mechanism on the companion paper's M/M/1 model.
//
// Grosu & Chronopoulos (Cluster 2002) treat computers as M/M/1 queues with
// expected response time 1/(mu - x).  The compensation-and-bonus
// construction only needs an exact allocator; since PR-9 that allocator is
// the closed-form MM1Allocator riding the fused nonlinear round kernels
// (core/family_round.h, DESIGN.md §14) and the audit rides the M/M/1
// context's edited-order query — this bench is the qualitative story on
// top of that stack: truthful execution minimises total latency, the
// deviator's utility peaks at truth, and voluntary participation holds.

#include <cstdio>
#include <memory>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/model/bids.h"
#include "lbmv/util/error.h"
#include "lbmv/util/table.h"

int main() {
  using lbmv::util::Table;
  using namespace lbmv;

  // Service rates mu = 1/theta: {10, 10, 5, 2, 2}; R = 12 < sum mu = 29.
  auto family = std::make_shared<model::MM1Family>();
  const model::SystemConfig config({0.1, 0.1, 0.2, 0.5, 0.5}, 12.0,
                                   family);
  const core::CompBonusMechanism mechanism(
      std::make_shared<const alloc::MM1Allocator>());

  struct Case {
    const char* name;
    double bid_mult;
    double exec_mult;
  };
  const Case cases[] = {{"True1", 1.0, 1.0}, {"True2", 1.0, 1.5},
                        {"High1", 2.0, 2.0}, {"High2", 2.0, 1.0},
                        {"Low1", 0.6, 1.0},  {"Low2", 0.6, 1.5}};

  Table table({"Experiment", "Total latency", "x_1", "C1 payment",
               "C1 utility"});
  for (const auto& c : cases) {
    const auto profile =
        model::BidProfile::deviate(config, 0, c.bid_mult, c.exec_mult);
    try {
      const auto outcome = mechanism.run(config, profile);
      table.add_row({c.name, Table::num(outcome.actual_latency, 4),
                     Table::num(outcome.agents[0].allocation, 4),
                     Table::num(outcome.agents[0].payment, 4),
                     Table::num(outcome.agents[0].utility, 4)});
    } catch (const lbmv::util::PreconditionError&) {
      // A phenomenon the linear model cannot express: by underbidding and
      // then executing slowly, C1 is assigned more load than its *actual*
      // queue can serve (x >= mu), i.e. unbounded latency.
      table.add_row({c.name, "OVERLOAD", "> mu", "-", "-inf"});
    }
  }
  std::printf(
      "Ablation A7: M/M/1 extension (mu = {10,10,5,2,2}, R = 12)\n%s\n",
      table.to_markdown().c_str());
  std::printf(
      "OVERLOAD rows mark profiles where the deviator's verified capacity\n"
      "cannot serve its assignment (x_1 >= mu~_1): in the queueing model an\n"
      "underbid-and-slack lie does not just raise latency, it destabilises\n"
      "the deviator's queue — an even stronger deterrent than in the\n"
      "paper's linear model.\n\n");

  // Audit the deviator across a bid/execution grid kept inside the
  // stability region (see OVERLOAD note above).  With the MM1Allocator the
  // auditor holds an Mm1PrProfileContext, so each candidate bid of these
  // rows is one O(log n) edit of the committed sorted prefix (§14).
  const core::TruthfulnessAuditor auditor(mechanism);
  core::AuditOptions options;
  options.bid_multipliers = {0.85, 0.9, 1.0, 1.2, 1.5, 2.0, 3.0};
  options.exec_multipliers = {1.0, 1.1, 1.2};
  const auto report = auditor.audit_agent(config, 0, options);
  std::printf(
      "audit of C1: truthful utility %.4f, best deviation %.4f (bid x%.2f, "
      "exec x%.2f) => max gain %.2e (truth dominant: %s)\n",
      report.truthful_utility, report.best.utility, report.best.bid_mult,
      report.best.exec_mult, report.max_gain,
      report.truthful_dominant(1e-6) ? "yes" : "no");
  std::printf("voluntary participation: %s\n",
              core::voluntary_participation_holds(mechanism, config, 1e-6)
                  ? "holds"
                  : "VIOLATED");
  return 0;
}
