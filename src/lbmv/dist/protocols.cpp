#include "lbmv/dist/protocols.h"

#include <array>
#include <cmath>
#include <functional>
#include <type_traits>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/rule_terms.h"
#include "lbmv/dist/private_sum.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"

namespace lbmv::dist {
namespace {

/// Agent i's terms (core/rule_terms.h) once its round's L is known: its
/// verified cost, its leave-one-out optimum and L.
struct AgentTerms {
  double cost;
  double leave_one_out;
  double actual_latency;

  double exec_cost() const { return cost; }
  double loo() const { return leave_one_out; }
  double actual() const { return actual_latency; }
};

/// One sum over all agents: agent i adds value_of(i), and every agent
/// learns the total through on_total(i, total).  The topology forming the
/// sum tags its messages after name.
struct Sum {
  std::string name;
  std::function<double(std::size_t)> value_of;
  std::function<void(std::size_t, double)> on_total;
};

/// Common scaffolding: simulation, network, pricing, report assembly.
struct RoundContext {
  const model::SystemConfig* config;
  const model::BidProfile* intents;
  DistOptions options;

  sim::Simulation simulation;
  std::unique_ptr<Network> network;

  std::vector<double> inverse_sums;  ///< S as agent i learned it
  std::vector<double> allocations;
  std::vector<double> payments;
  std::vector<double> utilities;

  explicit RoundContext(const model::SystemConfig& cfg,
                        const model::BidProfile& profile,
                        const DistOptions& opts, std::size_t node_count)
      : config(&cfg),
        intents(&profile),
        options(opts),
        inverse_sums(cfg.size(), 0.0),
        allocations(cfg.size(), 0.0),
        payments(cfg.size(), 0.0),
        utilities(cfg.size(), 0.0) {
    network = std::make_unique<Network>(simulation, node_count,
                                        opts.network);
  }

  [[nodiscard]] std::size_t n() const { return config->size(); }

  /// Agent i's verified cost on its linear latency, rejected when not
  /// finite as the mechanism's reference round rejects it.
  [[nodiscard]] double verified_cost(std::size_t i) const {
    const double cost =
        model::LinearLatency(intents->executions[i]).cost(allocations[i]);
    LBMV_REQUIRE(std::isfinite(cost),
                 "verified cost is not finite: computer " + std::to_string(i));
    return cost;
  }

  /// Phase 1 for agent i at S: its PR rate.
  void allocate(std::size_t i, double inverse_sum) {
    inverse_sums[i] = inverse_sum;
    allocations[i] = alloc::pr_rate_at(intents->bids[i], inverse_sum,
                                       config->arrival_rate());
  }

  /// Phase 2 for agent i at L: the mechanism's comp-bonus record, with
  /// L_{-i} behind the PR allocator's leave-one-out guard.
  void price(std::size_t i, double actual_latency) {
    const double cost = verified_cost(i);
    const core::RuleRecord<double> record = core::rule_terms(
        std::integral_constant<core::PaymentRule,
                               core::PaymentRule::kCompBonusExecution>{},
        AgentTerms{cost,
                   alloc::pr_leave_one_out_at(inverse_sums[i],
                                              intents->bids[i],
                                              config->arrival_rate(), i, n()),
                   actual_latency});
    payments[i] = record.payment;
    utilities[i] = record.utility;
  }

  [[nodiscard]] DistributedReport finish(Topology topology) {
    DistributedReport report;
    report.protocol = topology_name(topology);
    report.allocation = model::Allocation(allocations);
    report.payments = payments;
    report.utilities = utilities;
    for (std::size_t i = 0; i < n(); ++i) {
      report.actual_latency += verified_cost(i);
    }
    report.messages = network->messages_sent();
    report.doubles_transferred = network->doubles_sent();
    report.completion_time = simulation.now();
    return report;
  }
};

// ---------------------------------------------------------------------------
// Star: the paper's centralised protocol.  Agents 0..n-1, coordinator n,
// which allocates and prices every agent.

DistributedReport run_star(RoundContext& ctx) {
  const std::size_t n = ctx.n();
  const NodeId coordinator = n;
  std::vector<double> bids(n, 0.0);
  std::size_t received = 0;

  ctx.network->set_handler(coordinator, [&](const Message& msg) {
    bids[msg.from] = msg.payload[0];
    if (++received < n) return;
    // All bids in: allocate (PR algorithm) and assign.
    double inverse_sum = 0.0;
    for (double b : bids) inverse_sum += 1.0 / b;
    for (std::size_t i = 0; i < n; ++i) {
      ctx.allocate(i, inverse_sum);
      ctx.network->send({coordinator, i, "assign", {ctx.allocations[i]}});
    }
    // Jobs execute; after the execution interval the coordinator has
    // verified every execution value (oracle) and pays.
    ctx.simulation.schedule_after(ctx.options.execution_time, [&ctx, n,
                                                               coordinator] {
      double actual_latency = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        actual_latency += ctx.verified_cost(i);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ctx.price(i, actual_latency);
        ctx.network->send({coordinator, i, "payment", {ctx.payments[i]}});
      }
    });
  });

  for (std::size_t i = 0; i < n; ++i) {
    // The coordinator books every assignment and payment it sends.
    ctx.network->set_handler(i, [](const Message&) {});
    ctx.simulation.schedule(0.0, [&ctx, i, coordinator] {
      ctx.network->send({i, coordinator, "bid", {ctx.intents->bids[i]}});
    });
  }

  ctx.simulation.run();
  LBMV_ASSERT(received == n, "star protocol lost bids");
  return ctx.finish(Topology::kStar);
}

// ---------------------------------------------------------------------------
// Decentralised deployments: the same two sums, formed by a topology.

/// What a topology forming the sums reads: the round, its sums and n.
struct SumTopology {
  RoundContext& ctx;
  const std::array<Sum, 2>& sums;
  std::size_t n = ctx.n();
};

/// The round without a coordinator.  Phase 1 sums 1/b_j and each agent
/// allocates itself at S; the jobs then run for the execution interval.
/// Phase 2 sums the verified costs and each agent prices itself at L.
/// Aggregation forms the sums: contribute(i, k) enters agent i's value into
/// sums[k], and deliver(i, msg) handles a message to agent i.  Under
/// Aggregation::kOwnInterval each agent's interval starts when it learns S;
/// otherwise one interval, anchored at agent 0, starts phase 2 for all.
template <class Aggregation>
DistributedReport run_two_sums(RoundContext& ctx, Topology topology) {
  const std::size_t n = ctx.n();
  std::array<Sum, 2> sums{Sum{"bid", {}, {}}, Sum{"cost", {}, {}}};
  Aggregation agg{{ctx, sums}};
  sums[0].value_of = [&ctx](std::size_t i) {
    return 1.0 / ctx.intents->bids[i];
  };
  sums[0].on_total = [&ctx, &agg, n](std::size_t i, double total) {
    ctx.allocate(i, total);
    if constexpr (Aggregation::kOwnInterval) {
      ctx.simulation.schedule_after(ctx.options.execution_time,
                                    [&agg, i] { agg.contribute(i, 1); });
    } else if (i == 0) {
      ctx.simulation.schedule_after(ctx.options.execution_time, [&agg, n] {
        for (std::size_t j = 0; j < n; ++j) agg.contribute(j, 1);
      });
    }
  };
  sums[1].value_of = [&ctx](std::size_t i) { return ctx.verified_cost(i); };
  sums[1].on_total = [&ctx](std::size_t i, double total) {
    ctx.price(i, total);
  };

  for (std::size_t i = 0; i < n; ++i) {
    ctx.network->set_handler(
        i, [&agg, i](const Message& msg) { agg.deliver(i, msg); });
  }
  ctx.simulation.schedule(0.0, [&agg, n] {
    for (std::size_t i = 0; i < n; ++i) agg.contribute(i, 0);
  });
  ctx.simulation.run();
  return ctx.finish(topology);
}

/// Broadcast: full mesh.  Every agent sends its value to every other agent
/// and adds the n values in index order, so each agent holds the reference
/// round's sums bit for bit and can audit every payment.
struct Broadcast : SumTopology {
  static constexpr bool kOwnInterval = true;
  std::vector<double> values = std::vector<double>(2 * n * n);  ///< [k][i][j]
  std::vector<std::size_t> seen = std::vector<std::size_t>(2 * n);  ///< [k][i]

  void contribute(std::size_t i, std::size_t k) {
    const double value = sums[k].value_of(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) ctx.network->send({i, j, sums[k].name, {value}});
    }
    receive(i, k, i, value);
  }

  void deliver(std::size_t i, const Message& msg) {
    receive(i, msg.type == sums[0].name ? 0 : 1, msg.from, msg.payload[0]);
  }

  void receive(std::size_t i, std::size_t k, std::size_t from, double value) {
    double* row = &values[(k * n + i) * n];
    row[from] = value;
    if (++seen[k * n + i] < n) return;
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) total += row[j];
    sums[k].on_total(i, total);
  }
};

/// Tree: binary-tree aggregation, 4(n-1) messages.  Partial sums climb to
/// agent 0 and the total comes back down.
struct Tree : SumTopology {
  static constexpr bool kOwnInterval = false;
  std::array<std::string, 2> up{"sum_" + sums[0].name + "_up",
                                "sum_" + sums[1].name + "_up"};
  std::array<std::string, 2> down{"sum_" + sums[0].name + "_down",
                                  "sum_" + sums[1].name + "_down"};
  std::vector<double> partial = std::vector<double>(n);  ///< subtree sum
  /// Children not yet reported in the current sum.
  std::vector<std::size_t> pending = std::vector<std::size_t>(n);

  static std::size_t parent(std::size_t i) { return (i - 1) / 2; }

  void contribute(std::size_t i, std::size_t k) {
    pending[i] = (2 * i + 1 < n ? 1 : 0) + (2 * i + 2 < n ? 1 : 0);
    partial[i] = sums[k].value_of(i);
    if (pending[i] == 0 && i != 0) {
      ctx.network->send({i, parent(i), up[k], {partial[i]}});
    }
  }

  void deliver(std::size_t i, const Message& msg) {
    for (std::size_t k = 0; k < 2; ++k) {
      if (msg.type == up[k]) {
        partial[i] += msg.payload[0];
        if (--pending[i] > 0) return;
        if (i == 0) {
          at_total(0, k, partial[0]);
        } else {
          ctx.network->send({i, parent(i), up[k], {partial[i]}});
        }
      } else if (msg.type == down[k]) {
        at_total(i, k, msg.payload[0]);
      }
    }
  }

  void at_total(std::size_t i, std::size_t k, double total) {
    for (std::size_t c : {2 * i + 1, 2 * i + 2}) {
      if (c < n) ctx.network->send({i, c, down[k], {total}});
    }
    sums[k].on_total(i, total);
  }
};

/// Ring elements must cross the (double-typed) network losslessly: split
/// into two exactly representable 32-bit halves.
std::vector<double> pack_ring(std::uint64_t value) {
  return {static_cast<double>(value >> 32),
          static_cast<double>(value & 0xffffffffull)};
}

std::uint64_t unpack_ring(const std::vector<double>& payload) {
  LBMV_ASSERT(payload.size() == 2, "ring payload must carry two halves");
  return (static_cast<std::uint64_t>(payload[0]) << 32) |
         static_cast<std::uint64_t>(payload[1]);
}

/// One private-sum agent: its share stream and the current sum's ring
/// accumulators.
struct ShareState {
  util::Rng rng{0};
  std::uint64_t share_acc = 0;  ///< ring sum of received shares
  std::size_t shares_seen = 0;
  std::vector<std::uint64_t> partials;
  std::size_t partials_seen = 0;
};

std::vector<ShareState> share_states(std::uint64_t seed, std::size_t n) {
  std::vector<ShareState> agents(n);
  const util::Rng root_rng(seed ^ 0xabcdefull);
  for (std::size_t i = 0; i < n; ++i) {
    agents[i].rng = root_rng.split(i + 1);
    agents[i].partials.assign(n, 0);
  }
  return agents;
}

/// Private: full mesh with additive secret sharing (private_sum.h).  Each
/// agent shares its value across all n agents; the partial ring sums are
/// broadcast and everyone reconstructs the total, so no agent's value is
/// ever seen by another.
struct Private : SumTopology {
  static constexpr bool kOwnInterval = false;
  std::array<std::string, 2> share{sums[0].name + "_share",
                                   sums[1].name + "_share"};
  std::array<std::string, 2> partial{sums[0].name + "_partial",
                                     sums[1].name + "_partial"};
  std::vector<ShareState> agents =
      share_states(ctx.options.network.seed, n);

  void contribute(std::size_t i, std::size_t k) {
    ShareState& a = agents[i];
    a.share_acc = 0;
    a.shares_seen = 0;
    a.partials_seen = 0;
    const auto shares = make_shares(sums[k].value_of(i), n, a.rng);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) {
        a.share_acc += shares[j];
        ++a.shares_seen;
      } else {
        ctx.network->send({i, j, share[k], pack_ring(shares[j])});
      }
    }
  }

  void deliver(std::size_t i, const Message& msg) {
    const std::size_t k =
        msg.type == share[0] || msg.type == partial[0] ? 0 : 1;
    ShareState& a = agents[i];
    if (msg.type == share[k]) {
      a.share_acc += unpack_ring(msg.payload);
      if (++a.shares_seen < n) return;
      a.partials[i] = a.share_acc;
      if (++a.partials_seen == n) {
        sums[k].on_total(i, reconstruct(a.partials));
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) {
          ctx.network->send({i, j, partial[k], pack_ring(a.share_acc)});
        }
      }
    } else {
      a.partials[msg.from] = unpack_ring(msg.payload);
      if (++a.partials_seen == n) {
        sums[k].on_total(i, reconstruct(a.partials));
      }
    }
  }
};

}  // namespace

std::string topology_name(Topology topology) {
  switch (topology) {
    case Topology::kStar:
      return "star";
    case Topology::kBroadcast:
      return "broadcast";
    case Topology::kTree:
      return "tree";
    case Topology::kPrivate:
      return "private";
  }
  LBMV_ASSERT(false, "unknown topology");
  return {};
}

DistributedReport run_distributed_round(Topology topology,
                                        const model::SystemConfig& config,
                                        const model::BidProfile& intents,
                                        const DistOptions& options) {
  LBMV_REQUIRE(
      dynamic_cast<const model::LinearFamily*>(&config.family()) != nullptr,
      "distributed protocols rely on the linear family's closed forms");
  LBMV_REQUIRE(config.size() >= 2, "distributed round needs >= 2 agents");
  LBMV_REQUIRE(options.execution_time > 0.0,
               "execution time must be positive");
  LBMV_REQUIRE(intents.bids.size() == config.size(),
               "bid vector size mismatch");
  LBMV_REQUIRE(intents.executions.size() == config.size(),
               "execution vector size mismatch");
  model::require_valid_round(config.arrival_rate(), intents.bids,
                             intents.executions);

  const std::size_t nodes =
      topology == Topology::kStar ? config.size() + 1 : config.size();
  RoundContext ctx(config, intents, options, nodes);
  switch (topology) {
    case Topology::kStar:
      return run_star(ctx);
    case Topology::kBroadcast:
      return run_two_sums<Broadcast>(ctx, topology);
    case Topology::kTree:
      return run_two_sums<Tree>(ctx, topology);
    case Topology::kPrivate:
      return run_two_sums<Private>(ctx, topology);
  }
  LBMV_ASSERT(false, "unknown topology");
  return {};
}

}  // namespace lbmv::dist
