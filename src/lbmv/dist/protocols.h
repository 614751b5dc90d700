#pragma once

/// \file protocols.h
/// Distributed deployments of the load balancing mechanism with
/// verification — the paper's future work ("distributed handling of
/// payments and the agents' privacy") made concrete.
///
/// Every protocol runs the centralised mechanism (comp-bonus at the
/// execution basis, linear family) as two sums:
///   S        = sum_j 1/b_j           (from the bids), and
///   L_actual = sum_j t~_j x_j^2      (from the verified executions),
/// plus values agent i already knows (its own bid and verified cost):
///   x_i     = (1/b_i) / S * R        (alloc::pr_rate_at),
///   L_{-i}  = R^2 / (S - 1/b_i)      (alloc::pr_leave_one_out_at, with the
///                                     PR allocator's cancellation guard),
/// and the record P_i = C_i + B_i, U_i = B_i priced by core::rule_terms,
/// the rule every round engine uses.  Star and broadcast add S and L in
/// index order, as Mechanism::run_reference_into does, so their allocation,
/// payments, utilities and L are bit-identical to it; tree adds in tree
/// order (within summation roundoff) and private in fixed point (within
/// its 1e-9 quantisation).  A profile the round rejects (invalid values, a
/// non-finite verified cost, a leave-one-out rest that cancels) throws the
/// round's PreconditionError on every topology; private may instead throw
/// its fixed-point range error first.
///
/// | protocol   | topology      | messages    | who computes payments |
/// |------------|---------------|-------------|-----------------------|
/// | star       | coordinator   | 3n          | coordinator (paper §3)|
/// | broadcast  | full mesh     | 2 n(n-1)    | every agent, redundantly (auditable) |
/// | tree       | binary tree   | 4 (n-1)     | each agent, its own   |
/// | private    | full mesh     | 4 n(n-1)    | each agent, its own; bids hidden via additive secret sharing |
///
/// Verification is modelled as an oracle here (the protocols receive the
/// verified execution values after the execution interval); the
/// estimation-from-completions path is exercised by sim::VerifiedProtocol.
/// In the private protocol, no party ever observes another agent's bid or
/// cost — only the ring sums (see private_sum.h).  Note the inherent limit:
/// once jobs flow, relative speeds are observable from the allocation
/// itself; the protocol hides the *declarations*, which is all any
/// protocol can do.

#include <memory>
#include <string>
#include <vector>

#include "lbmv/dist/network.h"
#include "lbmv/model/allocation.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"

namespace lbmv::dist {

/// Outcome and accounting of one distributed round.
struct DistributedReport {
  std::string protocol;
  model::Allocation allocation;
  std::vector<double> payments;
  std::vector<double> utilities;  ///< U_i = B_i (payment - verified cost)
  double actual_latency = 0.0;    ///< L at the verified execution values
  std::size_t messages = 0;
  std::size_t doubles_transferred = 0;
  double completion_time = 0.0;   ///< simulated seconds including execution
};

/// Shared tunables.
struct DistOptions {
  Network::Options network;      ///< delay model
  double execution_time = 10.0;  ///< simulated seconds the jobs run
};

/// Which deployment to run.
enum class Topology {
  kStar,       ///< the paper's centralised protocol (coordinator node)
  kBroadcast,  ///< full-mesh, everyone computes every payment
  kTree,       ///< binary-tree aggregation, O(n) messages, O(log n) depth
  kPrivate,    ///< full-mesh with additive secret sharing of bids/costs
};

[[nodiscard]] std::string topology_name(Topology topology);

/// Run one round of the chosen deployment.  Requires the linear family,
/// n >= 2, and a profile model::require_valid_round accepts;
/// intents.executions are the (oracle-) verified execution values.
[[nodiscard]] DistributedReport run_distributed_round(
    Topology topology, const model::SystemConfig& config,
    const model::BidProfile& intents, const DistOptions& options = {});

}  // namespace lbmv::dist
