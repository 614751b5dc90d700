#pragma once

/// \file network.h
/// Simulated message-passing network for distributed protocol studies.
///
/// The paper's protocol is centralised (§3, O(n) messages) and its stated
/// future work is "the problem of distributed handling of payments and the
/// agents' privacy".  The lbmv::dist subsystem builds that: nodes exchange
/// typed messages over a network with per-message latency, and protocol
/// state machines react to deliveries.  The Network runs on
/// sim::Simulation (sim/engine.h), one scheduled closure per delivery;
/// protocol rounds of sim/protocol.h run no event loop at all.  It counts
/// every message and every double transferred, and is deterministic under
/// a fixed seed.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "lbmv/sim/engine.h"
#include "lbmv/util/rng.h"

namespace lbmv::dist {

/// Index of a node on the network.
using NodeId = std::size_t;

/// A typed message with a numeric payload.
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  std::string type;             ///< protocol-defined tag, e.g. "bid"
  std::vector<double> payload;  ///< numeric body
};

/// Point-to-point network with latency = base + per_double * |payload|
/// (+ optional uniform jitter).  Messages between a pair of nodes are
/// delivered in FIFO order relative to their send times because the
/// underlying engine breaks timestamp ties by schedule order.
class Network {
 public:
  struct Options {
    double base_delay = 1e-3;       ///< seconds per message
    double per_double_delay = 1e-6; ///< seconds per payload double
    double jitter = 0.0;            ///< max extra uniform delay
    std::uint64_t seed = 1;
  };

  /// \p node_count nodes, ids 0 .. node_count-1.  The simulation must
  /// outlive the network.
  Network(sim::Simulation& sim, std::size_t node_count,
          const Options& options);

  /// Same, with default delay options.
  Network(sim::Simulation& sim, std::size_t node_count);

  using Handler = std::function<void(const Message&)>;

  /// Install the delivery handler of \p node (replacing any previous one).
  void set_handler(NodeId node, Handler handler);

  /// Send a message; it is delivered to the handler of msg.to after the
  /// modelled delay.  Self-sends are allowed (local computation hand-off).
  void send(Message msg);

  [[nodiscard]] std::size_t node_count() const { return handlers_.size(); }
  [[nodiscard]] std::size_t messages_sent() const { return messages_; }
  [[nodiscard]] std::size_t doubles_sent() const { return doubles_; }
  /// Per-type message counts (for protocol accounting tables).
  [[nodiscard]] const std::map<std::string, std::size_t>& by_type() const {
    return by_type_;
  }

 private:
  sim::Simulation* sim_;
  std::vector<Handler> handlers_;
  util::Rng rng_;
  Options options_;
  std::size_t messages_ = 0;
  std::size_t doubles_ = 0;
  std::map<std::string, std::size_t> by_type_;
};

}  // namespace lbmv::dist
