#pragma once

/// \file allocator.h
/// Interface shared by all allocation solvers.
///
/// Mechanisms (lbmv/core) are written against this interface so the
/// compensation-and-bonus construction works for any latency family with an
/// exact-optimal allocator: the mechanism's truthfulness proof only needs
/// the allocation rule to minimise total latency for the reported types.

#include <span>
#include <string>
#include <vector>

#include "lbmv/model/allocation.h"
#include "lbmv/model/latency.h"

namespace lbmv::alloc {

/// An exact or numeric minimiser of total latency over feasible allocations.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// The allocation minimising sum_i x_i * l_i(x_i) over x >= 0,
  /// sum x = R, where l_i = family.make(types[i]), written into \p rates
  /// (resized to types.size()) reusing its capacity: the one allocation
  /// entry every allocator implements.  The closed-form allocators touch
  /// no heap for a warm \p rates.
  virtual void allocate_into(const model::LatencyFamily& family,
                             std::span<const double> types,
                             double arrival_rate,
                             std::vector<double>& rates) const = 0;

  /// allocate_into's rates as a fresh Allocation.
  [[nodiscard]] model::Allocation allocate(const model::LatencyFamily& family,
                                           std::span<const double> types,
                                           double arrival_rate) const;

  /// Minimum total latency for the given types.  The default evaluates the
  /// allocation; closed-form allocators override with the direct formula.
  [[nodiscard]] virtual double optimal_latency(
      const model::LatencyFamily& family, std::span<const double> types,
      double arrival_rate) const;

  /// All n leave-one-out optima in one call: result[i] is the minimum total
  /// latency of the subsystem with agent i removed, at the same arrival
  /// rate.  This is the payment engine's hot loop — every marginal-payment
  /// rule (compensation-and-bonus, VCG) needs the full vector once per
  /// round.  Implemented on top of leave_one_out_into.  Requires n >= 2.
  [[nodiscard]] std::vector<double> leave_one_out_latencies(
      const model::LatencyFamily& family, std::span<const double> types,
      double arrival_rate) const;

  /// Allocation-free leave-one-out: fills \p out (resized to types.size())
  /// reusing its capacity.  The default re-solves each subsystem against a
  /// single reused scratch buffer (n solves, no per-agent profile copies);
  /// closed-form allocators override with an O(n)-total formula.
  virtual void leave_one_out_into(const model::LatencyFamily& family,
                                  std::span<const double> types,
                                  double arrival_rate,
                                  std::vector<double>& out) const;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace lbmv::alloc
