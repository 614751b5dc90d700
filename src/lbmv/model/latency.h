#pragma once

/// \file latency.h
/// Load-dependent latency functions and one-parameter latency families.
///
/// The paper models computer i by a *linear* load-dependent latency
/// l_i(x) = t_i * x, where x is the job arrival rate routed to i and t_i is
/// inversely proportional to its processing rate (paper eq. (1)).  The cost
/// incurred by computer i under allocation x_i is x_i * l_i(x_i), and the
/// system objective is the total latency L(x) = sum_i x_i * l_i(x_i)
/// (paper eq. (2)).
///
/// lbmv generalises this to any convex latency function so the same
/// allocation solvers and mechanisms also cover:
///   * the M/G/1 light-load model the paper cites as justification for
///     linearity (expected waiting time lambda * E[S^2] / 2), and
///   * the M/M/1 expected-response-time model of the companion paper
///     (Grosu & Chronopoulos, Cluster 2002), used as an extension.
///
/// A LatencyFamily maps a single scalar parameter theta (the agent's private
/// "type"; larger theta = slower machine) to a LatencyFunction.  Mechanisms
/// operate on families so that bids, true values and execution values all
/// live on the same one-dimensional scale, as in one-parameter mechanism
/// design (Archer & Tardos 2001).

#include <limits>
#include <memory>
#include <string>

namespace lbmv::model {

/// A load-dependent latency curve l(x): expected time per job at arrival
/// rate x.  Implementations must be convex in cost x*l(x) on [0, max_rate).
class LatencyFunction {
 public:
  virtual ~LatencyFunction() = default;

  /// Expected per-job latency at arrival rate x >= 0.
  [[nodiscard]] virtual double latency(double x) const = 0;

  /// d l / d x at x.
  [[nodiscard]] virtual double latency_derivative(double x) const = 0;

  /// Supremum of admissible arrival rates (e.g. the service rate mu for
  /// M/M/1).  Defaults to +infinity.
  [[nodiscard]] virtual double max_rate() const {
    return std::numeric_limits<double>::infinity();
  }

  /// Human-readable description, e.g. "linear(t=2)".
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Cost (aggregate latency contribution) c(x) = x * l(x).
  [[nodiscard]] double cost(double x) const { return x * latency(x); }

  /// Marginal cost c'(x) = l(x) + x * l'(x); strictly increasing for the
  /// convex families shipped here.
  [[nodiscard]] double marginal_cost(double x) const {
    return latency(x) + x * latency_derivative(x);
  }
};

/// The paper's model: l(x) = t * x with t > 0 (eq. (1)).
class LinearLatency final : public LatencyFunction {
 public:
  explicit LinearLatency(double t);
  [[nodiscard]] double latency(double x) const override { return t_ * x; }
  [[nodiscard]] double latency_derivative(double) const override { return t_; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double t() const { return t_; }

 private:
  double t_;
};

/// Affine latency l(x) = a + b * x (a, b >= 0, not both zero).
class AffineLatency final : public LatencyFunction {
 public:
  AffineLatency(double a, double b);
  [[nodiscard]] double latency(double x) const override { return a_ + b_ * x; }
  [[nodiscard]] double latency_derivative(double) const override { return b_; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double a() const { return a_; }
  [[nodiscard]] double b() const { return b_; }

 private:
  double a_, b_;
};

/// M/G/1 light-load approximation the paper cites: expected time in system
/// l(x) = E[S] + x * E[S^2] / 2 (Pollaczek–Khinchine waiting term truncated
/// at first order in utilisation).  An affine curve parameterised by the
/// service-time distribution's first two moments.
class MG1LightLoadLatency final : public LatencyFunction {
 public:
  /// \p mean_service  E[S] > 0, \p second_moment E[S^2] >= E[S]^2.
  MG1LightLoadLatency(double mean_service, double second_moment);
  [[nodiscard]] double latency(double x) const override;
  [[nodiscard]] double latency_derivative(double) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double mean_service() const { return es_; }
  [[nodiscard]] double second_moment() const { return es2_; }

 private:
  double es_, es2_;
};

/// M/M/1 expected response time l(x) = 1 / (mu - x), x < mu (companion
/// paper's model).  Cost x/(mu-x) is the expected number in system.
class MM1Latency final : public LatencyFunction {
 public:
  explicit MM1Latency(double mu);
  [[nodiscard]] double latency(double x) const override;
  [[nodiscard]] double latency_derivative(double x) const override;
  [[nodiscard]] double max_rate() const override { return mu_; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double mu() const { return mu_; }

 private:
  double mu_;
};

/// Workload-dependent service rate (Zhang et al.): the effective per-job
/// time grows with the load already routed to the machine,
/// l(x) = theta * x * (1 + gamma * x) with theta > 0 and a family-level
/// congestion coefficient gamma > 0.  At gamma -> 0 this degenerates to the
/// paper's linear model; cost theta*x^2*(1+gamma*x) is a strictly convex
/// cubic, so the KKT system has a unique interior solution at every R.
class WorkloadLatency final : public LatencyFunction {
 public:
  WorkloadLatency(double theta, double gamma);
  [[nodiscard]] double latency(double x) const override;
  [[nodiscard]] double latency_derivative(double x) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double theta() const { return theta_; }
  [[nodiscard]] double gamma() const { return gamma_; }

 private:
  double theta_, gamma_;
};

/// The workload cost x * l(x) = x * ((theta x)(1 + gamma x)) in
/// WorkloadLatency's operand order, written once for every path that
/// prices it without a latency object: T is double or util::simd::DVec,
/// and each lane performs the same IEEE operations as the scalar.
template <class T>
[[nodiscard]] inline T workload_cost(T x, T theta, double gamma) {
  return x * ((theta * x) * (1.0 + gamma * x));
}

/// The M/M/1 cost x * (1/(mu - x)) against a service rate mu = 1/theta, in
/// MM1Latency's operand order (cost = x * latency), written once for every
/// path that prices it without a latency object.  T is double or
/// util::simd::DVec.  Unchecked: callers hold x < mu first
/// (alloc::require_mm1_capacity).
template <class T>
[[nodiscard]] inline T mm1_cost(T x, T mu) {
  return x * (1.0 / (mu - x));
}

/// Power-law latency l(x) = t * x^k, k >= 1 (used in property tests to
/// exercise the general convex solver away from the linear special case).
class PowerLatency final : public LatencyFunction {
 public:
  PowerLatency(double t, double k);
  [[nodiscard]] double latency(double x) const override;
  [[nodiscard]] double latency_derivative(double x) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double t() const { return t_; }
  [[nodiscard]] double k() const { return k_; }

 private:
  double t_, k_;
};

/// Maps a scalar type theta (larger = slower) to a latency function.
class LatencyFamily {
 public:
  virtual ~LatencyFamily() = default;

  /// Build the latency curve of an agent with type theta > 0.
  [[nodiscard]] virtual std::unique_ptr<LatencyFunction> make(
      double theta) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// theta -> LinearLatency(theta).  The paper's setting.
class LinearFamily final : public LatencyFamily {
 public:
  [[nodiscard]] std::unique_ptr<LatencyFunction> make(
      double theta) const override;
  [[nodiscard]] std::string name() const override { return "linear"; }
};

/// theta -> MM1Latency(1/theta): theta is the mean service time, so larger
/// theta is again slower.  Companion-paper extension.
class MM1Family final : public LatencyFamily {
 public:
  [[nodiscard]] std::unique_ptr<LatencyFunction> make(
      double theta) const override;
  [[nodiscard]] std::string name() const override { return "mm1"; }
};

/// theta -> WorkloadLatency(theta, gamma) with a fixed family-level
/// congestion coefficient gamma > 0 (Zhang et al.'s workload-dependent
/// service rates).  theta is again "seconds of work per job", so larger
/// theta is slower, same one-parameter scale as the linear family.
class WorkloadFamily final : public LatencyFamily {
 public:
  explicit WorkloadFamily(double gamma);
  [[nodiscard]] std::unique_ptr<LatencyFunction> make(
      double theta) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double gamma() const { return gamma_; }

 private:
  double gamma_;
};

/// theta -> PowerLatency(theta, k) with fixed exponent k.
class PowerFamily final : public LatencyFamily {
 public:
  explicit PowerFamily(double k);
  [[nodiscard]] std::unique_ptr<LatencyFunction> make(
      double theta) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double k() const { return k_; }

 private:
  double k_;
};

}  // namespace lbmv::model
