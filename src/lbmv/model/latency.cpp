#include "lbmv/model/latency.h"

#include <cmath>
#include <sstream>

#include "lbmv/util/error.h"

namespace lbmv::model {

LinearLatency::LinearLatency(double t) : t_(t) {
  LBMV_REQUIRE(t > 0.0, "linear latency slope t must be positive");
}

std::string LinearLatency::describe() const {
  std::ostringstream os;
  os << "linear(t=" << t_ << ")";
  return os.str();
}

AffineLatency::AffineLatency(double a, double b) : a_(a), b_(b) {
  LBMV_REQUIRE(a >= 0.0 && b >= 0.0, "affine latency needs a, b >= 0");
  LBMV_REQUIRE(a > 0.0 || b > 0.0, "affine latency cannot be identically 0");
}

std::string AffineLatency::describe() const {
  std::ostringstream os;
  os << "affine(a=" << a_ << ", b=" << b_ << ")";
  return os.str();
}

MG1LightLoadLatency::MG1LightLoadLatency(double mean_service,
                                         double second_moment)
    : es_(mean_service), es2_(second_moment) {
  LBMV_REQUIRE(mean_service > 0.0, "E[S] must be positive");
  LBMV_REQUIRE(second_moment >= mean_service * mean_service,
               "E[S^2] must be at least E[S]^2 (Jensen)");
}

double MG1LightLoadLatency::latency(double x) const {
  return es_ + 0.5 * es2_ * x;
}

double MG1LightLoadLatency::latency_derivative(double) const {
  return 0.5 * es2_;
}

std::string MG1LightLoadLatency::describe() const {
  std::ostringstream os;
  os << "mg1_light(E[S]=" << es_ << ", E[S^2]=" << es2_ << ")";
  return os.str();
}

MM1Latency::MM1Latency(double mu) : mu_(mu) {
  LBMV_REQUIRE(mu > 0.0, "M/M/1 service rate mu must be positive");
}

double MM1Latency::latency(double x) const {
  LBMV_REQUIRE(x >= 0.0 && x < mu_, "M/M/1 latency requires 0 <= x < mu");
  return 1.0 / (mu_ - x);
}

double MM1Latency::latency_derivative(double x) const {
  LBMV_REQUIRE(x >= 0.0 && x < mu_, "M/M/1 latency requires 0 <= x < mu");
  const double d = mu_ - x;
  return 1.0 / (d * d);
}

std::string MM1Latency::describe() const {
  std::ostringstream os;
  os << "mm1(mu=" << mu_ << ")";
  return os.str();
}

WorkloadLatency::WorkloadLatency(double theta, double gamma)
    : theta_(theta), gamma_(gamma) {
  LBMV_REQUIRE(theta > 0.0, "workload latency coefficient must be positive");
  LBMV_REQUIRE(gamma > 0.0,
               "workload congestion coefficient gamma must be positive");
}

double WorkloadLatency::latency(double x) const {
  LBMV_REQUIRE(x >= 0.0, "workload latency requires x >= 0");
  return theta_ * x * (1.0 + gamma_ * x);
}

double WorkloadLatency::latency_derivative(double x) const {
  LBMV_REQUIRE(x >= 0.0, "workload latency requires x >= 0");
  return theta_ * (1.0 + 2.0 * gamma_ * x);
}

std::string WorkloadLatency::describe() const {
  std::ostringstream os;
  os << "workload(t=" << theta_ << ", gamma=" << gamma_ << ")";
  return os.str();
}

PowerLatency::PowerLatency(double t, double k) : t_(t), k_(k) {
  LBMV_REQUIRE(t > 0.0, "power latency coefficient must be positive");
  LBMV_REQUIRE(k >= 1.0, "power latency exponent must be >= 1 for convexity");
}

double PowerLatency::latency(double x) const {
  LBMV_REQUIRE(x >= 0.0, "power latency requires x >= 0");
  return t_ * std::pow(x, k_);
}

double PowerLatency::latency_derivative(double x) const {
  LBMV_REQUIRE(x >= 0.0, "power latency requires x >= 0");
  if (k_ == 1.0) return t_;
  return t_ * k_ * std::pow(x, k_ - 1.0);
}

std::string PowerLatency::describe() const {
  std::ostringstream os;
  os << "power(t=" << t_ << ", k=" << k_ << ")";
  return os.str();
}

std::unique_ptr<LatencyFunction> LinearFamily::make(double theta) const {
  LBMV_REQUIRE(theta > 0.0, "linear family type must be positive");
  return std::make_unique<LinearLatency>(theta);
}

std::unique_ptr<LatencyFunction> MM1Family::make(double theta) const {
  LBMV_REQUIRE(theta > 0.0, "mm1 family type must be positive");
  return std::make_unique<MM1Latency>(1.0 / theta);
}

WorkloadFamily::WorkloadFamily(double gamma) : gamma_(gamma) {
  LBMV_REQUIRE(gamma > 0.0,
               "workload family congestion coefficient must be positive");
}

std::unique_ptr<LatencyFunction> WorkloadFamily::make(double theta) const {
  LBMV_REQUIRE(theta > 0.0, "workload family type must be positive");
  return std::make_unique<WorkloadLatency>(theta, gamma_);
}

std::string WorkloadFamily::name() const {
  std::ostringstream os;
  os << "workload(gamma=" << gamma_ << ")";
  return os.str();
}

PowerFamily::PowerFamily(double k) : k_(k) {
  LBMV_REQUIRE(k >= 1.0, "power family exponent must be >= 1");
}

std::unique_ptr<LatencyFunction> PowerFamily::make(double theta) const {
  LBMV_REQUIRE(theta > 0.0, "power family type must be positive");
  return std::make_unique<PowerLatency>(theta, k_);
}

std::string PowerFamily::name() const {
  std::ostringstream os;
  os << "power(k=" << k_ << ")";
  return os.str();
}

}  // namespace lbmv::model
