#include "lbmv/strategy/deviation.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "lbmv/core/grid_kernels.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::strategy {
namespace {

/// Fixed fan-out block: a multiple of the lane count, so blocked sweeps pad
/// only the final partial block — exactly the lanes one serial sweep would
/// pad — and lane positions (candidate k in lane k mod 4) match the serial
/// sweep's, keeping blocked and serial results bit-identical.
constexpr std::size_t kBlock = 1024;

using Clock = std::chrono::steady_clock;

/// Run sweep(lo, len) over [0, size): whole, or — with a pool and more than
/// one block — one fixed block per task.  parallel_for rethrows the first
/// failing chunk's first error, and each chunk stops at its first failing
/// block, so a pooled sweep throws exactly what the serial one throws.
template <class Sweep>
void fan_out(std::size_t size, util::ThreadPool* pool, const Sweep& sweep) {
  const std::size_t nblocks = (size + kBlock - 1) / kBlock;
  if (pool == nullptr || nblocks < 2) {
    sweep(0, size);
    return;
  }
  util::parallel_for(*pool, 0, nblocks, [&](std::size_t blk) {
    const std::size_t lo = blk * kBlock;
    sweep(lo, std::min(kBlock, size - lo));
  });
}

/// Sweep telemetry (class comment in deviation.h).
void note_sweep(const core::ProfileUtilityContext& context,
                std::size_t grid_size, Clock::time_point start) {
  if (!obs::enabled()) return;
  obs::StrategyProbes& probes = obs::StrategyProbes::get();
  probes.grid_evals.inc(grid_size);
  if (context.lane_sweeps()) {
    probes.grid_lanes_wasted.inc(core::grid_lanes_padded(grid_size));
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  probes.grid_round_seconds.record(elapsed.count());
}

}  // namespace

DeviationEvaluator::DeviationEvaluator(const core::Mechanism& mechanism,
                                       const model::SystemConfig& config,
                                       model::BidProfile profile, Mode mode)
    : mechanism_(&mechanism),
      family_(config.family_ptr()),
      arrival_rate_(config.arrival_rate()) {
  LBMV_REQUIRE(profile.size() == config.size(),
               "profile size must match config size");
  // Either context checks n >= 2 and the profile itself.
  if (mode == Mode::kAuto) {
    context_ = mechanism.make_profile_context(*family_, arrival_rate_, profile);
  }
  closed_form_ = context_ != nullptr;
  if (!closed_form_) {
    context_ = mechanism.make_reference_context(*family_, arrival_rate_,
                                                std::move(profile));
  }
}

DeviationEvaluator::DeviationEvaluator(const core::Mechanism& mechanism,
                                       const model::SystemConfig& config,
                                       Mode mode)
    : DeviationEvaluator(mechanism, config,
                         model::BidProfile::truthful(config), mode) {}

double DeviationEvaluator::utility(std::size_t agent, double bid,
                                   double execution) const {
  // Checked before counting, so a rejected query counts nothing.
  model::require_valid_deviation(agent, profile().size(), bid, execution);
  if (obs::enabled()) {
    obs::StrategyProbes& probes = obs::StrategyProbes::get();
    probes.deviation_evals.inc();
    if (closed_form_) probes.mechanism_runs_avoided.inc();
  }
  return context_->utility(agent, bid, execution);
}

void DeviationEvaluator::utilities_into(std::size_t agent,
                                        std::span<const double> bids,
                                        double execution,
                                        std::span<double> out,
                                        util::ThreadPool* pool) const {
  LBMV_REQUIRE(out.size() >= bids.size(),
               "output span must cover the candidate grid");
  const Clock::time_point start =
      obs::enabled() ? Clock::now() : Clock::time_point{};
  fan_out(bids.size(), pool, [&](std::size_t lo, std::size_t len) {
    context_->utilities_into(agent, bids.subspan(lo, len), execution,
                             out.subspan(lo, len));
  });
  note_sweep(*context_, bids.size(), start);
}

core::GridBest DeviationEvaluator::best_response(std::size_t agent,
                                                 std::span<const double> bids,
                                                 double execution,
                                                 util::ThreadPool* pool) const {
  LBMV_REQUIRE(!bids.empty(), "deviation grid must be non-empty");
  const Clock::time_point start =
      obs::enabled() ? Clock::now() : Clock::time_point{};
  core::GridBest best{0, 0.0};
  if (pool == nullptr || bids.size() <= kBlock) {
    best = context_->best_response(agent, bids, execution);
  } else {
    std::vector<core::GridBest> blocks((bids.size() + kBlock - 1) / kBlock);
    fan_out(bids.size(), pool, [&](std::size_t lo, std::size_t len) {
      core::GridBest b =
          context_->best_response(agent, bids.subspan(lo, len), execution);
      b.index += lo;
      blocks[lo / kBlock] = b;
    });
    // Merge in block (= index) order with the strictly-greater rule: the
    // first block attaining the global max wins, so the result is the same
    // first-index argmax as one serial sweep, at any thread count.
    best = blocks[0];
    for (const core::GridBest& b : blocks) {
      if (b.utility > best.utility) best = b;
    }
  }
  note_sweep(*context_, bids.size(), start);
  return best;
}

void DeviationEvaluator::commit(std::size_t agent, double bid,
                                double execution) {
  const core::BidDelta delta{agent, bid, execution};
  commit_batch(std::span(&delta, 1));
}

void DeviationEvaluator::commit_batch(
    std::span<const core::BidDelta> deltas) {
  // The context checks every entry before it writes any.
  context_->commit_batch(deltas);
  if (obs::enabled() && !deltas.empty()) {
    obs::StrategyProbes::get().commits.inc(
        static_cast<std::uint64_t>(deltas.size()));
  }
}

void DeviationEvaluator::outcome_into(core::MechanismOutcome& out) const {
  mechanism_->run_into(*family_, arrival_rate_, profile(), out, ws_);
}

double DeviationEvaluator::actual_latency() const {
  outcome_into(ws_.scratch_outcome);
  return ws_.scratch_outcome.actual_latency;
}

}  // namespace lbmv::strategy
