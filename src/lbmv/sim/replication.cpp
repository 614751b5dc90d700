#include "lbmv/sim/replication.h"

#include "lbmv/obs/probes.h"
#include "lbmv/obs/trace.h"
#include "lbmv/util/error.h"

namespace lbmv::sim {

ReplicationRunner::ReplicationRunner(ReplicationOptions options)
    : options_(options) {
  LBMV_REQUIRE(options_.replications > 0,
               "at least one replication required");
}

util::Rng ReplicationRunner::stream(std::size_t rep) const {
  // split(rep + 1): stream 0 is reserved for the experiment's own
  // non-replicated draws (e.g. a shared warmup), matching the convention
  // protocol.cpp uses for its per-component splits.
  return util::Rng(options_.root_seed).split(rep + 1);
}

void ReplicationRunner::run(
    const std::function<void(std::size_t, util::Rng&)>& body) const {
  util::ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : util::ThreadPool::global();
  pool.parallel_for(
      0, options_.replications,
      [&](std::size_t rep) {
        const obs::Span span("replication", "protocol");
        util::Rng rng = stream(rep);
        body(rep, rng);
        if (obs::enabled()) obs::ProtocolProbes::get().replications.inc();
      },
      /*grain=*/1);
}

}  // namespace lbmv::sim
