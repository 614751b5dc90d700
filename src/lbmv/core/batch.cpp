#include "lbmv/core/batch.h"

#include "lbmv/model/latency.h"

namespace lbmv::core {

FamilyKind classify_family(const model::LatencyFamily& family) {
  if (dynamic_cast<const model::LinearFamily*>(&family) != nullptr) {
    return FamilyKind::kLinear;
  }
  if (dynamic_cast<const model::MM1Family*>(&family) != nullptr) {
    return FamilyKind::kMm1;
  }
  if (dynamic_cast<const model::WorkloadFamily*>(&family) != nullptr) {
    return FamilyKind::kWorkload;
  }
  return FamilyKind::kGeneric;
}

RoundWorkspace& RoundWorkspace::thread_local_instance() {
  thread_local RoundWorkspace ws;
  return ws;
}

}  // namespace lbmv::core
