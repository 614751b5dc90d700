#include "lbmv/obs/trace.h"

#include <chrono>
#include <cstdio>
#include <sstream>

namespace lbmv::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceRecorder::TraceRecorder(std::size_t capacity_per_thread)
    : rings_(capacity_per_thread, /*reserve=*/1024) {}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::record(const char* name, const char* category,
                           std::uint64_t start_ns,
                           std::uint64_t duration_ns) {
  if (!enabled()) return;
  rings_.push(TraceEvent{name, category, start_ns, duration_ns, 0});
}

std::string TraceRecorder::to_chrome_json() const {
  const std::vector<TraceEvent> evs = events();
  const std::uint64_t base = evs.empty() ? 0 : evs.front().start_ns;
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    char ts[40], dur[40];
    std::snprintf(ts, sizeof ts, "%.3f",
                  static_cast<double>(e.start_ns - base) / 1000.0);
    std::snprintf(dur, sizeof dur, "%.3f",
                  static_cast<double>(e.duration_ns) / 1000.0);
    os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << e.name
       << "\", \"cat\": \"" << e.category
       << "\", \"ph\": \"X\", \"ts\": " << ts << ", \"dur\": " << dur
       << ", \"pid\": 1, \"tid\": " << e.tid << '}';
  }
  os << (evs.empty() ? "" : "\n") << "]}";
  return os.str();
}

}  // namespace lbmv::obs
