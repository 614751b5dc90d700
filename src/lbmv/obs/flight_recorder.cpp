#include "lbmv/obs/flight_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "lbmv/obs/trace.h"  // now_ns

namespace lbmv::obs {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "info";
}

FlightRecorder::FlightRecorder(std::size_t capacity_per_thread)
    : rings_(capacity_per_thread, /*reserve=*/256) {}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::record(
    Severity severity, const char* subsystem, const char* message,
    std::initializer_list<FlightRecord::KeyValue> payload) {
  record(severity, subsystem, message, payload.begin(), payload.size());
}

void FlightRecorder::record(Severity severity, const char* subsystem,
                            const char* message,
                            const FlightRecord::KeyValue* payload,
                            std::size_t count) {
  if (!enabled()) return;
  FlightRecord rec;
  rec.t_ns = now_ns();
  rec.severity = severity;
  rec.subsystem = subsystem;
  rec.message = message;
  for (std::size_t k = 0; k < count; ++k) {
    if (rec.kv_count >= FlightRecord::kMaxKeyValues) break;
    rec.kv[rec.kv_count++] = payload[k];
  }
  rings_.push(rec);
}

namespace {

/// One record as a single JSON line (no trailing newline); returns the
/// number of bytes written (clamped to the buffer).
int format_record(char* buf, std::size_t size, const FlightRecord& rec) {
  int off = std::snprintf(buf, size,
                          "{\"t_ns\": %llu, \"tid\": %u, \"severity\": "
                          "\"%s\", \"subsystem\": \"%s\", \"message\": \"%s\"",
                          static_cast<unsigned long long>(rec.t_ns), rec.tid,
                          severity_name(rec.severity),
                          rec.subsystem != nullptr ? rec.subsystem : "",
                          rec.message != nullptr ? rec.message : "");
  if (off < 0) return 0;
  const auto append = [&](const char* fmt, auto... args) {
    if (static_cast<std::size_t>(off) >= size) return;
    const int n = std::snprintf(buf + off, size - static_cast<std::size_t>(off),
                                fmt, args...);
    if (n > 0) off += n;
  };
  append(", \"data\": {");
  for (std::size_t k = 0; k < rec.kv_count; ++k) {
    double v = rec.kv[k].value;
    if (std::isnan(v)) v = 0.0;  // JSON has no nan/inf (metrics.cpp idiom)
    if (std::isinf(v)) v = v > 0 ? 1.7976931348623157e308 : -1.7976931348623157e308;
    append("%s\"%s\": %.17g", k == 0 ? "" : ", ",
           rec.kv[k].key != nullptr ? rec.kv[k].key : "", v);
  }
  append("}}");
  return std::min<int>(off, static_cast<int>(size) - 1);
}

}  // namespace

std::string FlightRecorder::to_jsonl() const {
  const std::vector<FlightRecord> recs = records();
  std::ostringstream os;
  char line[512];
  for (const FlightRecord& rec : recs) {
    format_record(line, sizeof line, rec);
    os << line << '\n';
  }
  return os.str();
}

bool FlightRecorder::dump_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_jsonl();
  return static_cast<bool>(out);
}

}  // namespace lbmv::obs
