#include "lbmv/obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "lbmv/obs/trace.h"  // now_ns

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <unistd.h>
#define LBMV_FLIGHT_POSIX 1
#else
#define LBMV_FLIGHT_POSIX 0
#endif

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

/// One record as a single JSON line (no trailing newline).  Shared by the
/// normal export and the crash path; returns the number of bytes written
/// (clamped to the buffer).
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

void FlightRecorder::crash_dump(int fd) const {
#if LBMV_FLIGHT_POSIX
  // Record payloads are plain PODs with static strings, so a torn read
  // (visit_for_crash only tries the lock) garbles a line at worst.
  char line[512];
  rings_.visit_for_crash([&](const FlightRecord& rec) {
    const int n = format_record(line, sizeof line, rec);
    if (n <= 0) return;
    line[n] = '\n';
    const auto written = ::write(fd, line, static_cast<std::size_t>(n) + 1);
    (void)written;
  });
#else
  (void)fd;
#endif
}

namespace {

std::atomic<const char*> g_crash_path{nullptr};
std::terminate_handler g_previous_terminate = nullptr;

#if LBMV_FLIGHT_POSIX
void crash_dump_to_path() {
  const char* path = g_crash_path.load(std::memory_order_relaxed);
  if (path == nullptr) return;
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  FlightRecorder::global().crash_dump(fd);
  ::close(fd);
}

void on_terminate() {
  crash_dump_to_path();
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

void on_fatal_signal(int signo) {
  crash_dump_to_path();
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}
#endif

}  // namespace

void install_crash_handler(const char* path) {
#if LBMV_FLIGHT_POSIX
  const char* expected = nullptr;
  if (!g_crash_path.compare_exchange_strong(expected, path,
                                            std::memory_order_relaxed)) {
    g_crash_path.store(path, std::memory_order_relaxed);  // repoint only
    return;
  }
  g_previous_terminate = std::set_terminate(on_terminate);
  ::signal(SIGABRT, on_fatal_signal);
  ::signal(SIGSEGV, on_fatal_signal);
#else
  (void)path;
#endif
}

}  // namespace lbmv::obs
