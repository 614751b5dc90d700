#pragma once

/// \file thread_rings.h
/// Internal: the per-thread overwrite-oldest ring buffers behind
/// TraceRecorder (trace.h) and FlightRecorder (flight_recorder.h).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace lbmv::obs::detail {

/// One bounded ring of Records per recording thread.  A thread's first
/// record gives it a ring and the next small id (1, 2, ...), stamped into
/// every record's `tid`.  The first `capacity` records of a ring append;
/// later ones overwrite the oldest and count as dropped.  Record must have
/// a `std::uint32_t tid` member and the member \p Time, which orders
/// collect().
///
/// One mutex guards lookup, writes and reads: both recorders are scope- or
/// anomaly-grained, never per event, and a lock keeps every reader/writer
/// pair simple and sanitizer-clean.
template <class Record, auto Time>
class ThreadRings {
 public:
  /// \p reserve: records a new ring pre-allocates (at most its capacity).
  ThreadRings(std::size_t capacity, std::size_t reserve)
      : capacity_(capacity == 0 ? 1 : capacity), reserve_(reserve) {}

  /// Append \p rec to the calling thread's ring.
  void push(Record rec) {
    std::lock_guard lock(mutex_);
    Ring& ring = rings_[std::this_thread::get_id()];
    if (ring.tid == 0) {
      ring.tid = next_tid_++;
      ring.buf.reserve(std::min(capacity_, reserve_));
    }
    rec.tid = ring.tid;
    if (ring.buf.size() < capacity_) {
      ring.buf.push_back(rec);
    } else {
      ring.buf[ring.next] = rec;
      ring.next = (ring.next + 1) % capacity_;
    }
    ++ring.recorded;
  }

  /// Every retained record, sorted by Time, then tid.
  [[nodiscard]] std::vector<Record> collect() const {
    std::vector<Record> out;
    {
      std::lock_guard lock(mutex_);
      for (const auto& entry : rings_) {
        const std::vector<Record>& buf = entry.second.buf;
        out.insert(out.end(), buf.begin(), buf.end());
      }
    }
    std::sort(out.begin(), out.end(), [](const Record& a, const Record& b) {
      if (a.*Time != b.*Time) return a.*Time < b.*Time;
      return a.tid < b.tid;
    });
    return out;
  }

  /// Records overwritten because a ring was full.
  [[nodiscard]] std::uint64_t dropped() const {
    std::lock_guard lock(mutex_);
    std::uint64_t dropped = 0;
    for (const auto& entry : rings_) {
      dropped += entry.second.recorded - entry.second.buf.size();
    }
    return dropped;
  }

  /// Forget every ring; a thread recording again gets a fresh ring and id.
  void clear() {
    std::lock_guard lock(mutex_);
    rings_.clear();
  }

 private:
  struct Ring {
    std::uint32_t tid = 0;  ///< 0 until the ring's first record
    std::vector<Record> buf;
    std::size_t next = 0;  ///< overwrite position once buf is full
    std::uint64_t recorded = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::thread::id, Ring> rings_;
  const std::size_t capacity_;
  const std::size_t reserve_;
  std::uint32_t next_tid_ = 1;
};

}  // namespace lbmv::obs::detail
