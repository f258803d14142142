// Crash flight recorder for dcr-scope (DESIGN.md §17).
//
// A bounded per-shard ring of the most recent scope events (fine-stage spans,
// fence waits, future waits, task launches).  The Recorder feeds it from the
// same hot-path hooks that build the causal ledger, so it works identically
// under the simulator and the real-threads backend.  When a run dies — a
// control-determinism violation, an "SDC quorum unresolved" abort, or a fatal
// signal — the rings are dumped as Perfetto-loadable Chrome trace_event JSON,
// formatted and track-named by the span exporter's own code
// (prof/trace_event.hpp: pid = shard, tid = lane), plus a blame summary
// (per-shard FenceWaitNs totals from the always-on prof counters), so
// post-mortem triage needs no re-run.
//
// Concurrency: each ring is single-writer (the owning shard thread); the
// head index is published with a release store so a quiesced reader sees
// complete events.  The dump path uses only async-signal-safe primitives
// (snprintf into a stack buffer + ::write), which is what makes the fatal-
// signal hook sound: no allocation, no locks, no iostreams.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dcr::prof {
class Profiler;
}

namespace dcr::scope {

struct FlightEvent {
  enum class Kind : std::uint8_t {
    Span = 0,        // fine-analysis stage; aux = span id
    FenceWait = 1,   // fence wait interval; op = dependent op id
    FutureWait = 2,  // blocking future wait; op = future id, aux = releaser
    Launch = 3,      // point-task launch; aux = point index
  };
  Kind kind = Kind::Span;
  std::uint32_t shard = 0;
  std::uint64_t op = 0;
  std::uint64_t aux = 0;
  SimTime start = 0;
  SimTime end = 0;
};

class FlightRecorder {
 public:
  // One ring of `capacity` events per shard.
  explicit FlightRecorder(std::size_t num_shards, std::size_t capacity = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  std::size_t num_shards() const { return rings_.size(); }
  std::size_t capacity() const { return capacity_; }

  // Append to `shard`'s ring; only the owning shard thread may call this.
  void record(std::uint32_t shard, const FlightEvent& e);

  // Total events ever recorded on `shard` (the ring keeps the last
  // `capacity()` of them).
  std::uint64_t recorded(std::uint32_t shard) const;

  // Dump every ring as Chrome trace_event JSON ("traceEvents" array; the
  // full export's tracks: one process per shard, one thread per lane) plus a
  // "metadata" blame summary: the abort reason and, when `prof` is non-null,
  // per-shard FenceWaitNs totals read from the lock-free counter banks.  Async-signal-safe; returns false if
  // the file cannot be opened.
  bool dump(const std::string& path, const char* reason,
            const prof::Profiler* prof) const;
  // Same, onto an already-open descriptor.
  void dump_fd(int fd, const char* reason, const prof::Profiler* prof) const;

  // Install a process-wide fatal-signal hook (SIGSEGV, SIGABRT, SIGBUS,
  // SIGFPE) that dumps this recorder to `path` before re-raising.  Only one
  // recorder can be armed at a time; passing nullptr disarms.
  static void arm_signal_dump(FlightRecorder* fr, std::string path,
                              const prof::Profiler* prof);

 private:
  struct Ring {
    std::vector<FlightEvent> events;
    alignas(64) std::atomic<std::uint64_t> head{0};
  };

  const std::size_t capacity_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace dcr::scope
