// Chrome trace_event export of the span timeline.
//
// One formatter serves both the full export (write_chrome_trace: dcr-prof
// trace, the figure benches' --profile, tests) and the crash flight dump
// (scope/flight.cpp).  Tracks are named the same way in both: one process per
// shard (pid = shard), one thread per lane (tid = lane).  Events are complete
// ("X") events whose ts/dur print nanoseconds as microseconds with three
// exact decimals.  The format_* functions only snprintf into the caller's
// buffer — no allocation, no locks — so the fatal-signal dump may call them.
// prof/validate.hpp is the schema both outputs must pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "prof/profiler.hpp"

namespace dcr::prof {

// An optional event argument, omitted when `value == kNoId`.
struct TraceArg {
  const char* key = "";
  std::uint64_t value = kNoId;
};

// Large enough for any one event, or for one shard's track names.
inline constexpr std::size_t kTraceEventMax = 1024;

// One complete event on `shard`'s `lane` track.  Returns the length written
// (truncated to cap - 1).
std::size_t format_event(char* buf, std::size_t cap, const char* name, Lane lane,
                         std::uint32_t shard, SimTime start, SimTime end,
                         TraceArg a = {}, TraceArg b = {});

// A span as a complete event: its kind names it, args carry op and iter.
std::size_t format_span(char* buf, std::size_t cap, const Span& s);

// Metadata naming one shard's tracks: the process, then each lane's thread,
// as ",\n"-joined events.
std::size_t format_tracks(char* buf, std::size_t cap, std::uint32_t shard);

// The whole timeline: every shard's tracks, then every span in order.
void write_chrome_trace(std::ostream& os, std::size_t num_shards,
                        const std::vector<Span>& spans);

}  // namespace dcr::prof
