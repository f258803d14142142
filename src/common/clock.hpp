// Clock: the time source behind prof/scope span timestamps.
//
// The simulator backend stamps spans with virtual nanoseconds (sim::SimClock
// reads the event calendar); the real-threads backend stamps them with wall
// nanoseconds (exec::WallClock reads std::chrono::steady_clock).  Everything
// downstream — the span ledger (scope::Recorder), the Chrome trace exporter,
// the scope blame reports — consumes SimTime without knowing which kind it
// holds, so the two backends share the instrumentation layers unchanged.
#pragma once

#include "common/types.hpp"

namespace dcr {

class Clock {
 public:
  virtual ~Clock() = default;
  // Monotonic nanoseconds: virtual ticks on the simulator, wall time on the
  // threads backend.
  virtual SimTime now() const = 0;
};

}  // namespace dcr
