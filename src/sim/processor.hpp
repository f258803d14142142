// Simulated processors.
//
// A Processor executes work items serially in FIFO-by-ready-time order, the
// way a Realm processor drains its task queue.  Every simulated node carries
// one *analysis* processor (the runtime thread executing dependence analysis
// and, under DCR, the replicated control program) and a configurable number
// of *compute* processors (stand-ins for the CPUs/GPUs that run leaf tasks).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace dcr::sim {

enum class ProcKind : std::uint8_t { Analysis, Compute };

class Processor {
 public:
  Processor(Simulator& sim, ProcId id, NodeId node, ProcKind kind)
      : sim_(sim), id_(id), node_(node), kind_(kind) {}

  ProcId id() const { return id_; }
  NodeId node() const { return node_; }
  ProcKind kind() const { return kind_; }

  // Enqueue a work item that becomes eligible when `precondition` triggers,
  // occupies the processor for `duration`, then triggers the returned event.
  // `body` (optional) runs at completion on the simulation thread.  An item
  // whose precondition has triggered starts at once, so right after the call
  // busy_until() is its completion time.
  Event enqueue(SimTime duration, const Event& precondition = Event::no_event(),
                std::function<void()> body = nullptr) {
    UserEvent done;
    auto start_fn = [this, duration, done, body = std::move(body)]() mutable {
      const SimTime start = std::max(sim_.now(), busy_until_);
      // Straggler injection: work starting inside a slowdown window stretches.
      if (faults_) duration = faults_->scaled_duration(node_, start, duration);
      const SimTime end = start + duration;
      busy_until_ = end;
      busy_time_ += duration;
      ++tasks_run_;
      sim_.schedule_at(end, [this, done, body = std::move(body)] {
        if (body) body();
        done.trigger(sim_.now());
      });
    };
    if (precondition.has_triggered()) {
      start_fn();
    } else {
      precondition.on_trigger(std::move(start_fn));
    }
    return done;
  }

  // Consult `plan` for straggler windows when starting work (not owned;
  // nullptr detaches).
  void attach_faults(const FaultPlan* plan) { faults_ = plan; }

  // Earliest time a new item enqueued now would start.
  SimTime busy_until() const { return busy_until_; }

  SimTime busy_time() const { return busy_time_; }
  std::uint64_t tasks_run() const { return tasks_run_; }
  void reset_stats() { busy_time_ = 0; tasks_run_ = 0; }

 private:
  Simulator& sim_;
  ProcId id_;
  NodeId node_;
  ProcKind kind_;
  const FaultPlan* faults_ = nullptr;
  SimTime busy_until_ = 0;
  SimTime busy_time_ = 0;
  std::uint64_t tasks_run_ = 0;
};

}  // namespace dcr::sim
