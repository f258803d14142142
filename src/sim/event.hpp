// Realm-style lightweight events for the discrete-event simulator.
//
// An Event is a copyable handle to a one-shot trigger.  Waiters registered
// before the trigger run when it fires; waiters registered after run
// immediately.  Events are the universal synchronization primitive of the
// substrate: task completion, message delivery, collective completion, and
// cross-shard fences are all Events (mirroring Legion's use of Realm events,
// paper §4.1 "gathers event preconditions").
//
// Thread-safety: none needed — the simulator executes exactly one activity
// at a time, and processes are fibers on the thread that runs it (see
// simulator.hpp), so all event operations happen on that one thread.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dcr::sim {

namespace detail {
struct EventState {
  bool triggered = false;
  SimTime trigger_time = kTimeNever;
  std::vector<std::function<void()>> waiters;
};
}  // namespace detail

class Event {
 public:
  // Default-constructed events are "no event": already triggered at time 0.
  // This matches Realm's NO_EVENT and keeps precondition plumbing simple.
  Event() = default;

  static Event no_event() { return Event(); }

  bool exists() const { return static_cast<bool>(state_); }

  bool has_triggered() const { return !state_ || state_->triggered; }

  // Time at which the event fired; only meaningful once triggered.
  SimTime trigger_time() const {
    if (!state_) return 0;
    DCR_CHECK(state_->triggered);
    return state_->trigger_time;
  }

  // Invoke `fn` when the event triggers (immediately if it already has).
  void on_trigger(std::function<void()> fn) const {
    if (has_triggered()) {
      fn();
    } else {
      state_->waiters.push_back(std::move(fn));
    }
  }

  friend bool operator==(const Event& a, const Event& b) {
    return a.state_ == b.state_;
  }

 protected:
  friend class UserEvent;
  friend Event merge_events(std::span<const Event> events);

  std::shared_ptr<detail::EventState> state_;
};

// An event that client code triggers explicitly.
class UserEvent : public Event {
 public:
  UserEvent() { state_ = std::make_shared<detail::EventState>(); }

  void trigger(SimTime now) const {
    DCR_CHECK(!state_->triggered) << "event double-trigger";
    state_->triggered = true;
    state_->trigger_time = now;
    // Waiters may register further waiters while we iterate; index loop keeps
    // that safe (push_back may reallocate, so no iterators).
    for (std::size_t i = 0; i < state_->waiters.size(); ++i) {
      auto fn = std::move(state_->waiters[i]);
      fn();
    }
    state_->waiters.clear();
    state_->waiters.shrink_to_fit();
  }
};

// Event that triggers once all inputs have triggered (Realm merge_events).
// Trigger time is the max of the input trigger times.
inline Event merge_events(std::span<const Event> events) {
  std::vector<Event> pending;
  SimTime latest = 0;
  for (const Event& e : events) {
    if (!e.has_triggered()) {
      pending.push_back(e);
    } else if (e.exists()) {
      latest = std::max(latest, e.trigger_time());
    }
  }
  if (pending.empty()) {
    if (latest == 0) return Event::no_event();
    UserEvent done;
    done.trigger(latest);
    return done;
  }
  if (pending.size() == 1 && latest == 0) return pending.front();

  UserEvent merged;
  auto remaining = std::make_shared<std::size_t>(pending.size());
  for (const Event& e : pending) {
    // A weak reference: a waiter that owned its own event would keep an
    // input that never triggers (an aborted run) alive forever, and with it
    // `merged` and everything waiting on it.
    e.on_trigger([merged, remaining, input = std::weak_ptr(e.state_)]() {
      if (--*remaining == 0) merged.trigger(input.lock()->trigger_time);
    });
  }
  return merged;
}

inline Event merge_events(std::initializer_list<Event> events) {
  return merge_events(std::span<const Event>(events.begin(), events.size()));
}

}  // namespace dcr::sim
