// Realm-style lightweight events for the discrete-event simulator.
//
// An Event is a copyable handle to a one-shot trigger.  Waiters registered
// before the trigger run when it fires; waiters registered after run
// immediately.  Events are the universal synchronization primitive of the
// substrate: task completion, message delivery, collective completion, and
// cross-shard fences are all Events (mirroring Legion's use of Realm events,
// paper §4.1 "gathers event preconditions").
//
// Ownership: a handle holds a plain (non-atomic) intrusive reference on the
// event's state, and every waiter is owned by the event it waits on.  A
// merged event is owned by its pending inputs (each input holds a "merge
// target" waiter on it), so waiters on a merged event still run after its
// last handle is dropped, and an input that never triggers frees the merged
// event when the input dies.
//
// Thread-safety: none — all events live on the calendar thread.  The
// simulator executes exactly one activity at a time, and processes are
// fibers on the thread that runs it (see simulator.hpp).  Other threads may
// only copy and test Event::no_event(), which owns no state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dcr::sim {

namespace detail {
struct EventState;

// Owning intrusive pointer to an EventState.
class EventRef {
 public:
  EventRef() = default;
  explicit EventRef(EventState* s);
  EventRef(const EventRef& o) : EventRef(o.s_) {}
  EventRef(EventRef&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
  EventRef& operator=(EventRef o) noexcept {
    std::swap(s_, o.s_);
    return *this;
  }
  ~EventRef();

  EventState* get() const { return s_; }
  EventState* operator->() const { return s_; }
  explicit operator bool() const { return s_ != nullptr; }

 private:
  EventState* s_ = nullptr;
};

// One registered waiter: either a callback, or the merged event this input
// counts toward (merge_target set, fn empty).
struct Waiter {
  EventRef merge_target;
  std::function<void()> fn;
};

struct EventState {
  std::uint32_t refs = 0;
  std::uint32_t pending = 0;  // merged events: inputs not yet triggered
  bool triggered = false;
  SimTime trigger_time = kTimeNever;
  std::vector<Waiter> waiters;
};

inline EventRef::EventRef(EventState* s) : s_(s) {
  if (s_) ++s_->refs;
}

inline EventRef::~EventRef() {
  if (s_ && --s_->refs == 0) delete s_;
}

// Trigger `s` at `now` and run its waiters in registration order.  A merge
// target fires (recursively, here) when its last pending input does.
inline void fire(EventState& s, SimTime now) {
  DCR_CHECK(!s.triggered) << "event double-trigger";
  s.triggered = true;
  s.trigger_time = now;
  // Waiters may register further waiters while we iterate; index loop keeps
  // that safe (push_back may reallocate, so no iterators).  Each waiter is
  // moved out first, so a merge target stays alive while it fires.
  for (std::size_t i = 0; i < s.waiters.size(); ++i) {
    Waiter w = std::move(s.waiters[i]);
    if (w.merge_target) {
      if (--w.merge_target->pending == 0) fire(*w.merge_target.get(), now);
    } else {
      w.fn();
    }
  }
  s.waiters.clear();
  s.waiters.shrink_to_fit();
}
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
      state_->waiters.push_back({{}, std::move(fn)});
    }
  }

  friend bool operator==(const Event& a, const Event& b) {
    return a.state_.get() == b.state_.get();
  }

 protected:
  friend Event merge_events(std::span<const Event> events);

  detail::EventRef state_;
};

// An event that client code triggers explicitly.
class UserEvent : public Event {
 public:
  UserEvent() { state_ = detail::EventRef(new detail::EventState); }

  void trigger(SimTime now) const { detail::fire(*state_.get(), now); }
};

// Event that triggers once all inputs have triggered (Realm merge_events).
// Trigger time is the max of the input trigger times.  Allocates nothing
// beyond the merged event itself and one waiter slot per pending input.
inline Event merge_events(std::span<const Event> events) {
  std::uint32_t pending = 0;
  const Event* last_pending = nullptr;
  SimTime latest = 0;
  for (const Event& e : events) {
    if (!e.has_triggered()) {
      ++pending;
      last_pending = &e;
    } else if (e.exists()) {
      latest = std::max(latest, e.trigger_time());
    }
  }
  if (pending == 0) {
    if (latest == 0) return Event::no_event();
    UserEvent done;
    done.trigger(latest);
    return done;
  }
  if (pending == 1 && latest == 0) return *last_pending;

  UserEvent merged;
  merged.state_->pending = pending;
  // Each pending input owns the merged event through its waiter; an input
  // that never triggers (an aborted run) frees it when the input dies.
  for (const Event& e : events) {
    if (!e.has_triggered()) e.state_->waiters.push_back({merged.state_, nullptr});
  }
  return merged;
}

inline Event merge_events(std::initializer_list<Event> events) {
  return merge_events(std::span<const Event>(events.begin(), events.size()));
}

}  // namespace dcr::sim
