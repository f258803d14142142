// Deterministic discrete-event simulator with process-oriented extensions.
//
// The simulator owns a virtual clock and an event calendar ordered by
// (time, insertion sequence).  Determinism: ties in time break by insertion
// order, no wall-clock anywhere, and at most one activity (the simulator loop
// or exactly one SimProcess) executes at any instant.
//
// SimProcess gives straight-line C++ code the ability to *block* in virtual
// time (delay, wait on an Event).  This is what lets application control
// programs — the replicated shard mains of DCR — be written as ordinary
// sequential C++ with arbitrary control flow, exactly the programming model
// the paper targets.  Each process is a fiber: a ucontext with its own stack,
// run on whichever thread calls Simulator::run().  Resuming a process swaps
// into its context and every blocking call swaps back, so exactly one
// activity runs at a time by construction and the simulation stays
// deterministic without any locking.
#pragma once

#include <sys/mman.h>
#include <ucontext.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/event.hpp"

// Fiber switches must be announced to Asan (which tracks the current stack's
// bounds and fake frames) and to Tsan (which keeps one shadow state per
// fiber).  GCC defines __SANITIZE_*__; Clang answers __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define DCR_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define DCR_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DCR_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define DCR_FIBER_TSAN 1
#endif
#endif
#ifdef DCR_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#endif
#ifdef DCR_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace dcr::sim {

class Simulator;

// Thrown inside a process when it is killed while blocked (fault injection,
// graceful abort, or simulator teardown); unwinds the user stack so
// destructors run.
struct ProcessKilled {};

// Handle passed to process bodies for interacting with virtual time.
class ProcessContext {
 public:
  ProcessContext(Simulator& sim, class SimProcess& proc) : sim_(sim), proc_(proc) {}

  Simulator& simulator() { return sim_; }
  SimTime now() const;

  // Advance this process's virtual time by `d`.
  void delay(SimTime d);

  // Block until `e` triggers (returns immediately if it already has).
  void wait(const Event& e);

  // Block until `e` triggers, but charge at least `min_delay` of virtual
  // time (models a blocking call with fixed overhead).
  void wait_at_least(const Event& e, SimTime min_delay) {
    const SimTime start = now();
    wait(e);
    if (now() < start + min_delay) delay(start + min_delay - now());
  }

 private:
  Simulator& sim_;
  SimProcess& proc_;
};

class SimProcess {
 public:
  SimProcess(Simulator& sim, std::string name, std::function<void(ProcessContext&)> body)
      : sim_(sim), name_(std::move(name)), body_(std::move(body)) {}
  ~SimProcess() { kill(); }

  SimProcess(const SimProcess&) = delete;
  SimProcess& operator=(const SimProcess&) = delete;

  const std::string& name() const { return name_; }
  bool finished() const { return state_ == State::Finished; }

  // Event that triggers when the process body returns.
  Event completion() const { return done_; }

  // Kill this process (fault injection).  Legal only while the process is
  // not actively running — i.e. it is blocked in virtual time or has not
  // started yet, which is always the case when a calendar callback (such as
  // a scheduled crash) or another process's body executes.  A process that
  // never started is marked finished without running its body; a blocked one
  // unwinds via ProcessKilled so destructors run, and kill() returns once it
  // has.  The completion event never triggers for a killed process.
  void kill();

 private:
  friend class Simulator;
  friend class ProcessContext;

  enum class State { NotStarted, Running, Blocked, Finished };

  // 8 MiB, the pthread default, so any body that fit on a thread still fits.
  // The mapping is NORESERVE: only the pages a body touches are committed.
  static constexpr std::size_t kStackBytes = std::size_t{8} << 20;
  static constexpr std::size_t kGuardBytes = 4096;  // PROT_NONE, below the stack

  // Called by the calendar: run the process until it blocks again.
  void resume();
  // Called from the body: switch back to whoever resumed this process.
  void yield_to_sim();

  // Fiber plumbing.  enter() switches from the caller into the process and
  // returns when it blocks or finishes; switch_out() is the reverse.
  void enter();
  void switch_out();
  static void fiber_main(unsigned hi, unsigned lo);
  void on_switched_in();

  Simulator& sim_;
  std::string name_;
  std::function<void(ProcessContext&)> body_;
  UserEvent done_;

  State state_ = State::NotStarted;
  bool kill_ = false;
  char* stack_ = nullptr;  // guard page + stack, mapped on first resume
  ucontext_t context_{};
  // Saved by each enter(): a process killed from another process's body
  // returns to that body, not to the calendar loop.
  ucontext_t caller_{};
#ifdef DCR_FIBER_ASAN
  void* fake_stack_ = nullptr;  // this fiber's Asan fake frames while switched out
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_bytes_ = 0;
#endif
#ifdef DCR_FIBER_TSAN
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
#endif
};

class Simulator {
 public:
  Simulator() = default;
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule `fn` to run at now()+delay (ties run in scheduling order).
  void schedule(SimTime delay, std::function<void()> fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  void schedule_at(SimTime t, std::function<void()> fn) {
    DCR_CHECK(t >= now_) << "scheduling into the past: " << t << " < " << now_;
    calendar_.push(Item{t, next_seq_++, std::move(fn)});
  }

  // Create an event that triggers at now()+delay.
  Event timer(SimTime delay) {
    UserEvent e;
    schedule(delay, [this, e] { e.trigger(now_); });
    return e;
  }

  // Spawn a process; it starts executing at now()+start_delay.
  SimProcess& spawn(std::string name, std::function<void(ProcessContext&)> body,
                    SimTime start_delay = 0);

  // Run until the calendar is empty.  Returns the final virtual time.  An
  // exception escaping a process body (other than ProcessKilled) finishes
  // that process and is rethrown here, on the calling thread; processes
  // still blocked unwind when the simulator is destroyed.
  SimTime run();

  // Number of processes spawned that have not yet finished.
  std::size_t live_processes() const;

  std::uint64_t events_processed() const { return events_processed_; }

 private:
  friend class SimProcess;
  friend class ProcessContext;

  struct Item {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct ItemOrder {
    bool operator()(const Item& a, const Item& b) const {
      // priority_queue is a max-heap; invert for earliest-first.
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Item, std::vector<Item>, ItemOrder> calendar_;
  std::vector<std::unique_ptr<SimProcess>> processes_;
  std::exception_ptr failure_;  // first body exception not yet rethrown by run()
};

// ---- inline implementations ------------------------------------------------

inline SimTime ProcessContext::now() const { return sim_.now(); }

inline void ProcessContext::delay(SimTime d) {
  if (d == 0) return;
  sim_.schedule(d, [p = &proc_] { p->resume(); });
  proc_.yield_to_sim();
}

inline void ProcessContext::wait(const Event& e) {
  if (e.has_triggered()) return;
  e.on_trigger([p = &proc_, &sim = sim_] {
    // Defer the resume to a fresh calendar item so the triggering activity
    // finishes first; keeps trigger cascades deterministic.
    sim.schedule(0, [p] { p->resume(); });
  });
  proc_.yield_to_sim();
}

inline void SimProcess::kill() {
  if (state_ == State::Finished) return;
  DCR_CHECK(state_ != State::Running) << "cannot kill running process " << name_;
  kill_ = true;
  if (state_ == State::NotStarted) {
    state_ = State::Finished;
    return;
  }
  enter();
  DCR_CHECK(state_ == State::Finished) << "process " << name_ << " survived kill";
}

inline void SimProcess::resume() {
  if (state_ == State::Finished) return;
  DCR_CHECK(state_ != State::Running) << "process " << name_ << " resumed while running";
  if (state_ == State::NotStarted) {
    void* base = mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    DCR_CHECK(base != MAP_FAILED) << "cannot map a stack for process " << name_;
    stack_ = static_cast<char*>(base);
    DCR_CHECK(mprotect(stack_, kGuardBytes, PROT_NONE) == 0);
    getcontext(&context_);
    context_.uc_stack.ss_sp = stack_ + kGuardBytes;
    context_.uc_stack.ss_size = kStackBytes;
    context_.uc_link = nullptr;  // fiber_main never returns
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&context_, reinterpret_cast<void (*)()>(&SimProcess::fiber_main), 2,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
#ifdef DCR_FIBER_TSAN
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }
  enter();
}

inline void SimProcess::enter() {
  state_ = State::Running;
#ifdef DCR_FIBER_ASAN
  void* caller_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&caller_fake_stack, stack_ + kGuardBytes, kStackBytes);
#endif
#ifdef DCR_FIBER_TSAN
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&caller_, &context_);
#ifdef DCR_FIBER_ASAN
  __sanitizer_finish_switch_fiber(caller_fake_stack, nullptr, nullptr);
#endif
  if (state_ != State::Finished) return;
  // The body is done: release the stack we just switched off.
#ifdef DCR_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#ifdef DCR_FIBER_ASAN
  __asan_unpoison_memory_region(stack_ + kGuardBytes, kStackBytes);
#endif
  munmap(stack_, kGuardBytes + kStackBytes);
  stack_ = nullptr;
}

inline void SimProcess::on_switched_in() {
#ifdef DCR_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_, &caller_stack_, &caller_stack_bytes_);
#endif
}

inline void SimProcess::switch_out() {
#ifdef DCR_FIBER_ASAN
  // A finished fiber passes no save slot, so Asan frees its fake frames.
  __sanitizer_start_switch_fiber(state_ == State::Finished ? nullptr : &fake_stack_,
                                 caller_stack_, caller_stack_bytes_);
#endif
#ifdef DCR_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
  swapcontext(&context_, &caller_);
  on_switched_in();
}

inline void SimProcess::yield_to_sim() {
  state_ = State::Blocked;
  switch_out();
  if (kill_) throw ProcessKilled{};
}

inline void SimProcess::fiber_main(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<SimProcess*>(std::uintptr_t{hi} << 32 | lo);
  self->on_switched_in();
  try {
    ProcessContext ctx(self->sim_, *self);
    self->body_(ctx);
    self->done_.trigger(self->sim_.now());
  } catch (const ProcessKilled&) {
    // Killed mid-flight; the stack has unwound.
  } catch (...) {
    if (!self->sim_.failure_) self->sim_.failure_ = std::current_exception();
  }
  self->state_ = State::Finished;
  self->switch_out();  // never resumed
}

inline SimProcess& Simulator::spawn(std::string name,
                                    std::function<void(ProcessContext&)> body,
                                    SimTime start_delay) {
  processes_.push_back(std::make_unique<SimProcess>(*this, std::move(name), std::move(body)));
  SimProcess* p = processes_.back().get();
  schedule(start_delay, [p] { p->resume(); });
  return *p;
}

inline SimTime Simulator::run() {
  while (!calendar_.empty()) {
    // priority_queue::top is const; move out via const_cast-free copy of fn.
    Item item = std::move(const_cast<Item&>(calendar_.top()));
    calendar_.pop();
    DCR_CHECK(item.time >= now_);
    now_ = item.time;
    ++events_processed_;
    item.fn();
    if (failure_) std::rethrow_exception(std::exchange(failure_, nullptr));
  }
  return now_;
}

inline std::size_t Simulator::live_processes() const {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->finished()) ++n;
  }
  return n;
}

inline Simulator::~Simulator() {
  // Kill blocked processes before members are destroyed.
  processes_.clear();
}

}  // namespace dcr::sim
