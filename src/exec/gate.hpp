// ConcurrencyGate: caps how many shard threads execute point-task work
// simultaneously — the threads backend's stand-in for "P compute cores".
// A counting semaphore over an atomic with futex-style parking; shards
// release their slot before parking on a collective and reacquire after, so
// the gate never deadlocks a barrier.  Capacity 0 means uncapped.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/check.hpp"
#include "exec/collective.hpp"

namespace dcr::exec {

class ConcurrencyGate {
 public:
  explicit ConcurrencyGate(std::uint32_t slots) : slots_(slots) {}

  ConcurrencyGate(const ConcurrencyGate&) = delete;
  ConcurrencyGate& operator=(const ConcurrencyGate&) = delete;

  bool enabled() const { return slots_ != 0; }
  std::uint32_t slots() const { return slots_; }

  void acquire() {
    if (!enabled()) return;
    for (;;) {
      std::uint32_t cur = available_.load(std::memory_order_relaxed);
      while (cur > 0) {
        if (available_.compare_exchange_weak(cur, cur - 1, std::memory_order_acquire)) {
          return;
        }
      }
      available_.wait(0, std::memory_order_acquire);
    }
  }

  void release() {
    if (!enabled()) return;
    const std::uint32_t prev = available_.fetch_add(1, std::memory_order_release);
    DCR_CHECK(prev < slots_) << "concurrency gate over-release";
    available_.notify_one();
  }

 private:
  const std::uint32_t slots_;
  alignas(kCacheLine) std::atomic<std::uint32_t> available_{slots_};
};

}  // namespace dcr::exec
