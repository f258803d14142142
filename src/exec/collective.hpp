// Wall-clock collectives for the real-threads backend.
//
// FenceCollective: the cross-shard fence of paper §4.1/§4.2 as a reusable
// N-thread barrier — atomic arrival counter plus futex-style parking via
// C++20 atomic wait/notify (no mutex, no condvar).  Sense-reversing by
// generation so the same object serves every fence epoch.
//
// ValueCollective: every future (§4.2) — a write-once value that all shards
// read.  Each rank writes its (value, TraceCtx) into its own slot; the last
// arriver combines the slots in deterministic rank order and publishes the
// result for everyone.  An all-reduce of a future map has one rank per shard;
// a single-task future is a one-rank broadcast its owner shard arrives at.
// Rank-order combination makes the result independent of arrival order, so
// repeated runs (and the differential tests) see one value stream.
//
// Both use the same slot pattern: each rank writes only its own slot before
// its acq_rel fetch_add; the RMW chain makes every slot visible to the last
// arriver, which folds the merged result before releasing the waiters.
//
// dcr-scope blame (ThreadConfig::scope): the stamped arrival paths mirror the
// simulated collectives' blame surface (sim/collective.hpp) on wall-clock
// time — per-rank arrival/completion timestamps plus the associative
// latest-merge of the arriving TraceCtxs, read back at end-of-run by
// Recorder::harvest_fence / ValueCollective::result_ctx.  The stamped
// FenceCollective path supports exactly one round per object (the threads
// backend keys collectives by dependent op id, so every fence object serves
// one round).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "scope/context.hpp"

namespace dcr::exec {

inline constexpr std::size_t kCacheLine = 64;

class FenceCollective {
 public:
  explicit FenceCollective(std::uint32_t ranks) : ranks_(ranks), blame_(ranks) {
    DCR_CHECK(ranks >= 1);
  }

  FenceCollective(const FenceCollective&) = delete;
  FenceCollective& operator=(const FenceCollective&) = delete;

  std::uint32_t ranks() const { return ranks_; }
  std::uint64_t generation() const { return generation_.load(std::memory_order_acquire); }

  // Arrive and block until all ranks of this generation have arrived.  The
  // last arriver bumps the generation and wakes the parked ranks.
  void arrive_and_wait() {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == ranks_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_acq_rel);
      generation_.notify_all();
      return;
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
  }

  // Blame-stamped arrival (single round per object): record this rank's
  // wall-clock arrival time and causal context, then barrier as above.  The
  // last arriver folds the merged releaser/arrival summary before waking the
  // parked ranks.  After this returns, the caller stamps its wake time with
  // complete_rank — the same clock reads it charges to prof FenceWaitNs, so
  // the two ledgers reconcile exactly by construction.
  void arrive_and_wait(std::uint32_t rank, SimTime now,
                       const scope::TraceCtx& ctx) {
    DCR_CHECK(rank < ranks_);
    BlameSlot& slot = blame_[rank];
    DCR_CHECK(slot.arrived_at == kTimeNever)
        << "stamped fence collectives serve exactly one round";
    slot.arrived_at = now;
    slot.ctx = ctx;
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == ranks_) {
      finalize_blame(now);
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_acq_rel);
      generation_.notify_all();
      return;
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
      generation_.wait(gen, std::memory_order_acquire);
    }
  }

  // Stamp this rank's wake time (own-slot write; read after threads join).
  void complete_rank(std::uint32_t rank, SimTime now) {
    DCR_CHECK(rank < ranks_);
    blame_[rank].completed_at = now;
  }

  // ---- blame surface, mirroring sim::FenceCollective ----------------------
  // Valid once the round completed and the participating threads joined (or
  // otherwise synchronized with the caller).
  std::size_t num_ranks() const { return ranks_; }
  SimTime arrival_time(std::size_t r) const { return blame_[r].arrived_at; }
  SimTime completion_time(std::size_t r) const { return blame_[r].completed_at; }
  const scope::TraceCtx& releaser() const { return releaser_; }
  std::uint32_t last_arrival_rank() const { return last_arrival_rank_; }
  SimTime first_arrival() const { return first_arrival_; }
  SimTime last_arrival() const { return last_arrival_; }
  SimTime completed_at() const { return completed_at_; }
  bool complete() const { return complete_.load(std::memory_order_acquire); }

 private:
  struct BlameSlot {
    SimTime arrived_at = kTimeNever;
    SimTime completed_at = kTimeNever;
    scope::TraceCtx ctx;
  };

  // Last arriver only; every slot write happens-before via the arrived_ RMW
  // chain.  Ties broken exactly like sim::FenceCollective: later time wins,
  // equal times go to the larger rank.
  void finalize_blame(SimTime now) {
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      const BlameSlot& s = blame_[r];
      if (s.arrived_at < first_arrival_) first_arrival_ = s.arrived_at;
      if (last_arrival_rank_ == ~0u || s.arrived_at > last_arrival_ ||
          (s.arrived_at == last_arrival_ && r > last_arrival_rank_)) {
        last_arrival_ = s.arrived_at;
        last_arrival_rank_ = r;
      }
      releaser_ = scope::latest(releaser_, s.ctx);
    }
    completed_at_ = now;
    complete_.store(true, std::memory_order_release);
  }

  const std::uint32_t ranks_;
  std::vector<BlameSlot> blame_;
  scope::TraceCtx releaser_;
  std::uint32_t last_arrival_rank_ = ~0u;
  SimTime first_arrival_ = kTimeNever;
  SimTime last_arrival_ = 0;
  SimTime completed_at_ = kTimeNever;
  std::atomic<bool> complete_{false};
  alignas(kCacheLine) std::atomic<std::uint32_t> arrived_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> generation_{0};
};

// One-shot combine of doubles across N ranks (N = 1 for a broadcast future):
// each rank fills its own slot; the rank that completes the set combines in
// ascending rank order and publishes.
class ValueCollective {
 public:
  using CombineFn = std::function<double(double, double)>;

  ValueCollective(std::uint32_t ranks, double init, CombineFn combine)
      : ranks_(ranks), init_(init), combine_(std::move(combine)), slots_(ranks) {
    DCR_CHECK(ranks >= 1);
  }

  ValueCollective(const ValueCollective&) = delete;
  ValueCollective& operator=(const ValueCollective&) = delete;

  // Contribute rank `r`'s value; each rank contributes exactly once.  The
  // optional TraceCtx is the contributor's causal context (ThreadConfig::
  // scope); the last arriver folds them with scope::latest so result_ctx()
  // names the globally last contributor, exactly like the simulated
  // collective's fan-in merge.
  void arrive(std::uint32_t r, double value, scope::TraceCtx ctx = {}) {
    DCR_CHECK(r < ranks_);
    Slot& slot = slots_[r];
    DCR_CHECK(!slot.set) << "duplicate value-collective arrival";
    slot = Slot{value, ctx, true};
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == ranks_) {
      // Last arriver: combine in rank order, publish.
      double acc = init_;
      for (std::uint32_t i = 0; i < ranks_; ++i) {
        DCR_CHECK(slots_[i].set) << "value-collective missing rank " << i;
        acc = combine_(acc, slots_[i].value);
        result_ctx_ = scope::latest(result_ctx_, slots_[i].ctx);
      }
      result_bits_.store(bits_of(acc), std::memory_order_relaxed);
      ready_.store(true, std::memory_order_release);
      ready_.notify_all();
    }
  }

  bool ready() const { return ready_.load(std::memory_order_acquire); }

  // Block until the combined value is published.
  double wait() const {
    while (!ready_.load(std::memory_order_acquire)) {
      ready_.wait(false, std::memory_order_acquire);
    }
    return value_of(result_bits_.load(std::memory_order_relaxed));
  }

  double result() const {
    DCR_CHECK(ready()) << "value collective not complete";
    return value_of(result_bits_.load(std::memory_order_relaxed));
  }

  // Merged causal context of the contributions; valid once ready() (written
  // by the last arriver before the ready_ release, read after acquire).
  const scope::TraceCtx& result_ctx() const {
    DCR_CHECK(ready()) << "value collective not complete";
    return result_ctx_;
  }

 private:
  struct Slot {
    double value = 0.0;
    scope::TraceCtx ctx;
    bool set = false;
  };

  static std::uint64_t bits_of(double d) {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(d));
    __builtin_memcpy(&b, &d, sizeof(b));
    return b;
  }
  static double value_of(std::uint64_t b) {
    double d;
    __builtin_memcpy(&d, &b, sizeof(d));
    return d;
  }

  const std::uint32_t ranks_;
  const double init_;
  CombineFn combine_;
  // Slot r is written only by rank r, before its arrival RMW; the merged
  // context only by the last arriver, and read after the ready_ edge.
  std::vector<Slot> slots_;
  scope::TraceCtx result_ctx_;
  alignas(kCacheLine) std::atomic<std::uint32_t> arrived_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> result_bits_{0};
  alignas(kCacheLine) std::atomic<bool> ready_{false};
};

}  // namespace dcr::exec
