// dcr-scope recorder: the per-run span store and causal ledger.
//
// Every timed interval a run records — coarse and fine analysis stages, fence
// and future waits, execution fences, trace windows, recovery fast-forwards —
// is stored here and nowhere else, as a prof::Span with a dense id.  The
// runtime owns one Recorder whenever DcrConfig::profile / ThreadConfig::profile
// or ::scope is set:
//   - under profile it keeps every span kind (the dcr-prof timeline);
//   - otherwise it keeps only fine-stage spans, the units of causal blame.
//   - record          the one call per timed interval.  A fine stage (fresh or
//                     template replay) becomes the shard's *current span*,
//                     the causal parent of everything it does next; fine
//                     stages and fence waits also feed the flight ring.
// The causal hooks are called only when scope is on — each runtime gates
// every call on its scope() pointer, the one place that decision lives:
//   - fence_arrival   when a shard's control thread reaches a fence — returns
//                     the context stamped onto the collective arrival;
//   - on_future_wait  when a blocking future wait resolves, with the merged
//                     context of the contribution that released it;
//   - on_task_launch  when a point task is launched;
//   - on_message      from the network send tap (sim) or the mailbox publish
//                     path (threads), once per logical message carrying a
//                     valid context;
//   - harvest_fence   at end of run, copying each FenceCollective's per-rank
//                     arrival/completion timestamps and merged releaser.
//
// Thread-safety model (DESIGN.md §17): every hot-path hook writes only the
// calling shard's *single-writer* append ledger — no locks, no shared
// mutation.  Span ids come from one relaxed atomic counter so they are dense
// and globally unique on both backends.  The merged read-side views
// (spans(), launches(), ...) lazily splice the per-shard ledgers together and
// are only legal once the shards have quiesced (end of run on the threads
// backend; always on the single-threaded simulator).  Live observers — the
// wall-clock metrics refresher — must instead use the *_recorded() atomic
// counters, which are safe to read concurrently with writers.
//
// Everything is plain host-side state: no simulator events, no virtual time.
// By construction a scope-on run has a makespan identical to scope-off under
// the simulator, and per-rank fence waits (completion - arrival) equal
// dcr-prof's FenceWaitNs samples instant for instant — on the threads backend
// the *same two clock reads* feed both ledgers — which is what lets reports
// reconcile the two ledgers exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "prof/profiler.hpp"
#include "scope/context.hpp"
#include "scope/flight.hpp"

namespace dcr::scope {

inline constexpr std::uint64_t kNoIter = ~0ull;

// A recorded span; its `id` is the dense ledger id.  Fine-stage spans are
// the unit of causal blame (kind FineReplay: produced by template replay).
using SpanRec = prof::Span;

// One rank's view of a fence round.
struct FenceShard {
  SimTime arrived_at = kTimeNever;    // when this shard contributed
  SimTime completed_at = kTimeNever;  // when the combined result reached it
  bool arrived() const { return arrived_at != kTimeNever; }
  bool completed() const { return completed_at != kTimeNever; }
  SimTime wait() const {
    return completed() && arrived() ? completed_at - arrived_at : 0;
  }
};

// The blame ledger entry for one non-elided fence.
struct FenceRec {
  std::uint64_t op = 0;          // dependent OpId the fence protects
  std::uint64_t iter = kNoIter;  // loop iteration, if the program declared one
  std::vector<FenceShard> shards;
  TraceCtx releaser;             // merged context: last-releasing shard + span
  std::uint32_t last_shard = kNoShard;  // raw last arriver (valid scope-off too)
  SimTime first_arrival = kTimeNever;
  SimTime last_arrival = kTimeNever;
  SimTime completed_at = kTimeNever;
  bool complete = false;

  SimTime latency() const {
    return complete && completed_at >= first_arrival
               ? completed_at - first_arrival
               : 0;
  }
  SimTime total_wait() const {
    SimTime t = 0;
    for (const FenceShard& s : shards) t += s.wait();
    return t;
  }
};

// A resolved blocking future wait on one shard.
struct FutureRec {
  std::uint64_t future = 0;
  std::uint32_t shard = kNoShard;  // the waiter
  SimTime started = 0;
  SimTime ended = 0;
  TraceCtx releaser;  // last contribution merged into the future's collective
};

// A point-task launch, tagged with the span that caused it.
struct LaunchRec {
  std::uint32_t shard = kNoShard;
  std::uint64_t op = 0;
  std::uint64_t point = 0;
  std::uint64_t span = kNoSpan;
  SimTime at = 0;
};

// One resolved SDC-replication quorum (dcr/replicate).  Feeds the `quorum`
// report: disagreement counts, re-execution latency, and the shard ranking of
// corruption sources.
struct QuorumRec {
  std::uint64_t op = 0;
  std::uint64_t point = 0;
  std::uint32_t primary = kNoShard;
  std::uint32_t rounds = 0;      // re-execution rounds before resolution
  std::uint32_t ballots = 0;     // digests tallied (primary + replicas)
  std::uint32_t mismatches = 0;  // ballots out-voted by the winning digest
  bool primary_corrupted = false;
  std::vector<std::uint32_t> corrupted_shards;  // shard of each losing ballot
  SimTime opened = 0;
  SimTime resolved = 0;

  SimTime latency() const { return resolved >= opened ? resolved - opened : 0; }
};

struct MessageStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class Recorder {
 public:
  // `all_spans`: keep every span kind, not only fine stages (profiling).
  // The causal hooks below are called only when scope is on; the runtime
  // gates them, so the ledger itself does not know whether it is on.
  Recorder(std::size_t num_shards, bool all_spans, std::uint64_t trace_id = 1)
      : trace_(trace_id), all_spans_(all_spans) {
    DCR_CHECK(trace_id != 0) << "trace id 0 means 'tracing off'";
    shards_.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      shards_.push_back(std::make_unique<ShardLedger>());
    }
  }

  std::uint64_t trace_id() const { return trace_; }
  std::size_t num_shards() const { return shards_.size(); }

  // Attach a crash flight recorder (scope/flight.hpp): every hot-path hook
  // also appends a bounded-ring event, so a post-mortem dump needs no re-run.
  // Must be set before shard threads start; may be null.
  void set_flight(FlightRecorder* flight) { flight_ = flight; }
  FlightRecorder* flight() const { return flight_; }

  // ---- spans -------------------------------------------------------------
  // The one recording call for a timed interval; called by the thread of
  // `sp.shard` only.  Returns the span's id, or kNoSpan when this ledger does
  // not keep its kind.  Ids are dense across shards (one atomic allocator),
  // so after a quiesced merge spans()[i].id == i.
  std::uint64_t record(const prof::Span& sp) {
    if (!prof::is_fine_stage(sp.kind)) {
      if (flight_ != nullptr && sp.kind == prof::SpanKind::FenceWait) {
        flight_->record(sp.shard, FlightEvent{FlightEvent::Kind::FenceWait, sp.shard,
                                              sp.op, /*aux=*/0, sp.start, sp.end});
      }
      return all_spans_ ? keep(ledger(sp.shard), sp) : kNoSpan;
    }
    ShardLedger& led = ledger(sp.shard);
    const std::uint64_t id = keep(led, sp);
    led.current = id;
    // Single writer: a plain increment published for live readers.
    led.fine_spans.store(led.fine_spans.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    if (flight_ != nullptr) {
      flight_->record(sp.shard, FlightEvent{FlightEvent::Kind::Span, sp.shard, sp.op,
                                            /*aux=*/id, sp.start, sp.end});
    }
    return id;
  }

  // The context a message from `shard` carries right now: the shard's last
  // completed fine stage (kNoSpan while it is still in pure control work).
  // Only the owning shard thread may call this (it reads the single-writer
  // current-span cell).
  TraceCtx current_ctx(std::uint32_t shard, SimTime now) const {
    return TraceCtx{trace_, ledger(shard).current, shard, now};
  }

  // ---- fences ------------------------------------------------------------
  // Called when a shard's control thread reaches the fence for `fence_op`;
  // notes the iteration and returns the context to stamp onto the arrival.
  TraceCtx fence_arrival(std::uint64_t fence_op, std::uint32_t shard,
                         std::uint64_t iter, SimTime now) {
    ledger(shard).fence_iters.emplace_back(fence_op, iter);
    return current_ctx(shard, now);
  }

  // End-of-run (quiesced): copy the collective's per-rank timestamps + merged
  // releaser.  Templated so both sim::FenceCollective (virtual time) and
  // exec::FenceCollective (wall clock) harvest through the same code — the
  // two expose the same blame surface.
  template <typename Collective>
  void harvest_fence(std::uint64_t fence_op, const Collective& coll) {
    FenceRec rec;
    rec.op = fence_op;
    rec.iter = lookup_fence_iter(fence_op);
    rec.shards.resize(coll.num_ranks());
    for (std::size_t r = 0; r < coll.num_ranks(); ++r) {
      rec.shards[r].arrived_at = coll.arrival_time(r);
      rec.shards[r].completed_at = coll.completion_time(r);
    }
    rec.releaser = coll.releaser();
    rec.last_shard = coll.last_arrival_rank();
    rec.first_arrival = coll.first_arrival();
    rec.last_arrival = coll.last_arrival();
    rec.completed_at = coll.completed_at();
    rec.complete = coll.complete();
    fences_.push_back(std::move(rec));
    fences_count_.store(fences_.size(), std::memory_order_relaxed);
  }

  const std::vector<FenceRec>& fences() const { return fences_; }

  // ---- futures -----------------------------------------------------------
  // Records the FutureWait span `sp` and the wait itself with its releaser.
  void on_future_wait(const prof::Span& sp, std::uint64_t future, TraceCtx releaser) {
    record(sp);
    ledger(sp.shard).future_waits.push_back(
        FutureRec{future, sp.shard, sp.start, sp.end, releaser});
    future_waits_count_.fetch_add(1, std::memory_order_relaxed);
    if (flight_ != nullptr) {
      flight_->record(sp.shard, FlightEvent{FlightEvent::Kind::FutureWait, sp.shard,
                                            future, /*aux=*/releaser.origin,
                                            sp.start, sp.end});
    }
  }

  // ---- task launches -----------------------------------------------------
  void on_task_launch(std::uint32_t shard, std::uint64_t op, std::uint64_t point,
                      SimTime at) {
    ShardLedger& led = ledger(shard);
    led.launches.push_back(LaunchRec{shard, op, point, led.current, at});
    launches_count_.fetch_add(1, std::memory_order_relaxed);
    if (flight_ != nullptr) {
      flight_->record(shard, FlightEvent{FlightEvent::Kind::Launch, shard, op,
                                         /*aux=*/point, at, at});
    }
  }

  // ---- SDC quorums (simulator-only callers; quiesced or single-threaded) --
  void on_quorum(QuorumRec rec) { quorums_.push_back(std::move(rec)); }
  const std::vector<QuorumRec>& quorums() const { return quorums_; }

  // ---- network tap -------------------------------------------------------
  // Atomic per-origin counters: safe from any thread (the sim network tap and
  // the threads backend's mailbox publish path both report the *origin*).
  void on_message(const TraceCtx& ctx, std::uint64_t bytes) {
    if (!ctx.valid() || ctx.origin >= shards_.size()) return;
    ShardLedger& led = *shards_[ctx.origin];
    led.messages.fetch_add(1, std::memory_order_relaxed);
    led.bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  // ---- live counters (safe concurrently with writers) --------------------
  std::uint64_t fine_spans_recorded() const {
    std::uint64_t n = 0;
    for (const auto& led : shards_) n += led->fine_spans.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t launches_recorded() const {
    return launches_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t future_waits_recorded() const {
    return future_waits_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t fences_recorded() const {
    return fences_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t messages_recorded() const {
    std::uint64_t n = 0;
    for (const auto& led : shards_) {
      n += led->messages.load(std::memory_order_relaxed);
    }
    return n;
  }

  // ---- merged read-side views (quiesced shards only) ---------------------
  // Spans sorted by their dense ids, so spans()[i].id == i.
  const std::vector<SpanRec>& spans() const {
    merge_spans();
    return merged_spans_;
  }
  const SpanRec* span(std::uint64_t id) const {
    merge_spans();
    return id < merged_spans_.size() ? &merged_spans_[id] : nullptr;
  }
  const std::vector<FutureRec>& future_waits() const {
    const std::uint64_t want = future_waits_count_.load(std::memory_order_relaxed);
    if (merged_future_waits_.size() != want) {
      merged_future_waits_.clear();
      merged_future_waits_.reserve(want);
      for (const auto& led : shards_) {
        merged_future_waits_.insert(merged_future_waits_.end(),
                                    led->future_waits.begin(),
                                    led->future_waits.end());
      }
    }
    return merged_future_waits_;
  }
  const std::vector<LaunchRec>& launches() const {
    const std::uint64_t want = launches_count_.load(std::memory_order_relaxed);
    if (merged_launches_.size() != want) {
      merged_launches_.clear();
      merged_launches_.reserve(want);
      for (const auto& led : shards_) {
        merged_launches_.insert(merged_launches_.end(), led->launches.begin(),
                                led->launches.end());
      }
    }
    return merged_launches_;
  }
  const std::vector<MessageStats>& messages() const {
    merged_messages_.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      merged_messages_[s].messages =
          shards_[s]->messages.load(std::memory_order_relaxed);
      merged_messages_[s].bytes =
          shards_[s]->bytes.load(std::memory_order_relaxed);
    }
    return merged_messages_;
  }

  // ---- run info ----------------------------------------------------------
  void set_run_info(SimTime makespan, std::uint64_t recovery_epochs) {
    makespan_ = makespan;
    recovery_epochs_ = recovery_epochs;
  }
  SimTime makespan() const { return makespan_; }
  std::uint64_t recovery_epochs() const { return recovery_epochs_; }

 private:
  // Single-writer per-shard ledger; only the owning shard thread appends.
  // Heap-allocated so the atomics never share a cache line across shards.
  struct ShardLedger {
    std::vector<SpanRec> spans;
    std::vector<FutureRec> future_waits;
    std::vector<LaunchRec> launches;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> fence_iters;
    std::uint64_t current = kNoSpan;  // current span (owner thread only)
    std::atomic<std::uint64_t> fine_spans{0};  // owner writes, live readers sum
    alignas(64) std::atomic<std::uint64_t> messages{0};  // own cache line
    std::atomic<std::uint64_t> bytes{0};
  };

  ShardLedger& ledger(std::uint32_t shard) {
    DCR_CHECK(shard < shards_.size());
    return *shards_[shard];
  }
  const ShardLedger& ledger(std::uint32_t shard) const {
    DCR_CHECK(shard < shards_.size());
    return *shards_[shard];
  }

  std::uint64_t keep(ShardLedger& led, prof::Span sp) {
    DCR_CHECK(sp.end >= sp.start) << "negative-duration span " << prof::name(sp.kind);
    sp.id = next_span_.fetch_add(1, std::memory_order_relaxed);
    led.spans.push_back(sp);
    return sp.id;
  }

  // Iteration label for a fence, merged across shards: the first non-kNoIter
  // report wins (every shard of a deterministic program reports the same
  // label, so the merge order cannot change the value).
  std::uint64_t lookup_fence_iter(std::uint64_t fence_op) const {
    std::uint64_t iter = kNoIter;
    bool seen = false;
    for (const auto& led : shards_) {
      for (const auto& [op, it] : led->fence_iters) {
        if (op != fence_op) continue;
        seen = true;
        if (it != kNoIter && iter == kNoIter) iter = it;
      }
    }
    return seen ? iter : kNoIter;
  }

  void merge_spans() const {
    const std::uint64_t want = next_span_.load(std::memory_order_relaxed);
    if (merged_spans_.size() == want) return;
    merged_spans_.clear();
    merged_spans_.reserve(want);
    for (const auto& led : shards_) {
      merged_spans_.insert(merged_spans_.end(), led->spans.begin(),
                           led->spans.end());
    }
    // Dense ids: position by id so spans()[i].id == i on both backends.
    std::vector<SpanRec> by_id(merged_spans_.size());
    for (SpanRec& sp : merged_spans_) {
      DCR_CHECK(sp.id < by_id.size()) << "span ids must be dense";
      by_id[sp.id] = sp;
    }
    merged_spans_ = std::move(by_id);
  }

  std::uint64_t trace_;
  bool all_spans_;
  std::vector<std::unique_ptr<ShardLedger>> shards_;
  std::atomic<std::uint64_t> next_span_{0};
  std::atomic<std::uint64_t> launches_count_{0};
  std::atomic<std::uint64_t> future_waits_count_{0};
  std::atomic<std::uint64_t> fences_count_{0};
  std::vector<FenceRec> fences_;   // harvest-time only (quiesced)
  std::vector<QuorumRec> quorums_;
  FlightRecorder* flight_ = nullptr;
  SimTime makespan_ = 0;
  std::uint64_t recovery_epochs_ = 0;

  // Lazy merged views; rebuilt when the atomic counts outgrow them.  Only
  // touched from quiesced contexts (see header comment), so plain mutables.
  mutable std::vector<SpanRec> merged_spans_;
  mutable std::vector<FutureRec> merged_future_waits_;
  mutable std::vector<LaunchRec> merged_launches_;
  mutable std::vector<MessageStats> merged_messages_;
};

}  // namespace dcr::scope
