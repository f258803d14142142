// dcr-prof: the always-on profiling and metrics layer.
//
// A Profiler owns one prof::Counters track per shard plus a global track
// (counters.hpp).  This header also defines the span record every timed
// interval is stored as — coarse/fine analysis stages, template replay, fence
// waits, future waits, and trace windows, each tagged (shard, lane, kind, op,
// iteration).  The spans themselves live in the per-shard scope ledger
// (scope/recorder.hpp), which exists whenever DcrConfig::profile or
// DcrConfig::scope is set; prof/trace_event.hpp exports them as Chrome
// trace_event JSON — one process per shard, one thread per lane — viewable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Everything here is host-side bookkeeping: no virtual time is ever charged,
// so profiling cannot perturb the simulated task graph or makespan (the
// profile-on/off equivalence sweep in tests/test_prof.cpp holds the runtime
// to that).  Lanes exist to keep spans on one track strictly nested: the
// Control lane follows the (sequential) control program, the Analysis lane
// follows the (serialized) analysis processor, the Fence lane's waits are
// ordered by the fine-tail chain, and Recovery gets its own lane because a
// fast-forward replay may straddle trace-window boundaries on Control.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>

#include "common/types.hpp"
#include "prof/counters.hpp"

namespace dcr::prof {

inline constexpr std::uint64_t kNoId = ~0ull;

enum class Lane : std::uint8_t { Control, Analysis, Fence, Recovery, kCount };

enum class SpanKind : std::uint8_t {
  CoarseAnalysis,       // fresh coarse stage
  CoarseReplay,         // coarse stage replayed from a template
  FineAnalysis,         // fresh fine stage
  FineReplay,           // fine stage replayed from a template
  FenceWait,            // fence arrival -> collective completion
  FutureWait,           // get_future block
  ExecutionFence,       // execution_fence barrier (issue -> drain)
  TraceWindow,          // begin_trace -> end_trace
  RecoveryFastForward,  // replacement shard replaying the committed prefix
  kCount
};

inline const char* name(Lane l) {
  switch (l) {
    case Lane::Control: return "control";
    case Lane::Analysis: return "analysis";
    case Lane::Fence: return "fence";
    case Lane::Recovery: return "recovery";
    case Lane::kCount: break;
  }
  return "?";
}

inline const char* name(SpanKind k) {
  switch (k) {
    case SpanKind::CoarseAnalysis: return "coarse_analysis";
    case SpanKind::CoarseReplay: return "coarse_replay";
    case SpanKind::FineAnalysis: return "fine_analysis";
    case SpanKind::FineReplay: return "fine_replay";
    case SpanKind::FenceWait: return "fence_wait";
    case SpanKind::FutureWait: return "future_wait";
    case SpanKind::ExecutionFence: return "execution_fence";
    case SpanKind::TraceWindow: return "trace_window";
    case SpanKind::RecoveryFastForward: return "recovery_fast_forward";
    case SpanKind::kCount: break;
  }
  return "?";
}

struct Span {
  SpanKind kind;
  Lane lane;
  std::uint32_t shard = 0;
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t op = kNoId;    // op id, where one applies
  std::uint64_t iter = kNoId;  // trace-window ordinal on this shard
  std::uint64_t id = kNoId;    // dense ledger id, assigned when recorded
};

inline bool is_fine_stage(SpanKind k) {
  return k == SpanKind::FineAnalysis || k == SpanKind::FineReplay;
}

class Profiler {
 public:
  explicit Profiler(std::size_t num_shards)
      : num_shards_(num_shards), shards_(std::make_unique<Counters[]>(num_shards)) {}

  std::size_t num_shards() const { return num_shards_; }

  Counters& shard(std::uint32_t s) {
    DCR_CHECK(s < num_shards_);
    return shards_[s];
  }
  const Counters& shard(std::uint32_t s) const {
    DCR_CHECK(s < num_shards_);
    return shards_[s];
  }
  Counters& global() { return global_; }
  const Counters& global() const { return global_; }

  // Sum of one per-shard counter over every shard.
  std::uint64_t total(Counter c) const {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < num_shards_; ++s) n += shards_[s].get(c);
    return n;
  }

  // Flat counter snapshot (global + merged + per-shard + histograms), stable
  // key order.  `zero_volatile` zeroes cost-model-derived values for golden
  // files (counters.hpp is_volatile).
  void write_snapshot_json(std::ostream& os, bool zero_volatile) const;

 private:
  std::size_t num_shards_;
  std::unique_ptr<Counters[]> shards_;
  Counters global_;
};

}  // namespace dcr::prof
