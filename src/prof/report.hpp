// Critical-path analysis over the recorded span timeline.
//
// The span set of one run forms an interval order: span b can depend on span
// a only if a.end <= b.start.  The critical path is the maximum-weight chain
// under that order — the longest sequence of non-overlapping profiled work,
// a lower bound on the makespan attributable to the instrumented activities.
// The report also breaks inclusive time down by span kind (top-k) and
// computes the longest analysis chain per (shard, trace-window iteration),
// the per-iteration view the paper's figures reason about.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "prof/profiler.hpp"

namespace dcr::prof {

struct Report {
  struct KindTotal {
    SpanKind kind = SpanKind::kCount;
    std::uint64_t count = 0;
    SimTime inclusive_ns = 0;
  };
  // Every kind that appeared, sorted by inclusive time descending.
  std::vector<KindTotal> by_kind;

  // Maximum-weight chain over all spans (end <= start ordering).
  SimTime critical_path_ns = 0;
  std::vector<Span> critical_chain;

  // Longest Analysis-lane chain within one shard's trace-window iteration.
  struct IterationPath {
    std::uint32_t shard = 0;
    std::uint64_t iter = 0;
    std::uint64_t spans = 0;
    SimTime chain_ns = 0;
  };
  std::vector<IterationPath> per_iteration;  // sorted by (shard, iter)
};

// `spans` is the run's recorded timeline (scope::Recorder::spans()).
Report build_report(const std::vector<Span>& spans);

// Human-readable rendering: counter catalog, top-k kinds, critical path, and
// the slowest iterations.  `top_k` bounds both kind and iteration listings.
void render_report(std::ostream& os, const Profiler& p, const Report& r,
                   std::size_t top_k = 8);

}  // namespace dcr::prof
