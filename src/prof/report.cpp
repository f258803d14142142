#include "prof/report.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <ostream>
#include <tuple>
#include <utility>

namespace dcr::prof {

namespace {

// A total order on a span's recorded fields, so ties between equal-weight
// chains do not depend on recording order (which varies run to run on the
// threads backend).
auto span_key(const Span& s) {
  return std::tie(s.start, s.end, s.shard, s.lane, s.kind, s.op, s.iter);
}

// Maximum-weight chain over spans under the interval order (a precedes b iff
// a.end <= b.start).  Sweep spans by start time, keeping the best chain among
// spans that already ended; O(n log n) with predecessor links for
// reconstruction.  Returns indices into `spans` (chain order).
std::pair<SimTime, std::vector<std::size_t>> max_chain(const std::vector<Span>& spans,
                                                       const std::vector<std::size_t>& idx) {
  struct NodeState {
    SimTime best = 0;                     // best chain weight ending with this span
    std::size_t pred = ~std::size_t(0);  // previous span in that chain
  };
  std::vector<NodeState> state(idx.size());

  // Order by start for the sweep; by end for the "already finished" frontier.
  std::vector<std::size_t> by_start(idx.size()), by_end(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) by_start[i] = by_end[i] = i;
  auto start_of = [&](std::size_t i) { return spans[idx[i]].start; };
  auto end_of = [&](std::size_t i) { return spans[idx[i]].end; };
  auto key = [&](std::size_t i) { return span_key(spans[idx[i]]); };
  std::stable_sort(by_start.begin(), by_start.end(),
                   [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  std::stable_sort(by_end.begin(), by_end.end(), [&](std::size_t a, std::size_t b) {
    return std::make_pair(end_of(a), key(a)) < std::make_pair(end_of(b), key(b));
  });

  SimTime frontier_best = 0;
  std::size_t frontier_pred = ~std::size_t(0);
  std::size_t next_end = 0;
  for (const std::size_t i : by_start) {
    // Fold in every span that ends at or before this span's start.
    while (next_end < by_end.size() && end_of(by_end[next_end]) <= start_of(i)) {
      const std::size_t j = by_end[next_end++];
      if (state[j].best > frontier_best) {
        frontier_best = state[j].best;
        frontier_pred = j;
      }
    }
    const Span& s = spans[idx[i]];
    state[i].best = frontier_best + (s.end - s.start);
    state[i].pred = frontier_pred;
  }

  SimTime best = 0;
  std::size_t best_i = ~std::size_t(0);
  for (const std::size_t i : by_start) {
    if (state[i].best > best) {
      best = state[i].best;
      best_i = i;
    }
  }
  std::vector<std::size_t> chain;
  for (std::size_t i = best_i; i != ~std::size_t(0); i = state[i].pred) {
    chain.push_back(idx[i]);
  }
  std::reverse(chain.begin(), chain.end());
  return {best, std::move(chain)};
}

}  // namespace

Report build_report(const std::vector<Span>& spans) {
  Report r;

  // Inclusive time by kind.
  std::map<SpanKind, Report::KindTotal> kinds;
  for (const Span& s : spans) {
    Report::KindTotal& kt = kinds[s.kind];
    kt.kind = s.kind;
    kt.count++;
    kt.inclusive_ns += s.end - s.start;
  }
  for (auto& [k, kt] : kinds) r.by_kind.push_back(kt);
  std::stable_sort(r.by_kind.begin(), r.by_kind.end(),
                   [](const Report::KindTotal& a, const Report::KindTotal& b) {
                     return a.inclusive_ns > b.inclusive_ns;
                   });

  // Overall critical path over every span.
  {
    std::vector<std::size_t> all(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) all[i] = i;
    auto [weight, chain] = max_chain(spans, all);
    r.critical_path_ns = weight;
    r.critical_chain.reserve(chain.size());
    for (const std::size_t i : chain) r.critical_chain.push_back(spans[i]);
  }

  // Longest analysis chain per (shard, iteration): Analysis-lane spans only —
  // a TraceWindow span would trivially dominate its own iteration.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<std::size_t>> iters;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.iter == kNoId || s.lane != Lane::Analysis) continue;
    iters[{s.shard, s.iter}].push_back(i);
  }
  for (const auto& [key, idx] : iters) {
    auto [weight, chain] = max_chain(spans, idx);
    r.per_iteration.push_back({key.first, key.second, chain.size(), weight});
  }
  return r;
}

namespace {

void render_counters(std::ostream& os, const Profiler& p) {
  os << "counters (global):\n";
  for (std::size_t i = 0; i < static_cast<std::size_t>(GlobalCounter::kCount); ++i) {
    const auto c = static_cast<GlobalCounter>(i);
    os << "  " << name(c) << " = " << p.global().get(c) << "\n";
  }
  os << "counters (summed over " << p.num_shards() << " shards):\n";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount); ++i) {
    const auto c = static_cast<Counter>(i);
    os << "  " << name(c) << " = " << p.total(c) << "\n";
  }
  os << "histograms (merged):\n";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Hist::kCount); ++i) {
    const auto h = static_cast<Hist>(i);
    std::uint64_t count = 0, sum = 0, max = 0;
    std::uint64_t min = ~0ull;
    for (std::uint32_t s = 0; s < p.num_shards(); ++s) {
      const Histogram& hg = p.shard(s).hist(h);
      if (hg.count() == 0) continue;
      count += hg.count();
      sum += hg.sum();
      min = std::min(min, hg.min());
      max = std::max(max, hg.max());
    }
    if (count == 0) min = 0;
    os << "  " << name(h) << ": count=" << count << " sum=" << sum << " min=" << min
       << " max=" << max << "\n";
  }
}

}  // namespace

void render_report(std::ostream& os, const Profiler& p, const Report& r,
                   std::size_t top_k) {
  render_counters(os, p);
  os << "span kinds by inclusive time:\n";
  for (std::size_t i = 0; i < r.by_kind.size() && i < top_k; ++i) {
    const Report::KindTotal& kt = r.by_kind[i];
    os << "  " << name(kt.kind) << ": " << kt.inclusive_ns << " ns over " << kt.count
       << " spans\n";
  }
  os << "critical path: " << r.critical_path_ns << " ns over "
     << r.critical_chain.size() << " spans\n";
  for (std::size_t i = 0; i < r.critical_chain.size() && i < top_k; ++i) {
    const Span& s = r.critical_chain[i];
    os << "  [" << s.start << ", " << s.end << "] shard " << s.shard << " "
       << name(s.kind);
    if (s.op != kNoId) os << " op " << s.op;
    os << "\n";
  }
  if (r.critical_chain.size() > top_k) {
    os << "  ... " << (r.critical_chain.size() - top_k) << " more\n";
  }
  if (!r.per_iteration.empty()) {
    // Slowest iterations first for the listing (ties keep (shard, iter) order).
    std::vector<Report::IterationPath> by_cost = r.per_iteration;
    std::stable_sort(by_cost.begin(), by_cost.end(),
                     [](const Report::IterationPath& a, const Report::IterationPath& b) {
                       return a.chain_ns > b.chain_ns;
                     });
    os << "longest analysis chain per iteration (slowest first):\n";
    for (std::size_t i = 0; i < by_cost.size() && i < top_k; ++i) {
      const Report::IterationPath& ip = by_cost[i];
      os << "  shard " << ip.shard << " iter " << ip.iter << ": " << ip.chain_ns
         << " ns over " << ip.spans << " spans\n";
    }
  }
}

}  // namespace dcr::prof
