#include "scope/report.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <numeric>
#include <string>

#include "prof/profiler.hpp"

namespace dcr::scope {

namespace {
std::string span_desc(const Recorder& rec, std::uint64_t span_id) {
  const SpanRec* sp = rec.span(span_id);
  if (sp == nullptr) return "<control>";
  std::string out = sp->kind == prof::SpanKind::FineReplay ? "fine-replay" : "fine";
  out += " op " + std::to_string(sp->op) + " (span " + std::to_string(sp->id) + ")";
  return out;
}

void write_us_col(std::ostream& os, SimTime ns) {
  os << std::setw(12) << std::fixed << std::setprecision(1)
     << static_cast<double>(ns) / 1000.0;
}

// Restores the caller's format flags: the renders set fixed/precision, which
// would otherwise leak into whatever the caller prints next.
class StreamStateGuard {
 public:
  explicit StreamStateGuard(std::ostream& os)
      : os_(os), flags_(os.flags()), precision_(os.precision()) {}
  ~StreamStateGuard() {
    os_.flags(flags_);
    os_.precision(precision_);
  }

 private:
  std::ostream& os_;
  std::ios_base::fmtflags flags_;
  std::streamsize precision_;
};
}  // namespace

BlameReport build_blame(const Recorder& rec, const prof::Profiler& prof) {
  BlameReport r;
  r.shard_wait_ns.assign(rec.num_shards(), 0);
  for (const FenceRec& f : rec.fences()) {
    BlameEntry e;
    e.op = f.op;
    e.iter = f.iter;
    e.complete = f.complete;
    e.first_arrival = f.first_arrival;
    e.last_arrival = f.last_arrival;
    e.latency = f.latency();
    e.total_wait = f.total_wait();
    for (std::size_t s = 0; s < f.shards.size(); ++s) {
      e.arrivals += f.shards[s].arrived() ? 1 : 0;
      if (s < r.shard_wait_ns.size()) r.shard_wait_ns[s] += f.shards[s].wait();
    }
    if (f.releaser.valid()) {
      e.releaser_shard = f.releaser.origin;
      e.releaser_span = f.releaser.span;
      if (const SpanRec* sp = rec.span(f.releaser.span)) {
        e.releaser_op = sp->op;
        e.releaser_replayed = sp->kind == prof::SpanKind::FineReplay;
      }
    } else {
      e.releaser_shard = f.last_shard;  // raw timestamps (tracing off)
    }
    r.total_wait_ns += e.total_wait;
    r.complete_fences += e.complete ? 1 : 0;
    if (e.complete && e.releaser_shard != kNoShard && e.releaser_span != kNoSpan) {
      r.attributed++;
    }
    r.fences.push_back(e);
  }

  const prof::Counters& g = prof.global();
  r.fence_decisions = g.get(prof::GlobalCounter::FenceDecisions);
  r.fences_issued = g.get(prof::GlobalCounter::FencesIssued);
  r.fences_elided = g.get(prof::GlobalCounter::FencesElided);
  r.ledger_consistent = r.fences_issued + r.fences_elided == r.fence_decisions;
  r.prof_shard_wait_ns.resize(prof.num_shards());
  bool waits_ok = prof.num_shards() == rec.num_shards();
  for (std::uint32_t s = 0; s < prof.num_shards(); ++s) {
    r.prof_shard_wait_ns[s] = prof.shard(s).get(prof::Counter::FenceWaitNs);
    if (waits_ok && r.prof_shard_wait_ns[s] != r.shard_wait_ns[s]) waits_ok = false;
  }
  r.waits_reconcile = waits_ok;
  return r;
}

void render_blame(std::ostream& os, const BlameReport& r, const Recorder& rec,
                  std::size_t top) {
  const StreamStateGuard guard(os);
  os << "fence blame ledger: " << r.fences.size() << " fences ("
     << r.complete_fences << " complete, " << r.attributed
     << " attributed to a shard+span)\n";
  os << "ledger: decisions=" << r.fence_decisions << " issued=" << r.fences_issued
     << " elided=" << r.fences_elided
     << (r.ledger_consistent ? "  [issued+elided==decisions]"
                             : "  [LEDGER MISMATCH]")
     << "\n";
  os << "per-shard waits " << (r.waits_reconcile ? "reconcile exactly"
                                                 : "DO NOT reconcile")
     << " with dcr-prof fence_wait_ns\n\n";

  std::vector<std::size_t> order(r.fences.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return r.fences[a].latency > r.fences[b].latency;
  });
  os << "   fence-op    iter  latency(us) tot-wait(us)  released by\n";
  std::size_t shown = 0;
  for (const std::size_t i : order) {
    if (shown++ >= top) break;
    const BlameEntry& e = r.fences[i];
    os << std::setw(11) << e.op << " ";
    if (e.iter == kNoIter) {
      os << std::setw(7) << "-";
    } else {
      os << std::setw(7) << e.iter;
    }
    write_us_col(os, e.latency);
    write_us_col(os, e.total_wait);
    os << "  ";
    if (!e.complete) {
      os << "<incomplete: " << e.arrivals << " arrivals>";
    } else if (e.releaser_shard == kNoShard) {
      os << "<unknown>";
    } else {
      os << "shard " << e.releaser_shard << ", " << span_desc(rec, e.releaser_span);
    }
    os << "\n";
  }
  if (order.size() > top) {
    os << "  ... " << (order.size() - top) << " more (use --top)\n";
  }
}

namespace {
void write_shard_array(std::ostream& os, const std::vector<SimTime>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ",";
    os << v[i];
  }
  os << "]";
}
}  // namespace

void write_blame_json(std::ostream& os, const BlameReport& r) {
  os << "{\n  \"fence_decisions\": " << r.fence_decisions
     << ",\n  \"fences_issued\": " << r.fences_issued
     << ",\n  \"fences_elided\": " << r.fences_elided
     << ",\n  \"ledger_consistent\": " << (r.ledger_consistent ? "true" : "false")
     << ",\n  \"waits_reconcile\": " << (r.waits_reconcile ? "true" : "false")
     << ",\n  \"total_wait_ns\": " << r.total_wait_ns
     << ",\n  \"shard_wait_ns\": ";
  write_shard_array(os, r.shard_wait_ns);
  os << ",\n  \"fences\": [";
  for (std::size_t i = 0; i < r.fences.size(); ++i) {
    const BlameEntry& e = r.fences[i];
    os << (i ? ",\n    " : "\n    ") << "{\"op\": " << e.op;
    if (e.iter != kNoIter) os << ", \"iter\": " << e.iter;
    os << ", \"complete\": " << (e.complete ? "true" : "false")
       << ", \"latency_ns\": " << e.latency
       << ", \"total_wait_ns\": " << e.total_wait;
    if (e.releaser_shard != kNoShard) {
      os << ", \"releaser_shard\": " << e.releaser_shard;
    }
    if (e.releaser_span != kNoSpan) {
      os << ", \"releaser_span\": " << e.releaser_span
         << ", \"releaser_op\": " << e.releaser_op
         << ", \"releaser_replayed\": " << (e.releaser_replayed ? "true" : "false");
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

SkewReport build_skew(const Recorder& rec) {
  SkewReport r;
  r.num_shards = rec.num_shards();
  r.matrix.assign(r.num_shards, std::vector<SimTime>(r.num_shards + 1, 0));
  r.blamed_ns.assign(r.num_shards, 0);
  r.waited_ns.assign(r.num_shards, 0);
  std::map<std::uint64_t, SkewReport::Epoch> epochs;
  std::map<std::uint64_t, std::vector<SimTime>> epoch_blame;  // iter -> per-shard
  for (const FenceRec& f : rec.fences()) {
    const std::uint32_t blamed =
        f.releaser.valid() ? f.releaser.origin : f.last_shard;
    const std::size_t col =
        blamed < r.num_shards ? blamed : r.num_shards;  // "<none>" column
    SkewReport::Epoch& ep = epochs[f.iter];
    ep.iter = f.iter;
    ep.fences++;
    auto& eb = epoch_blame[f.iter];
    eb.resize(r.num_shards, 0);
    for (std::size_t w = 0; w < f.shards.size() && w < r.num_shards; ++w) {
      const SimTime wait = f.shards[w].wait();
      if (wait == 0) continue;
      r.matrix[w][col] += wait;
      r.waited_ns[w] += wait;
      ep.total_ns += wait;
      if (col < r.num_shards) {
        r.blamed_ns[col] += wait;
        eb[col] += wait;
      }
    }
  }
  for (auto& [iter, ep] : epochs) {
    const std::vector<SimTime>& eb = epoch_blame[iter];
    for (std::uint32_t s = 0; s < eb.size(); ++s) {
      if (eb[s] > ep.critical_ns) {
        ep.critical_shard = s;
        ep.critical_ns = eb[s];
      }
    }
    r.epochs.push_back(ep);
  }
  r.ranking.resize(r.num_shards);
  std::iota(r.ranking.begin(), r.ranking.end(), 0);
  std::stable_sort(r.ranking.begin(), r.ranking.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return r.blamed_ns[a] > r.blamed_ns[b];
                   });
  return r;
}

void render_skew(std::ostream& os, const SkewReport& r) {
  const StreamStateGuard guard(os);
  os << "shard skew report (" << r.num_shards << " shards)\n\n";
  os << "straggler ranking (total fence wait blamed on each shard):\n";
  std::size_t shown = 0;
  for (const std::uint32_t s : r.ranking) {
    if (r.blamed_ns[s] == 0 && shown > 0) break;
    if (shown++ >= 8) break;
    os << "  #" << shown << "  shard " << std::setw(3) << s << "  blamed";
    write_us_col(os, r.blamed_ns[s]);
    os << " us   waited";
    write_us_col(os, r.waited_ns[s]);
    os << " us\n";
  }
  os << "\ncritical shard per epoch:\n";
  for (const SkewReport::Epoch& ep : r.epochs) {
    os << "  epoch ";
    if (ep.iter == kNoIter) {
      os << "<untraced>";
    } else {
      os << std::setw(4) << ep.iter << "      ";
    }
    os << "  fences " << std::setw(4) << ep.fences << "  critical ";
    if (ep.critical_shard == kNoShard) {
      os << "<none>";
    } else {
      os << "shard " << ep.critical_shard << " (";
      os << std::fixed << std::setprecision(1)
         << (ep.total_ns > 0
                 ? 100.0 * static_cast<double>(ep.critical_ns) /
                       static_cast<double>(ep.total_ns)
                 : 0.0)
         << "% of ";
      write_us_col(os, ep.total_ns);
      os << " us)";
    }
    os << "\n";
  }
  // Wait-on-whom matrix: render only for small machines; above 16 shards the
  // ranking and epochs carry the signal.
  if (r.num_shards <= 16) {
    os << "\nwait-on-whom matrix (us; row = waiter, col = blamed):\n      ";
    for (std::size_t c = 0; c < r.num_shards; ++c) {
      os << std::setw(8) << c;
    }
    os << "\n";
    for (std::size_t w = 0; w < r.num_shards; ++w) {
      os << std::setw(5) << w << " ";
      for (std::size_t c = 0; c < r.num_shards; ++c) {
        os << std::setw(8) << std::fixed << std::setprecision(0)
           << static_cast<double>(r.matrix[w][c]) / 1000.0;
      }
      os << "\n";
    }
  }
}

void write_skew_json(std::ostream& os, const SkewReport& r) {
  os << "{\n  \"num_shards\": " << r.num_shards << ",\n  \"blamed_ns\": ";
  write_shard_array(os, r.blamed_ns);
  os << ",\n  \"waited_ns\": ";
  write_shard_array(os, r.waited_ns);
  os << ",\n  \"ranking\": [";
  for (std::size_t i = 0; i < r.ranking.size(); ++i) {
    if (i) os << ",";
    os << r.ranking[i];
  }
  os << "],\n  \"epochs\": [";
  for (std::size_t i = 0; i < r.epochs.size(); ++i) {
    const SkewReport::Epoch& ep = r.epochs[i];
    os << (i ? ",\n    " : "\n    ") << "{";
    if (ep.iter != kNoIter) os << "\"iter\": " << ep.iter << ", ";
    if (ep.critical_shard != kNoShard) {
      os << "\"critical_shard\": " << ep.critical_shard
         << ", \"critical_ns\": " << ep.critical_ns << ", ";
    }
    os << "\"total_ns\": " << ep.total_ns << ", \"fences\": " << ep.fences << "}";
  }
  os << "\n  ],\n  \"matrix\": [";
  for (std::size_t w = 0; w < r.matrix.size(); ++w) {
    os << (w ? ",\n    " : "\n    ");
    write_shard_array(os, r.matrix[w]);
  }
  os << "\n  ]\n}\n";
}

QuorumReport build_quorum(const Recorder& rec, std::size_t top) {
  QuorumReport r;
  r.num_shards = rec.num_shards();
  r.blamed.assign(r.num_shards, 0);
  for (const QuorumRec& q : rec.quorums()) {
    ++r.tickets;
    if (q.mismatches > 0) ++r.healed;
    r.mismatches += q.mismatches;
    if (q.primary_corrupted) ++r.primary_corruptions;
    r.rounds += q.rounds;
    const SimTime lat = q.latency();
    r.total_latency_ns += lat;
    r.max_latency_ns = std::max(r.max_latency_ns, lat);
    std::size_t bucket = 0;
    for (SimTime t = lat / 1000; t > 1; t >>= 1) ++bucket;
    if (bucket >= r.latency_buckets.size()) r.latency_buckets.resize(bucket + 1, 0);
    r.latency_buckets[bucket]++;
    for (const std::uint32_t s : q.corrupted_shards) {
      if (s < r.num_shards) r.blamed[s]++;
    }
  }
  r.ranking.resize(r.num_shards);
  std::iota(r.ranking.begin(), r.ranking.end(), 0);
  std::stable_sort(r.ranking.begin(), r.ranking.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return r.blamed[a] > r.blamed[b];
                   });

  std::vector<const QuorumRec*> order;
  order.reserve(rec.quorums().size());
  for (const QuorumRec& q : rec.quorums()) order.push_back(&q);
  std::stable_sort(order.begin(), order.end(),
                   [](const QuorumRec* a, const QuorumRec* b) {
                     return a->latency() > b->latency();
                   });
  for (const QuorumRec* q : order) {
    if (r.slowest.size() >= top) break;
    r.slowest.push_back(QuorumReport::Entry{q->op, q->point, q->primary, q->rounds,
                                            q->ballots, q->mismatches,
                                            q->primary_corrupted, q->latency()});
  }
  return r;
}

void render_quorum(std::ostream& os, const QuorumReport& r) {
  const StreamStateGuard guard(os);
  os << "SDC quorum report (" << r.num_shards << " shards)\n";
  os << "quorums: " << r.tickets << " resolved, " << r.healed
     << " healed (>=1 mismatching ballot), " << r.mismatches
     << " ballots out-voted, " << r.primary_corruptions
     << " with a corrupted primary, " << r.rounds << " re-execution rounds\n";
  if (r.tickets > 0) {
    os << "resolve latency: mean";
    write_us_col(os, r.total_latency_ns / static_cast<SimTime>(r.tickets));
    os << " us, max";
    write_us_col(os, r.max_latency_ns);
    os << " us\n\nlatency histogram (us, power-of-two buckets):\n";
    for (std::size_t b = 0; b < r.latency_buckets.size(); ++b) {
      if (r.latency_buckets[b] == 0) continue;
      os << "  [" << std::setw(6) << (b == 0 ? 0 : (1ull << b)) << ", "
         << std::setw(6) << (1ull << (b + 1)) << ")  " << std::setw(8)
         << r.latency_buckets[b] << "\n";
    }
  }
  os << "\ncorruption sources (losing ballots per shard):\n";
  std::size_t shown = 0;
  for (const std::uint32_t s : r.ranking) {
    if (r.blamed[s] == 0 && shown > 0) break;
    if (shown++ >= 8) break;
    os << "  #" << shown << "  shard " << std::setw(3) << s << "  blamed "
       << std::setw(8) << r.blamed[s] << " corrupted ballots\n";
  }
  if (!r.slowest.empty()) {
    os << "\nslowest quorums:\n";
    os << "         op    point  primary  rounds  ballots  mismatch  latency(us)\n";
    for (const QuorumReport::Entry& e : r.slowest) {
      os << std::setw(11) << e.op << " " << std::setw(8) << e.point << " "
         << std::setw(8) << e.primary << " " << std::setw(7) << e.rounds << " "
         << std::setw(8) << e.ballots << " " << std::setw(9) << e.mismatches;
      write_us_col(os, e.latency);
      if (e.primary_corrupted) os << "  [primary corrupted]";
      os << "\n";
    }
  }
}

void write_quorum_json(std::ostream& os, const QuorumReport& r) {
  os << "{\n  \"num_shards\": " << r.num_shards
     << ",\n  \"tickets\": " << r.tickets << ",\n  \"healed\": " << r.healed
     << ",\n  \"mismatches\": " << r.mismatches
     << ",\n  \"primary_corruptions\": " << r.primary_corruptions
     << ",\n  \"rounds\": " << r.rounds
     << ",\n  \"total_latency_ns\": " << r.total_latency_ns
     << ",\n  \"max_latency_ns\": " << r.max_latency_ns
     << ",\n  \"latency_buckets_us_pow2\": [";
  for (std::size_t i = 0; i < r.latency_buckets.size(); ++i) {
    if (i) os << ",";
    os << r.latency_buckets[i];
  }
  os << "],\n  \"blamed\": [";
  for (std::size_t i = 0; i < r.blamed.size(); ++i) {
    if (i) os << ",";
    os << r.blamed[i];
  }
  os << "],\n  \"ranking\": [";
  for (std::size_t i = 0; i < r.ranking.size(); ++i) {
    if (i) os << ",";
    os << r.ranking[i];
  }
  os << "],\n  \"slowest\": [";
  for (std::size_t i = 0; i < r.slowest.size(); ++i) {
    const QuorumReport::Entry& e = r.slowest[i];
    os << (i ? ",\n    " : "\n    ") << "{\"op\": " << e.op
       << ", \"point\": " << e.point << ", \"primary\": " << e.primary
       << ", \"rounds\": " << e.rounds << ", \"ballots\": " << e.ballots
       << ", \"mismatches\": " << e.mismatches << ", \"primary_corrupted\": "
       << (e.primary_corrupted ? "true" : "false")
       << ", \"latency_ns\": " << e.latency << "}";
  }
  os << "\n  ]\n}\n";
}

// ------------------------------------------------- automatic trace identification

TraceIdReport build_trace_id(const prof::Profiler& prof) {
  TraceIdReport r;
  r.num_shards = prof.num_shards();
  r.shards.resize(r.num_shards);
  r.consistent = true;
  for (std::size_t s = 0; s < r.num_shards; ++s) {
    const prof::Counters& pc = prof.shard(static_cast<std::uint32_t>(s));
    TraceIdReport::Shard& sh = r.shards[s];
    sh.detections = pc.get(prof::Counter::AutoTraceDetections);
    sh.promotions = pc.get(prof::Counter::AutoTracePromotions);
    sh.demotions = pc.get(prof::Counter::AutoTraceDemotions);
    sh.windows = pc.get(prof::Counter::AutoTraceWindows);
    sh.aborts = pc.get(prof::Counter::AutoTraceAborts);
    sh.collisions = pc.get(prof::Counter::AutoTraceCollisions);
    sh.windows_closed = pc.get(prof::Counter::WindowsClosed);
    sh.window_hits = pc.get(prof::Counter::TemplateWindowHits);
    sh.window_misses = pc.get(prof::Counter::TemplateWindowMisses);
    r.total.detections += sh.detections;
    r.total.promotions += sh.promotions;
    r.total.demotions += sh.demotions;
    r.total.windows += sh.windows;
    r.total.aborts += sh.aborts;
    r.total.collisions += sh.collisions;
    r.total.windows_closed += sh.windows_closed;
    r.total.window_hits += sh.window_hits;
    r.total.window_misses += sh.window_misses;
    if (sh.window_hits + sh.window_misses != sh.windows_closed) r.consistent = false;
    if (sh.detections < sh.promotions || sh.promotions < sh.demotions) {
      r.consistent = false;
    }
  }
  if (r.total.windows_closed > 0) {
    r.hit_rate = static_cast<double>(r.total.window_hits) /
                 static_cast<double>(r.total.windows_closed);
  }
  return r;
}

void render_trace_id(std::ostream& os, const TraceIdReport& r) {
  const StreamStateGuard guard(os);
  os << "automatic trace identification (" << r.num_shards << " shards)\n";
  os << "detections: " << r.total.detections << ", promotions: "
     << r.total.promotions << ", demotions: " << r.total.demotions
     << ", fingerprint collisions: " << r.total.collisions << "\n";
  os << "auto windows: " << r.total.windows << " opened, " << r.total.aborts
     << " aborted mid-period\n";
  os << "window ledger: " << r.total.windows_closed << " closed, "
     << r.total.window_hits << " replay hits, " << r.total.window_misses
     << " misses -> hit rate " << std::fixed << std::setprecision(1)
     << (100.0 * r.hit_rate) << "%\n";
  os << "ledger invariants: " << (r.consistent ? "ok" : "VIOLATED") << "\n";
  // Per-shard rows only when shards disagree (they rarely should: detection
  // is control-deterministic, so skew indicates recovery or SDC interrupts).
  bool uniform = true;
  for (const TraceIdReport::Shard& sh : r.shards) {
    uniform = uniform && sh.promotions == r.shards[0].promotions &&
              sh.windows == r.shards[0].windows &&
              sh.window_hits == r.shards[0].window_hits;
  }
  if (!uniform) {
    os << "per-shard (non-uniform):\n";
    os << "  shard  detect  promote  demote  windows  aborts  hits  misses\n";
    for (std::size_t s = 0; s < r.shards.size(); ++s) {
      const TraceIdReport::Shard& sh = r.shards[s];
      os << "  " << std::setw(5) << s << " " << std::setw(7) << sh.detections
         << " " << std::setw(8) << sh.promotions << " " << std::setw(7)
         << sh.demotions << " " << std::setw(8) << sh.windows << " "
         << std::setw(7) << sh.aborts << " " << std::setw(5) << sh.window_hits
         << " " << std::setw(7) << sh.window_misses << "\n";
    }
  }
}

void write_trace_id_json(std::ostream& os, const TraceIdReport& r) {
  os << "{\n  \"num_shards\": " << r.num_shards
     << ",\n  \"detections\": " << r.total.detections
     << ",\n  \"promotions\": " << r.total.promotions
     << ",\n  \"demotions\": " << r.total.demotions
     << ",\n  \"windows\": " << r.total.windows
     << ",\n  \"aborts\": " << r.total.aborts
     << ",\n  \"collisions\": " << r.total.collisions
     << ",\n  \"windows_closed\": " << r.total.windows_closed
     << ",\n  \"window_hits\": " << r.total.window_hits
     << ",\n  \"window_misses\": " << r.total.window_misses
     << ",\n  \"hit_rate\": " << r.hit_rate
     << ",\n  \"consistent\": " << (r.consistent ? "true" : "false")
     << ",\n  \"shards\": [";
  for (std::size_t s = 0; s < r.shards.size(); ++s) {
    const TraceIdReport::Shard& sh = r.shards[s];
    os << (s ? ",\n    " : "\n    ") << "{\"detections\": " << sh.detections
       << ", \"promotions\": " << sh.promotions << ", \"demotions\": "
       << sh.demotions << ", \"windows\": " << sh.windows << ", \"aborts\": "
       << sh.aborts << ", \"collisions\": " << sh.collisions
       << ", \"window_hits\": " << sh.window_hits << ", \"window_misses\": "
       << sh.window_misses << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace dcr::scope
