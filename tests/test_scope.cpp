// dcr-scope: cross-shard causal tracing, blame/skew reports, live metrics
// exposition, and the regression watchdog (src/scope).
//
// Units: TraceCtx merge semantics, FenceCollective per-rank blame timestamps
// on a raw simulator, blame-ledger reconciliation against dcr-prof's
// always-on FenceWaitNs counters (exact, instant for instant), scope-on/off
// execution equivalence, Prometheus text-format exposition (incl. volatile
// zeroing and cumulative histogram buckets), collect_metrics schema, the
// MetricsExposer tick loop, the localhost HTTP endpoint, the BENCH baseline
// watchdog, and the tolerant prof snapshot diff.  Plus a 100-seed
// scope-on/off equivalence sweep under fault injection + recovery (labelled
// fuzz; everything else runs in check-fast).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/stencil.hpp"
#include "common/philox.hpp"
#include "dcr/runtime.hpp"
#include "dcr_fuzz_programs.hpp"
#include "exec/thread_runtime.hpp"
#include "prof/diff.hpp"
#include "prof/json.hpp"
#include "prof/trace_event.hpp"
#include "prof/validate.hpp"
#include "scope/baseline.hpp"
#include "scope/context.hpp"
#include "scope/flight.hpp"
#include "scope/http.hpp"
#include "scope/metrics.hpp"
#include "scope/report.hpp"
#include "sim/collective.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "spy/verify.hpp"

namespace dcr::core {
namespace {

using apps::StencilConfig;
using apps::make_stencil_app;
using apps::register_stencil_functions;

sim::MachineConfig cluster(std::size_t nodes) {
  return {.num_nodes = nodes,
          .compute_procs_per_node = 1,
          .network = {.alpha = us(1), .ns_per_byte = 0.1, .local_latency = ns(50)}};
}

// Owns the machine/registry/runtime for one run so tests can interrogate the
// recorder and profiler after execute() returns.
struct Harness {
  sim::Machine machine;
  FunctionRegistry functions;
  DcrRuntime runtime;

  Harness(std::size_t nodes, DcrConfig cfg)
      : machine(cluster(nodes)), runtime(machine, functions, cfg) {}

  const prof::Profiler& prof() const { return runtime.profiler(); }
  const dcr::scope::Recorder* rec() const { return runtime.scope(); }
};

DcrConfig scope_config(bool scope, bool trace = false, bool graph = false) {
  DcrConfig cfg;
  cfg.scope = scope;
  cfg.record_trace = trace;
  cfg.record_task_graph = graph;
  return cfg;
}

DcrStats run_stencil(Harness& h, const StencilConfig& scfg) {
  const auto fns = register_stencil_functions(h.functions, 1.0);
  return h.runtime.execute(make_stencil_app(scfg, fns));
}

std::string snapshot_of(const Harness& h) {
  std::ostringstream os;
  h.prof().write_snapshot_json(os, /*zero_volatile=*/false);
  return os.str();
}

prof::JsonValue parsed(const std::string& text) {
  const prof::JsonParseResult r = prof::parse_json(text);
  EXPECT_TRUE(r.ok()) << r.error << " in: " << text;
  return r.ok() ? *r.value : prof::JsonValue{};
}

// ----------------------------------------------------------- context merge

TEST(ScopeCtx, LatestMergeSemantics) {
  using dcr::scope::TraceCtx;
  using dcr::scope::latest;
  const TraceCtx none{};  // trace 0 = invalid: the identity element
  const TraceCtx early{1, /*span=*/10, /*origin=*/0, /*at=*/100};
  const TraceCtx late{1, /*span=*/11, /*origin=*/1, /*at=*/200};
  const TraceCtx tied{1, /*span=*/12, /*origin=*/2, /*at=*/200};

  EXPECT_FALSE(none.valid());
  EXPECT_EQ(latest(none, early), early);
  EXPECT_EQ(latest(early, none), early);
  // Larger `at` wins regardless of argument order.
  EXPECT_EQ(latest(early, late), late);
  EXPECT_EQ(latest(late, early), late);
  // Ties on `at` break toward the larger origin, again order-independent.
  EXPECT_EQ(latest(late, tied), tied);
  EXPECT_EQ(latest(tied, late), tied);

  // Associative + commutative: every fold order over a permuted set yields
  // the same result — the property that makes tree-merge order irrelevant.
  std::vector<TraceCtx> ctxs = {early, tied, none, late};
  std::sort(ctxs.begin(), ctxs.end(), [](const TraceCtx& a, const TraceCtx& b) {
    return a.span < b.span;
  });
  do {
    TraceCtx acc{};
    for (const TraceCtx& c : ctxs) acc = latest(acc, c);
    EXPECT_EQ(acc, tied);
  } while (std::next_permutation(
      ctxs.begin(), ctxs.end(), [](const TraceCtx& a, const TraceCtx& b) {
        return a.span < b.span;
      }));
}

// ------------------------------------------------- raw collective blame data

// Staggered arrivals into a bare FenceCollective: the per-rank timestamps,
// raw last-arriver, and merged releaser context must all name the straggler.
TEST(ScopeCollective, PerRankTimestampsNameTheStraggler) {
  sim::Simulator sim;
  sim::Network net(sim, /*num_nodes=*/4);
  std::vector<NodeId> placement;
  for (std::uint32_t n = 0; n < 4; ++n) placement.push_back(NodeId(n));
  sim::FenceCollective coll(sim, net, placement);

  for (std::uint32_t r = 0; r < 4; ++r) {
    const SimTime t = (r + 1) * 1000;
    sim.schedule_at(t, [&coll, r, t] {
      coll.arrive(r, dcr::scope::TraceCtx{/*trace=*/7, /*span=*/100 + r,
                                          /*origin=*/r, /*at=*/t});
    });
  }
  sim.run();

  ASSERT_TRUE(coll.complete());
  EXPECT_EQ(coll.first_arrival(), 1000u);
  EXPECT_EQ(coll.last_arrival(), 4000u);
  EXPECT_EQ(coll.last_arrival_rank(), 3u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(coll.arrival_time(r), (r + 1) * 1000u) << "rank " << r;
    // The combined result cannot reach any rank before the last contribution.
    EXPECT_GE(coll.completion_time(r), coll.last_arrival()) << "rank " << r;
  }
  EXPECT_GE(coll.completed_at(), coll.last_arrival());
  EXPECT_EQ(coll.latency(), coll.completed_at() - coll.first_arrival());

  // The merged context agrees with the raw timestamps: last arriver == the
  // releaser the tree merge reports, span and all.
  const dcr::scope::TraceCtx rel = coll.releaser();
  EXPECT_TRUE(rel.valid());
  EXPECT_EQ(rel.origin, 3u);
  EXPECT_EQ(rel.span, 103u);
  EXPECT_EQ(rel.at, 4000u);
}

TEST(ScopeCollective, SimultaneousArrivalsBreakTiesByRank) {
  sim::Simulator sim;
  sim::Network net(sim, /*num_nodes=*/3);
  std::vector<NodeId> placement = {NodeId(0), NodeId(1), NodeId(2)};
  sim::FenceCollective coll(sim, net, placement);

  sim.schedule_at(500, [&coll] {
    coll.arrive(0, dcr::scope::TraceCtx{7, 50, 0, 500});
  });
  // Ranks 1 and 2 arrive at the same instant; scheduling order favours 1 but
  // both the raw tracker and the ctx merge must pick the larger rank so the
  // answer is independent of merge/scheduling order.
  sim.schedule_at(2000, [&coll] {
    coll.arrive(1, dcr::scope::TraceCtx{7, 51, 1, 2000});
  });
  sim.schedule_at(2000, [&coll] {
    coll.arrive(2, dcr::scope::TraceCtx{7, 52, 2, 2000});
  });
  sim.run();

  ASSERT_TRUE(coll.complete());
  EXPECT_EQ(coll.last_arrival_rank(), 2u);
  EXPECT_EQ(coll.releaser().origin, 2u);
  EXPECT_EQ(coll.releaser().span, 52u);
}

// --------------------------------------------------------- blame vs dcr-prof

// Acceptance criterion: on a traced stencil, every complete fence names its
// last-releasing shard and span, and the recorder's per-rank waits reconcile
// *exactly* with dcr-prof's always-on FenceWaitNs counters.
TEST(ScopeBlame, StencilReconcilesWithProf) {
  Harness h(8, scope_config(/*scope=*/true));
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;
  const DcrStats stats = run_stencil(h, scfg);
  ASSERT_TRUE(stats.completed);
  ASSERT_NE(h.rec(), nullptr);
  const dcr::scope::Recorder& rec = *h.rec();

  const dcr::scope::BlameReport r = dcr::scope::build_blame(rec, h.prof());
  EXPECT_TRUE(r.ledger_consistent);
  EXPECT_TRUE(r.waits_reconcile);
  EXPECT_TRUE(r.reconciled());
  EXPECT_EQ(r.fences_issued + r.fences_elided, r.fence_decisions);
  EXPECT_EQ(r.fence_decisions, stats.coarse_deps);

  // Every recorded fence completed (the run quiesced) and every complete
  // fence is attributed to a specific shard + span.
  ASSERT_GT(r.fences.size(), 0u);
  EXPECT_EQ(r.complete_fences, r.fences.size());
  EXPECT_EQ(r.attributed, r.complete_fences);
  for (const dcr::scope::BlameEntry& e : r.fences) {
    ASSERT_TRUE(e.complete);
    EXPECT_NE(e.releaser_shard, dcr::scope::kNoShard);
    EXPECT_NE(e.releaser_span, dcr::scope::kNoSpan);
    // The blamed span really lives on the blamed shard.
    const dcr::scope::SpanRec* sp = rec.span(e.releaser_span);
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp->shard, e.releaser_shard);
    EXPECT_GE(e.last_arrival, e.first_arrival);
  }

  // The exact cross-ledger identity, spelled out: per-shard wait sums equal
  // the FenceWaitNs counters (both derived from the same simulator instants).
  ASSERT_EQ(r.shard_wait_ns.size(), r.prof_shard_wait_ns.size());
  SimTime total = 0;
  for (std::size_t s = 0; s < r.shard_wait_ns.size(); ++s) {
    EXPECT_EQ(r.shard_wait_ns[s], r.prof_shard_wait_ns[s]) << "shard " << s;
    EXPECT_EQ(r.prof_shard_wait_ns[s],
              h.prof().shard(static_cast<std::uint32_t>(s))
                  .get(prof::Counter::FenceWaitNs))
        << "shard " << s;
    total += r.shard_wait_ns[s];
  }
  EXPECT_EQ(r.total_wait_ns, total);

  // Span/launch ledger sanity: spans are well-formed and every launch's
  // causal parent (if any) is a span on the launching shard.
  ASSERT_GT(rec.spans().size(), 0u);
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const dcr::scope::SpanRec& sp = rec.spans()[i];
    EXPECT_EQ(sp.id, i);
    EXPECT_LT(sp.shard, rec.num_shards());
    EXPECT_GE(sp.end, sp.start);
  }
  ASSERT_GT(rec.launches().size(), 0u);
  for (const dcr::scope::LaunchRec& l : rec.launches()) {
    if (l.span == dcr::scope::kNoSpan) continue;
    const dcr::scope::SpanRec* sp = rec.span(l.span);
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp->shard, l.shard);
  }
  // The network tap saw traced traffic.
  std::uint64_t msgs = 0;
  for (const dcr::scope::MessageStats& m : rec.messages()) msgs += m.messages;
  EXPECT_GT(msgs, 0u);
  EXPECT_EQ(rec.makespan(), stats.makespan);
}

// Skew rollup: totals are conserved from the blame matrix, the ranking is
// sorted, and every traced epoch names a critical shard.
TEST(ScopeSkew, RollupConservesBlame) {
  Harness h(8, scope_config(/*scope=*/true));
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;
  ASSERT_TRUE(run_stencil(h, scfg).completed);
  ASSERT_NE(h.rec(), nullptr);

  const dcr::scope::BlameReport blame =
      dcr::scope::build_blame(*h.rec(), h.prof());
  const dcr::scope::SkewReport skew = dcr::scope::build_skew(*h.rec());
  ASSERT_EQ(skew.num_shards, h.rec()->num_shards());
  ASSERT_EQ(skew.matrix.size(), skew.num_shards);

  SimTime matrix_total = 0;
  for (std::size_t w = 0; w < skew.num_shards; ++w) {
    ASSERT_EQ(skew.matrix[w].size(), skew.num_shards + 1);  // + "<none>" column
    SimTime row = 0;
    for (const SimTime v : skew.matrix[w]) row += v;
    EXPECT_EQ(row, skew.waited_ns[w]) << "waiter " << w;
    EXPECT_EQ(row, blame.shard_wait_ns[w]) << "waiter " << w;
    matrix_total += row;
  }
  EXPECT_EQ(matrix_total, blame.total_wait_ns);

  ASSERT_EQ(skew.ranking.size(), skew.num_shards);
  for (std::size_t i = 1; i < skew.ranking.size(); ++i) {
    EXPECT_GE(skew.blamed_ns[skew.ranking[i - 1]], skew.blamed_ns[skew.ranking[i]]);
  }
  ASSERT_GT(skew.epochs.size(), 0u);
  SimTime epoch_total = 0;
  std::uint64_t epoch_fences = 0;
  for (const auto& e : skew.epochs) {
    if (e.total_ns > 0) {
      EXPECT_NE(e.critical_shard, dcr::scope::kNoShard);
    }
    EXPECT_GE(e.total_ns, e.critical_ns);
    epoch_total += e.total_ns;
    epoch_fences += e.fences;
  }
  EXPECT_EQ(epoch_total, blame.total_wait_ns);
  EXPECT_EQ(epoch_fences, blame.fences.size());
}

// --------------------------------------------------- scope-on/off equivalence

// Tracing is host-side bookkeeping: a scope-on run must be indistinguishable
// from scope-off in virtual time — identical makespan, identical counters.
TEST(ScopeEquivalence, TracingNeverPerturbsExecution) {
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;

  Harness off(8, scope_config(/*scope=*/false));
  const DcrStats soff = run_stencil(off, scfg);
  Harness on(8, scope_config(/*scope=*/true));
  const DcrStats son = run_stencil(on, scfg);

  ASSERT_TRUE(soff.completed);
  ASSERT_TRUE(son.completed);
  EXPECT_EQ(soff.makespan, son.makespan);
  EXPECT_EQ(snapshot_of(off), snapshot_of(on));
  EXPECT_EQ(off.rec(), nullptr);
  ASSERT_NE(on.rec(), nullptr);
}

// The span ledger is one store for both layers: turning scope on next to
// profile must not change the recorded timeline, and the export of either
// run is a valid Chrome trace.
std::string chrome_trace(const dcr::scope::Recorder& ledger) {
  std::ostringstream os;
  prof::write_chrome_trace(os, ledger.num_shards(), ledger.spans());
  return os.str();
}

TEST(ScopeTimeline, SimSpansDoNotDependOnScope) {
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;
  DcrConfig cfg = scope_config(/*scope=*/false);
  cfg.profile = true;
  Harness prof_only(8, cfg);
  ASSERT_TRUE(run_stencil(prof_only, scfg).completed);
  cfg.scope = true;
  Harness both(8, cfg);
  ASSERT_TRUE(run_stencil(both, scfg).completed);

  ASSERT_EQ(prof_only.rec(), nullptr);
  const dcr::scope::Recorder& a = *prof_only.runtime.ledger();
  const dcr::scope::Recorder& b = *both.runtime.ledger();
  EXPECT_EQ(both.rec(), &b);
  ASSERT_FALSE(a.spans().empty());
  ASSERT_EQ(a.spans().size(), b.spans().size());
  for (std::size_t i = 0; i < a.spans().size(); ++i) {
    const dcr::scope::SpanRec& x = a.spans()[i];
    const dcr::scope::SpanRec& y = b.spans()[i];
    EXPECT_TRUE(x.kind == y.kind && x.lane == y.lane && x.shard == y.shard &&
                x.start == y.start && x.end == y.end && x.op == y.op && x.iter == y.iter)
        << "span " << i << ": " << prof::name(x.kind) << " vs " << prof::name(y.kind);
  }
  for (const dcr::scope::Recorder* r : {&a, &b}) {
    for (const std::string& e : prof::validate_chrome_trace(chrome_trace(*r))) {
      ADD_FAILURE() << e;
    }
  }
}

// ------------------------------------------------------- Prometheus format

TEST(ScopeMetrics, PrometheusTextFormat) {
  using Type = dcr::scope::MetricsRegistry::Type;
  dcr::scope::MetricsRegistry reg;
  reg.set("scope_test_gauge", "a gauge", Type::Gauge, 3.5);
  reg.set("scope_test_counter", "a counter", Type::Counter, 7,
          /*labels=*/"shard=\"2\"");
  reg.set("scope_test_counter", "a counter", Type::Counter, 9,
          /*labels=*/"shard=\"3\"");
  reg.set("scope_test_volatile_ns", "time-valued", Type::Gauge, 123,
          /*labels=*/"", /*is_volatile=*/true);
  // Pow-2 buckets {2,0,1}: cumulative le="1" -> 2, le="2" -> 2, le="4" -> 3.
  std::vector<std::uint64_t> buckets = {2, 0, 1, 0, 0};
  reg.set_histogram("scope_test_hist", "a histogram", buckets, /*count=*/3,
                    /*sum=*/7);

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP scope_test_gauge a gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE scope_test_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("scope_test_gauge 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE scope_test_counter counter"), std::string::npos);
  EXPECT_NE(text.find("scope_test_counter{shard=\"2\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("scope_test_counter{shard=\"3\"} 9\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE scope_test_hist histogram"), std::string::npos);
  EXPECT_NE(text.find("scope_test_hist_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("scope_test_hist_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("scope_test_hist_bucket{le=\"4\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("scope_test_hist_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("scope_test_hist_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("scope_test_hist_count 3\n"), std::string::npos);

  // Overwriting a labelled sample replaces it rather than appending.
  reg.set("scope_test_counter", "a counter", Type::Counter, 8, "shard=\"2\"");
  const dcr::scope::MetricsRegistry::Metric* m = reg.find("scope_test_counter");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->samples.size(), 2u);
  EXPECT_EQ(m->samples[0].value, 8);

  // zero_volatile: volatile metrics (incl. the histogram, volatile by
  // default) render as zero so cost-model retunes do not churn snapshots.
  const std::string zeroed = reg.prometheus_text(/*zero_volatile=*/true);
  EXPECT_NE(zeroed.find("scope_test_volatile_ns 0\n"), std::string::npos);
  EXPECT_NE(zeroed.find("scope_test_hist_count 0\n"), std::string::npos);
  EXPECT_EQ(zeroed.find("scope_test_hist_bucket{le=\"1\"}"), std::string::npos);
  // Non-volatile values are untouched.
  EXPECT_NE(zeroed.find("scope_test_gauge 3.5\n"), std::string::npos);
}

TEST(ScopeMetrics, CollectMatchesProfCounters) {
  Harness h(8, scope_config(/*scope=*/true));
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;
  const DcrStats stats = run_stencil(h, scfg);
  ASSERT_TRUE(stats.completed);

  dcr::scope::MetricsRegistry reg;
  dcr::scope::collect_metrics(reg, {.prof = &h.prof(),
                                    .machine = &h.machine,
                                    .recorder = h.rec(),
                                    .now = stats.makespan,
                                    .makespan = stats.makespan});

  const prof::Counters& g = h.prof().global();
  auto value_of = [&reg](const std::string& name) {
    const auto* m = reg.find(name);
    EXPECT_NE(m, nullptr) << name;
    if (m == nullptr || m->samples.empty()) return -1.0;
    return m->samples[0].value;
  };
  EXPECT_EQ(value_of("dcr_fence_decisions_total"),
            static_cast<double>(g.get(prof::GlobalCounter::FenceDecisions)));
  EXPECT_EQ(value_of("dcr_fences_issued_total"),
            static_cast<double>(g.get(prof::GlobalCounter::FencesIssued)));
  EXPECT_EQ(value_of("dcr_fences_elided_total"),
            static_cast<double>(g.get(prof::GlobalCounter::FencesElided)));
  const double rate = value_of("dcr_fence_elision_rate");
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  EXPECT_EQ(value_of("dcr_makespan_ns"), static_cast<double>(stats.makespan));
  EXPECT_EQ(value_of("dcr_scope_spans_total"),
            static_cast<double>(h.rec()->spans().size()));
  EXPECT_EQ(value_of("dcr_scope_fences_recorded"),
            static_cast<double>(h.rec()->fences().size()));
  EXPECT_EQ(value_of("dcr_scope_task_launches_total"),
            static_cast<double>(h.rec()->launches().size()));

  // Per-shard series carry one sample per shard.
  const auto* depth = reg.find("dcr_shard_queue_depth_ns");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->samples.size(), h.prof().num_shards());

  // The merged fence-wait histogram totals the per-shard counters.
  const auto* hist = reg.find("dcr_fence_wait_ns");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->hist_samples.size(), 1u);
  std::uint64_t want_count = 0;
  for (std::uint32_t s = 0; s < h.prof().num_shards(); ++s) {
    want_count += h.prof().shard(s).hist(prof::Hist::FenceWaitNs).count();
  }
  EXPECT_EQ(hist->hist_samples[0].count, want_count);
  EXPECT_GT(want_count, 0u);

  // The whole page parses as well-formed Prometheus text (spot-check: every
  // non-comment line is "name[{labels}] value").
  std::istringstream is(reg.prometheus_text());
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(sp + 1))) << line;
  }
}

// The exposer ticks at its virtual-time cadence while the run is live and
// stops once the runtime reports finished (else it would keep the simulator
// calendar alive forever).
TEST(ScopeMetrics, ExposerTicksUntilRuntimeFinishes) {
  sim::Machine machine(cluster(8));
  FunctionRegistry functions;
  DcrRuntime rt(machine, functions, scope_config(/*scope=*/true));
  const auto fns = register_stencil_functions(functions, 1.0);
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;

  std::uint64_t sink_calls = 0;
  dcr::scope::MetricsExposer::Options opts;
  opts.interval = us(20);
  opts.sink = [&sink_calls](const std::string& text) {
    sink_calls++;
    EXPECT_NE(text.find("dcr_fence_decisions_total"), std::string::npos);
  };
  opts.done = [&rt] { return rt.finished(); };
  dcr::scope::MetricsExposer exposer(
      machine.sim(), opts, [&rt, &machine](dcr::scope::MetricsRegistry& reg) {
        dcr::scope::collect_metrics(reg, {.prof = &rt.profiler(),
                                          .machine = &machine,
                                          .recorder = rt.scope(),
                                          .now = machine.sim().now(),
                                          .makespan = 0});
      });
  exposer.start();
  const DcrStats stats = rt.execute(make_stencil_app(scfg, fns));
  ASSERT_TRUE(stats.completed);
  EXPECT_GT(exposer.ticks(), 0u);
  EXPECT_EQ(exposer.ticks(), sink_calls);
  EXPECT_NE(exposer.last_text().find("dcr_fence_decisions_total"),
            std::string::npos);
}

// ------------------------------------------------------------ HTTP endpoint

// One GET against the loopback endpoint; returns the full raw response.
std::string http_get(std::uint16_t port, const std::string& path = "/") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::write(fd, req.data() + off, req.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

TEST(ScopeHttp, ServesLatestSnapshot) {
  dcr::scope::MetricsHttpServer srv(/*port=*/0);  // 0: OS assigns a free port
  ASSERT_TRUE(srv.ok()) << srv.error();
  ASSERT_NE(srv.port(), 0);

  srv.set_body("dcr_up 1\n");
  const std::string first = http_get(srv.port());
  EXPECT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(first.find("text/plain"), std::string::npos);
  EXPECT_NE(first.find("\r\n\r\ndcr_up 1\n"), std::string::npos);

  // set_body swaps the snapshot for subsequent requests.
  srv.set_body("dcr_up 2\n");
  const std::string second = http_get(srv.port());
  EXPECT_NE(second.find("\r\n\r\ndcr_up 2\n"), std::string::npos);
  EXPECT_EQ(second.find("dcr_up 1"), std::string::npos);
  srv.stop();
}

// -------------------------------------------------------- baseline watchdog

TEST(ScopeBaseline, MachineDependentFieldClassifier) {
  EXPECT_TRUE(dcr::scope::machine_dependent_field("wall_off_ms_min"));
  EXPECT_TRUE(dcr::scope::machine_dependent_field("overhead_pct"));
  EXPECT_FALSE(dcr::scope::machine_dependent_field("fences_issued"));
  EXPECT_FALSE(dcr::scope::machine_dependent_field("makespan_identical"));
}

TEST(ScopeBaseline, FlagsThresholdBreaches) {
  const prof::JsonValue base =
      parsed(R"([{"sweep": "a", "x": 100, "wall_ms": 10}])");
  const prof::JsonValue live =
      parsed(R"([{"sweep": "a", "x": 110, "wall_ms": 20}])");

  // +10% on x breaches a 5% threshold; the wall field is skipped by default
  // even though it doubled.
  dcr::scope::BaselineDiff d = dcr::scope::check_baseline(base, live, 5.0);
  EXPECT_FALSE(d.ok());
  ASSERT_EQ(d.breaches.size(), 1u);
  EXPECT_EQ(d.breaches[0].sweep, "a");
  EXPECT_EQ(d.breaches[0].key, "x");
  EXPECT_DOUBLE_EQ(d.breaches[0].base, 100);
  EXPECT_DOUBLE_EQ(d.breaches[0].live, 110);
  EXPECT_NEAR(d.breaches[0].delta_pct, 10.0, 1e-9);
  EXPECT_EQ(d.matched_sweeps, 1u);
  ASSERT_EQ(d.skipped.size(), 1u);
  EXPECT_EQ(d.skipped[0], "a.wall_ms");

  // A generous threshold passes; --include-wall turns the wall jump into a
  // breach of its own.
  EXPECT_TRUE(dcr::scope::check_baseline(base, live, 15.0).ok());
  const dcr::scope::BaselineDiff w =
      dcr::scope::check_baseline(base, live, 15.0, /*include_wall=*/true);
  EXPECT_FALSE(w.ok());
  ASSERT_EQ(w.breaches.size(), 1u);
  EXPECT_EQ(w.breaches[0].key, "wall_ms");
}

TEST(ScopeBaseline, ReportsSchemaDriftAsAddedRemoved) {
  const prof::JsonValue base = parsed(
      R"([{"sweep": "a", "x": 1, "gone": 2}, {"sweep": "old", "y": 3}])");
  const prof::JsonValue live = parsed(
      R"([{"sweep": "a", "x": 1, "fresh": 4}, {"sweep": "new", "z": 5}])");

  const dcr::scope::BaselineDiff d = dcr::scope::check_baseline(base, live, 5.0);
  // Drift is reported, not fatal: the shared fields still match.
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.matched_sweeps, 1u);
  const std::set<std::string> added(d.added.begin(), d.added.end());
  const std::set<std::string> removed(d.removed.begin(), d.removed.end());
  EXPECT_TRUE(added.count("a.fresh"));
  EXPECT_TRUE(added.count("new.*"));
  EXPECT_TRUE(removed.count("a.gone"));
  EXPECT_TRUE(removed.count("old.*"));
}

TEST(ScopeBaseline, RejectsDisjointAndMalformedInputs) {
  // No sweep in common: nothing was actually compared, so the check fails
  // rather than green-lighting an empty comparison.
  const dcr::scope::BaselineDiff disjoint = dcr::scope::check_baseline(
      parsed(R"([{"sweep": "a", "x": 1}])"),
      parsed(R"([{"sweep": "b", "x": 1}])"), 5.0);
  EXPECT_EQ(disjoint.matched_sweeps, 0u);
  EXPECT_FALSE(disjoint.ok());

  const dcr::scope::BaselineDiff missing = dcr::scope::check_baseline_files(
      "/nonexistent/BENCH_base.json", "/nonexistent/BENCH_live.json", 5.0);
  EXPECT_FALSE(missing.error.empty());
  EXPECT_FALSE(missing.ok());
}

// ------------------------------------------------------- prof snapshot diff

TEST(ProfDiff, TolerantOfMissingKeysAndSections) {
  const prof::JsonValue a =
      parsed(R"({"global": {"x": 1, "y": 2}, "merged": {"q": 1}})");
  const prof::JsonValue b =
      parsed(R"({"global": {"x": 1, "y": 3, "z": 4}})");

  const prof::SnapshotDiff d = prof::diff_snapshots(a, b);
  EXPECT_TRUE(d.any());
  ASSERT_EQ(d.changed.size(), 1u);
  EXPECT_EQ(d.changed[0].key, "global.y");
  EXPECT_DOUBLE_EQ(d.changed[0].a, 2);
  EXPECT_DOUBLE_EQ(d.changed[0].b, 3);
  ASSERT_EQ(d.added.size(), 1u);
  EXPECT_EQ(d.added[0], "global.z");
  // The whole merged section vanished from b: its keys are removals, not a
  // crash (the old CLI silently skipped one-sided keys).
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0], "merged.q");

  EXPECT_FALSE(prof::diff_snapshots(a, a).any());
}

// --------------------------------------------------- scope-on/off fuzz sweep

// 100 label-seeded loop programs (templates on) run under fault injection
// with tracing on and off.  Tracing is host-side only, so the on/off pair
// must be indistinguishable in virtual time: identical makespan, identical
// counter snapshot, same realized partial order — both matching the
// fault-free reference graph (spy-verified).  The scope-on run's blame
// ledger must still reconcile exactly across the crash + recovery.
class ScopeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScopeFuzz, TracingNeverPerturbsExecution) {
  const std::uint64_t seed = GetParam();
  Philox4x32 rng(fuzz::seed_for_label("scope", seed), /*stream=*/13);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
  const std::size_t nodes = 3;

  // Fault-free reference: spy-verified trace, graph + makespan.
  SimTime fault_free_makespan = 0;
  rt::TaskGraph reference;
  {
    Harness h(nodes, scope_config(/*scope=*/true, /*trace=*/true, /*graph=*/true));
    const FunctionId fn = h.functions.register_simple("t", us(1), 1.0);
    const DcrStats stats =
        h.runtime.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
    ASSERT_TRUE(stats.completed) << "seed " << seed << ": " << stats.abort_message;
    const spy::Trace* trace = h.runtime.trace();
    ASSERT_NE(trace, nullptr);
    const spy::VerifyReport report = spy::verify(*trace);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.summary();
    ASSERT_NE(h.rec(), nullptr);
    EXPECT_TRUE(dcr::scope::build_blame(*h.rec(), h.prof()).reconciled())
        << "seed " << seed;
    fault_free_makespan = stats.makespan;
    reference = h.runtime.realized_graph().transitive_closure();
  }
  ASSERT_TRUE(reference.is_acyclic());

  // Same program under the same fault plan (drops + one mid-run crash),
  // once with tracing off and once with it on.
  auto faulted = [&](bool scope, DcrStats* stats_out, std::string* snap_out) {
    sim::FaultConfig fcfg;
    fcfg.seed = fuzz::seed_for_label("scope-plan", seed);
    fcfg.drop_rate = 0.005;
    const NodeId victim(static_cast<std::uint32_t>(1 + seed % (nodes - 1)));
    fcfg.crashes.push_back({victim, fault_free_makespan * (1 + seed % 3) / 4});

    sim::Machine machine(cluster(nodes));
    sim::FaultPlan plan(fcfg);
    machine.install_faults(plan);
    FunctionRegistry functions;
    DcrRuntime rt(machine, functions,
                  scope_config(scope, /*trace=*/false, /*graph=*/true));
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    *stats_out = rt.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
    ASSERT_TRUE(stats_out->completed)
        << "seed " << seed << " scope=" << scope << ": "
        << stats_out->abort_message;
    {
      std::ostringstream os;
      rt.profiler().write_snapshot_json(os, /*zero_volatile=*/false);
      *snap_out = os.str();
    }
    EXPECT_TRUE(
        reference.same_partial_order(rt.realized_graph().transitive_closure()))
        << "seed " << seed << " scope=" << scope;
    const prof::Counters& g = rt.profiler().global();
    EXPECT_EQ(g.get(prof::GlobalCounter::FencesIssued) +
                  g.get(prof::GlobalCounter::FencesElided),
              g.get(prof::GlobalCounter::FenceDecisions))
        << "seed " << seed;
    EXPECT_EQ(g.get(prof::GlobalCounter::Recoveries), 1u) << "seed " << seed;
    EXPECT_GE(g.get(prof::GlobalCounter::RecoveryEpochs), 1u) << "seed " << seed;
    // The causal ledger keeps reconciling across the crash + recovery: the
    // recorder's per-rank waits and the FenceWaitNs counters are computed
    // from the same instants even when a fence round spans the failure.
    if (scope) {
      ASSERT_NE(rt.scope(), nullptr);
      const dcr::scope::BlameReport blame =
          dcr::scope::build_blame(*rt.scope(), rt.profiler());
      EXPECT_TRUE(blame.reconciled()) << "seed " << seed;
      EXPECT_EQ(blame.attributed, blame.complete_fences) << "seed " << seed;
    }
  };

  DcrStats stats_off, stats_on;
  std::string snap_off, snap_on;
  faulted(/*scope=*/false, &stats_off, &snap_off);
  faulted(/*scope=*/true, &stats_on, &snap_on);
  EXPECT_EQ(stats_off.makespan, stats_on.makespan) << "seed " << seed;
  // Counters are a pure function of the (deterministic) execution; the
  // scope knob only gates the host-side causal ledger.
  EXPECT_EQ(snap_off, snap_on) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopeFuzz, ::testing::Range<std::uint64_t>(0, 100));

// ===========================================================================
// Real-threads backend: wall-clock blame/skew, flight recorder, live metrics
// ===========================================================================

exec::ThreadConfig threads_scope_config(std::size_t shards) {
  exec::ThreadConfig cfg;
  cfg.num_shards = shards;
  cfg.profile = true;
  cfg.scope = true;
  return cfg;
}

// The tentpole acceptance criterion on real threads: every time in the blame
// report is wall-clock nanoseconds, and the recorder's per-rank waits still
// reconcile *exactly* with dcr-prof's FenceWaitNs counters — the same
// Clock::now() reads feed both ledgers, so the identity is by construction,
// not within-epsilon.
TEST(ScopeThreads, BlameReconcilesOnWallClock) {
  FunctionRegistry functions;
  const auto fns = register_stencil_functions(functions, 1.0);
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;
  exec::ThreadRuntime rt(functions, threads_scope_config(8));
  const DcrStats stats = rt.execute(make_stencil_app(scfg, fns));
  ASSERT_TRUE(stats.completed) << stats.abort_message;
  ASSERT_NE(rt.scope(), nullptr);
  const dcr::scope::Recorder& rec = *rt.scope();

  const dcr::scope::BlameReport r = dcr::scope::build_blame(rec, rt.profiler());
  EXPECT_TRUE(r.ledger_consistent);
  EXPECT_TRUE(r.waits_reconcile);
  EXPECT_TRUE(r.reconciled());
  EXPECT_EQ(r.fences_issued + r.fences_elided, r.fence_decisions);

  ASSERT_GT(r.fences.size(), 0u);
  EXPECT_EQ(r.complete_fences, r.fences.size());
  EXPECT_EQ(r.attributed, r.complete_fences);
  for (const dcr::scope::BlameEntry& e : r.fences) {
    ASSERT_TRUE(e.complete);
    EXPECT_NE(e.releaser_shard, dcr::scope::kNoShard);
    EXPECT_NE(e.releaser_span, dcr::scope::kNoSpan);
    const dcr::scope::SpanRec* sp = rec.span(e.releaser_span);
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp->shard, e.releaser_shard);
    EXPECT_GE(e.last_arrival, e.first_arrival);
  }

  // The exact cross-ledger identity on the wall clock.
  ASSERT_EQ(r.shard_wait_ns.size(), r.prof_shard_wait_ns.size());
  SimTime total = 0;
  for (std::size_t s = 0; s < r.shard_wait_ns.size(); ++s) {
    EXPECT_EQ(r.shard_wait_ns[s], r.prof_shard_wait_ns[s]) << "shard " << s;
    EXPECT_EQ(r.prof_shard_wait_ns[s],
              rt.profiler().shard(static_cast<std::uint32_t>(s))
                  .get(prof::Counter::FenceWaitNs))
        << "shard " << s;
    total += r.shard_wait_ns[s];
  }
  EXPECT_EQ(r.total_wait_ns, total);

  // Per-shard single-writer ledgers merged into the dense global span order:
  // ids stay dense and every span/launch names its owning shard.
  ASSERT_GT(rec.spans().size(), 0u);
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const dcr::scope::SpanRec& sp = rec.spans()[i];
    EXPECT_EQ(sp.id, i);
    EXPECT_LT(sp.shard, rec.num_shards());
    EXPECT_GE(sp.end, sp.start);
  }
  ASSERT_GT(rec.launches().size(), 0u);
  for (const dcr::scope::LaunchRec& l : rec.launches()) {
    if (l.span == dcr::scope::kNoSpan) continue;
    const dcr::scope::SpanRec* sp = rec.span(l.span);
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp->shard, l.shard);
  }
  EXPECT_EQ(rec.messages().size(), rec.num_shards());
  EXPECT_EQ(rec.makespan(), stats.makespan);
}

// On threads the timestamps are wall time, so the profile-only and the
// profile+scope runs agree on what was recorded, not when.
TEST(ScopeThreads, TimelineDoesNotDependOnScope) {
  using Key = std::tuple<prof::SpanKind, prof::Lane, std::uint32_t, std::uint64_t,
                         std::uint64_t>;
  auto run = [](bool scope) {
    FunctionRegistry functions;
    const auto fns = register_stencil_functions(functions, 1.0);
    StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
    scfg.use_trace = true;
    exec::ThreadConfig cfg = threads_scope_config(4);
    cfg.scope = scope;
    exec::ThreadRuntime rt(functions, cfg);
    EXPECT_TRUE(rt.execute(make_stencil_app(scfg, fns)).completed);
    EXPECT_EQ(rt.scope() != nullptr, scope);
    std::multiset<Key> keys;
    const dcr::scope::Recorder* ledger = rt.ledger();
    if (ledger == nullptr) {
      ADD_FAILURE() << "no span ledger under profile";
      return keys;
    }
    for (const std::string& e : prof::validate_chrome_trace(chrome_trace(*ledger))) {
      ADD_FAILURE() << "scope=" << scope << ": " << e;
    }
    for (const dcr::scope::SpanRec& sp : ledger->spans()) {
      keys.insert({sp.kind, sp.lane, sp.shard, sp.op, sp.iter});
    }
    return keys;
  };
  const std::multiset<Key> prof_only = run(/*scope=*/false);
  EXPECT_FALSE(prof_only.empty());
  EXPECT_TRUE(prof_only == run(/*scope=*/true));
}

// Skew rollup conservation holds unchanged on wall-clock inputs.
TEST(ScopeThreads, SkewRollupConservesWallClockBlame) {
  FunctionRegistry functions;
  const auto fns = register_stencil_functions(functions, 1.0);
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;
  exec::ThreadRuntime rt(functions, threads_scope_config(8));
  ASSERT_TRUE(rt.execute(make_stencil_app(scfg, fns)).completed);
  ASSERT_NE(rt.scope(), nullptr);

  const dcr::scope::BlameReport blame =
      dcr::scope::build_blame(*rt.scope(), rt.profiler());
  const dcr::scope::SkewReport skew = dcr::scope::build_skew(*rt.scope());
  ASSERT_EQ(skew.num_shards, rt.scope()->num_shards());
  ASSERT_EQ(skew.matrix.size(), skew.num_shards);
  SimTime matrix_total = 0;
  for (std::size_t w = 0; w < skew.num_shards; ++w) {
    SimTime row = 0;
    for (const SimTime v : skew.matrix[w]) row += v;
    EXPECT_EQ(row, skew.waited_ns[w]) << "waiter " << w;
    EXPECT_EQ(row, blame.shard_wait_ns[w]) << "waiter " << w;
    matrix_total += row;
  }
  EXPECT_EQ(matrix_total, blame.total_wait_ns);
  ASSERT_EQ(skew.ranking.size(), skew.num_shards);
  for (std::size_t i = 1; i < skew.ranking.size(); ++i) {
    EXPECT_GE(skew.blamed_ns[skew.ranking[i - 1]],
              skew.blamed_ns[skew.ranking[i]]);
  }
}

// ------------------------------------------------------- flight recorder

// The ring keeps only the most recent `capacity` events per shard, and the
// dump is Chrome trace_event JSON our own parser can load (Perfetto's format
// tolerates the extra top-level metadata key).
TEST(ScopeFlight, RingIsBoundedAndDumpParses) {
  dcr::scope::FlightRecorder fr(/*num_shards=*/2, /*capacity=*/8);
  using Kind = dcr::scope::FlightEvent::Kind;
  for (std::uint64_t i = 0; i < 20; ++i) {
    fr.record(0, {Kind::Span, /*shard=*/0, /*op=*/i, /*aux=*/i,
                  /*start=*/i * 10, /*end=*/i * 10 + 5});
  }
  fr.record(1, {Kind::FenceWait, 1, 7, 0, 3, 9});
  EXPECT_EQ(fr.recorded(0), 20u);
  EXPECT_EQ(fr.recorded(1), 1u);

  const std::string path = ::testing::TempDir() + "dcr_flight_unit.json";
  std::remove(path.c_str());
  ASSERT_TRUE(fr.dump(path, "unit \"quoted\" reason", /*prof=*/nullptr));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  // Formatted by the span exporter's own code, so the same schema holds.
  for (const std::string& e : prof::validate_chrome_trace(ss.str())) ADD_FAILURE() << e;
  const prof::JsonValue v = parsed(ss.str());
  const prof::JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Shard 0 retains the last 8 of 20, shard 1 has its single event; the
  // rest are "M" events naming each shard's tracks (pid = shard).
  std::size_t complete = 0;
  for (const prof::JsonValue& e : events->array) {
    const prof::JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") continue;
    ++complete;
    EXPECT_EQ(ph->string, "X");  // complete events: ts + dur
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("dur"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
  }
  EXPECT_EQ(complete, 9u);
  const prof::JsonValue* meta = v.find("metadata");
  ASSERT_NE(meta, nullptr);
  const prof::JsonValue* reason = meta->find("reason");
  ASSERT_NE(reason, nullptr);
  // Quotes are sanitized out (the dump path never escapes, it replaces).
  EXPECT_EQ(reason->string.find('"'), std::string::npos);
  EXPECT_NE(reason->string.find("quoted"), std::string::npos);
  const prof::JsonValue* recorded = meta->find("flight_recorded");
  ASSERT_NE(recorded, nullptr);
  ASSERT_EQ(recorded->array.size(), 2u);
  EXPECT_EQ(recorded->array[0].number, 20.0);
  EXPECT_EQ(recorded->array[1].number, 1.0);
  std::remove(path.c_str());
}

// Forcing a §3 control-determinism violation on the threads backend must
// leave a loadable post-mortem dump behind: recent spans/launches per shard
// plus the abort reason and the per-shard blame summary.
TEST(ScopeThreads, FlightRecorderDumpsOnDeterminismAbort) {
  const std::string path = ::testing::TempDir() + "dcr_flight_abort.json";
  std::remove(path.c_str());
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  exec::ThreadConfig cfg = threads_scope_config(4);
  cfg.flight_path = path;
  exec::ThreadRuntime rt(functions, cfg);
  const DcrStats stats = rt.execute([fn](Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "x");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 63), fs);
    const IndexSpaceId root = ctx.root(tree);
    const PartitionId part = ctx.partition_equal(root, 4);
    ctx.fill(root, {f});
    IndexLaunch l;
    l.fn = fn;
    l.domain = rt::Rect::r1(0, 3);
    l.requirements.push_back(
        rt::GroupRequirement::on_partition(part, {f}, rt::Privilege::ReadWrite));
    ctx.index_launch(l);
    // Shard-dependent argument: the §3 violation the folded digests flag.
    ctx.allocate_field(fs, 8 + ctx.shard_id().value, "diverge");
  });
  EXPECT_TRUE(stats.determinism_violation);
  EXPECT_FALSE(stats.completed);
  ASSERT_NE(rt.flight(), nullptr);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no flight dump at " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const prof::JsonValue v = parsed(ss.str());
  const prof::JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // The "M" track-name events are written for every shard even when the
  // rings are empty, so only the "X" events show that anything was recorded.
  std::size_t complete = 0;
  for (const prof::JsonValue& e : events->array) {
    const prof::JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") ++complete;
  }
  EXPECT_GT(complete, 0u) << "abort dump recorded no events";
  for (const std::string& e : prof::validate_chrome_trace(ss.str())) ADD_FAILURE() << e;
  const prof::JsonValue* meta = v.find("metadata");
  ASSERT_NE(meta, nullptr);
  const prof::JsonValue* reason = meta->find("reason");
  ASSERT_NE(reason, nullptr);
  EXPECT_NE(reason->string.find("determinism"), std::string::npos)
      << reason->string;
  const prof::JsonValue* recorded = meta->find("flight_recorded");
  ASSERT_NE(recorded, nullptr);
  EXPECT_EQ(recorded->array.size(), 4u);
  const prof::JsonValue* waits = meta->find("shard_fence_wait_ns");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->array.size(), 4u);
  std::remove(path.c_str());
}

// ---------------------------------------------------- wall-clock refresher

// The wall-clock sibling of the exposer: ticks on its own OS thread at a
// real-time cadence and performs one final collection at stop() so the last
// snapshot covers the whole run.
TEST(ScopeMetrics, WallRefresherTicksAndFinalSnapshot) {
  std::atomic<std::uint64_t> collected{0};
  dcr::scope::WallMetricsRefresher::Options opts;
  opts.interval_ns = ms(2);
  std::atomic<std::uint64_t> sink_calls{0};
  opts.sink = [&sink_calls](const std::string& text) {
    EXPECT_NE(text.find("scope_refresher_collections"), std::string::npos);
    sink_calls.fetch_add(1);
  };
  dcr::scope::WallMetricsRefresher refresher(
      opts, [&collected](dcr::scope::MetricsRegistry& reg) {
        using Type = dcr::scope::MetricsRegistry::Type;
        reg.set("scope_refresher_collections", "collect() invocations",
                Type::Counter, static_cast<double>(collected.fetch_add(1) + 1));
      });
  refresher.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  refresher.stop();
  const std::uint64_t after_stop = refresher.ticks();
  EXPECT_GT(after_stop, 0u);
  EXPECT_EQ(after_stop, sink_calls.load());
  EXPECT_EQ(after_stop, collected.load());
  EXPECT_NE(refresher.last_text().find("scope_refresher_collections"),
            std::string::npos);
  // Idempotent: a second stop neither ticks nor deadlocks.
  refresher.stop();
  EXPECT_EQ(refresher.ticks(), after_stop);
}

// Live collection during a real thread-fleet run: the refresher reads only
// the always-on prof counter banks and the recorder's atomic tallies, so it
// is safe (and Tsan-clean) concurrently with the executing shards.
TEST(ScopeThreads, LiveMetricsDuringThreadFleetRun) {
  FunctionRegistry functions;
  const auto fns = register_stencil_functions(functions, 1.0);
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 6};
  scfg.use_trace = true;
  exec::ThreadRuntime rt(functions, threads_scope_config(8));

  dcr::scope::WallMetricsRefresher::Options opts;
  opts.interval_ns = us(200);
  dcr::scope::WallMetricsRefresher refresher(
      opts, [&rt](dcr::scope::MetricsRegistry& reg) {
        dcr::scope::collect_metrics(reg, {.prof = &rt.profiler(),
                                          .machine = nullptr,
                                          .recorder = rt.scope(),
                                          .now = 0,
                                          .makespan = 0});
      });
  refresher.start();
  const DcrStats stats = rt.execute(make_stencil_app(scfg, fns));
  refresher.stop();
  ASSERT_TRUE(stats.completed) << stats.abort_message;
  EXPECT_GT(refresher.ticks(), 0u);
  // The final (post-join) snapshot agrees with the quiesced merged ledgers.
  const std::string text = refresher.last_text();
  EXPECT_NE(text.find("dcr_fence_decisions_total"), std::string::npos);
  EXPECT_NE(text.find("dcr_scope_spans_total"), std::string::npos);
  // The ledger also holds the profile's other span kinds; the metric counts
  // fine stages.
  const std::vector<dcr::scope::SpanRec>& spans = rt.scope()->spans();
  std::ostringstream want;
  want << "dcr_scope_spans_total "
       << std::count_if(spans.begin(), spans.end(), [](const dcr::scope::SpanRec& sp) {
            return prof::is_fine_stage(sp.kind);
          });
  EXPECT_NE(text.find(want.str()), std::string::npos)
      << "final snapshot disagrees with the merged ledger:\n"
      << text;
}

// -------------------------------------------------- HTTP endpoint, threads

// Unknown paths 404 with an exact Content-Length so well-behaved clients
// terminate cleanly (ISSUE satellite: the 404 path previously dropped the
// header).
TEST(ScopeHttp, NotFoundCarriesContentLength) {
  dcr::scope::MetricsHttpServer srv(/*port=*/0);
  ASSERT_TRUE(srv.ok()) << srv.error();
  srv.set_body("dcr_up 1\n");
  const std::string resp = http_get(srv.port(), "/nope");
  EXPECT_NE(resp.find("HTTP/1.1 404 Not Found"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Length: 10"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\r\n\r\nnot found\n"), std::string::npos) << resp;
  // /metrics serves the snapshot, query strings are ignored.
  const std::string metrics = http_get(srv.port(), "/metrics?x=1");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("\r\n\r\ndcr_up 1\n"), std::string::npos) << metrics;
  srv.stop();
}

// Tsan regression (ISSUE satellite): concurrent GETs racing set_body must be
// data-race-free, and every response must be a complete snapshot (never a
// torn mix of old and new bodies).
TEST(ScopeHttp, ConcurrentRequestsRaceSetBody) {
  dcr::scope::MetricsHttpServer srv(/*port=*/0);
  ASSERT_TRUE(srv.ok()) << srv.error();
  srv.set_body("snapshot 0 end\n");

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&srv, &bad, c] {
      for (int i = 0; i < 25; ++i) {
        const std::string resp =
            http_get(srv.port(), (c % 2) ? "/metrics" : "/");
        if (resp.find("HTTP/1.1 200 OK") == std::string::npos) bad.fetch_add(1);
        const std::size_t body = resp.find("\r\n\r\n");
        if (body == std::string::npos ||
            resp.compare(body + 4, 9, "snapshot ") != 0 ||
            resp.find(" end\n", body) == std::string::npos) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&srv, &done] {
    for (std::uint64_t i = 1; !done.load(); ++i) {
      srv.set_body("snapshot " + std::to_string(i) + " end\n");
      std::this_thread::yield();
    }
  });
  for (auto& t : clients) t.join();
  done.store(true);
  writer.join();
  EXPECT_EQ(bad.load(), 0u);
  srv.stop();
}

// ------------------------------------------- scope+exec combined fuzz sweep

// ISSUE satellite: 25 fuzzed loop programs through the threads backend with
// tracing off and on.  Both runs must realize the simulator reference's
// task graph (spy-verified), and the scope-on run's wall-clock ledgers must
// hold every invariant the simulator ledgers do.  Rides the scope+exec fuzz
// labels and the Tsan tree in check-hardened.
class ScopeThreadsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScopeThreadsFuzz, WallClockLedgersHoldOnThreads) {
  const std::uint64_t seed = GetParam();
  Philox4x32 rng(fuzz::seed_for_label("scope-threads", seed), /*stream=*/17);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
  const std::size_t shards = 3;

  // Simulator reference: spy-verified trace and realized graph.
  spy::Trace reference;
  {
    sim::Machine machine(cluster(shards));
    FunctionRegistry functions;
    DcrConfig cfg;
    cfg.record_trace = true;
    DcrRuntime rt(machine, functions, cfg);
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    const DcrStats stats =
        rt.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
    ASSERT_TRUE(stats.completed) << "seed " << seed << ": " << stats.abort_message;
    const spy::VerifyReport vr = spy::verify(*rt.trace());
    ASSERT_TRUE(vr.ok()) << "seed " << seed << ": " << vr.summary();
    reference = *rt.trace();
  }

  auto run_threads = [&](bool scope) {
    exec::ThreadConfig cfg;
    cfg.num_shards = shards;
    cfg.record_trace = true;
    cfg.profile = true;
    cfg.scope = scope;
    FunctionRegistry functions;
    exec::ThreadRuntime rt(functions, cfg);
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    const DcrStats stats =
        rt.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
    ASSERT_TRUE(stats.completed)
        << "seed " << seed << " scope=" << scope << ": " << stats.abort_message;
    EXPECT_FALSE(stats.determinism_violation)
        << "seed " << seed << ": " << stats.violation_message;
    std::string why;
    EXPECT_TRUE(spy::graph_equivalent(reference, *rt.trace(), &why))
        << "seed " << seed << " scope=" << scope << ": " << why;

    const prof::Counters& g = rt.profiler().global();
    EXPECT_EQ(g.get(prof::GlobalCounter::FencesIssued) +
                  g.get(prof::GlobalCounter::FencesElided),
              g.get(prof::GlobalCounter::FenceDecisions))
        << "seed " << seed;
    if (!scope) {
      EXPECT_EQ(rt.scope(), nullptr);
      return;
    }
    // Wall-clock ledger invariants, exactly as on the simulator.
    ASSERT_NE(rt.scope(), nullptr);
    const dcr::scope::Recorder& rec = *rt.scope();
    const dcr::scope::BlameReport blame =
        dcr::scope::build_blame(rec, rt.profiler());
    EXPECT_TRUE(blame.reconciled()) << "seed " << seed;
    EXPECT_EQ(blame.attributed, blame.complete_fences) << "seed " << seed;
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      ASSERT_EQ(rec.spans()[i].id, i) << "seed " << seed;
    }
    for (const dcr::scope::LaunchRec& l : rec.launches()) {
      if (l.span == dcr::scope::kNoSpan) continue;
      const dcr::scope::SpanRec* sp = rec.span(l.span);
      ASSERT_NE(sp, nullptr) << "seed " << seed;
      EXPECT_EQ(sp->shard, l.shard) << "seed " << seed;
    }
  };
  run_threads(/*scope=*/false);
  run_threads(/*scope=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopeThreadsFuzz,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace dcr::core
