// dcr-prof: the always-on profiling and metrics layer (src/prof).
//
// Counter-accounting invariants that hold by construction (fences issued +
// elided == fence decisions; template window hits + misses == window
// closures), span-tree well-formedness (no negative durations, strict
// nesting per (shard, lane) track), Chrome trace_event schema validation,
// bitwise counter determinism across seeded re-runs, the prof-vs-spy
// fence/elision cross-check, a golden counter snapshot for the stencil, the
// seed_for_label collision audit for every fuzz suite in the repo, and a
// 100-seed profile-on/off equivalence sweep under fault injection +
// dependence templates (labelled fuzz; the rest runs in check-fast).
//
// Regenerate the golden snapshot after an intentional analysis change with:
//   DCR_UPDATE_GOLDEN=1 ctest -L prof
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/circuit.hpp"
#include "apps/stencil.hpp"
#include "common/philox.hpp"
#include "dcr/runtime.hpp"
#include "dcr_fuzz_programs.hpp"
#include "prof/json.hpp"
#include "prof/report.hpp"
#include "prof/trace_event.hpp"
#include "prof/validate.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "spy/verify.hpp"

#ifndef DCR_GOLDEN_DIR
#define DCR_GOLDEN_DIR "tests/golden"
#endif

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
// profiler after execute() returns.
struct Harness {
  sim::Machine machine;
  FunctionRegistry functions;
  DcrRuntime runtime;

  Harness(std::size_t nodes, DcrConfig cfg)
      : machine(cluster(nodes)), runtime(machine, functions, cfg) {}

  const prof::Profiler& prof() const { return runtime.profiler(); }
  // The recorded timeline (the span ledger exists under DcrConfig::profile).
  const std::vector<prof::Span>& spans() const { return runtime.ledger()->spans(); }
};

DcrConfig prof_config(bool spans, bool trace = false, bool graph = false) {
  DcrConfig cfg;
  cfg.profile = spans;
  cfg.record_trace = trace;
  cfg.record_task_graph = graph;
  return cfg;
}

DcrStats run_stencil(Harness& h, const StencilConfig& scfg) {
  const auto fns = register_stencil_functions(h.functions, 1.0);
  return h.runtime.execute(make_stencil_app(scfg, fns));
}

std::string snapshot_of(const Harness& h, bool zero_volatile = false) {
  std::ostringstream os;
  h.prof().write_snapshot_json(os, zero_volatile);
  return os.str();
}

// The two ledger invariants every run must satisfy, plus agreement with the
// legacy DcrStats counters where both exist.
void expect_counter_invariants(const Harness& h, const DcrStats& stats) {
  const prof::Counters& g = h.prof().global();
  const std::uint64_t issued = g.get(prof::GlobalCounter::FencesIssued);
  const std::uint64_t elided = g.get(prof::GlobalCounter::FencesElided);
  const std::uint64_t decisions = g.get(prof::GlobalCounter::FenceDecisions);
  EXPECT_EQ(issued + elided, decisions);
  EXPECT_EQ(decisions, stats.coarse_deps);
  EXPECT_EQ(elided, stats.fences_elided);
  for (std::uint32_t s = 0; s < h.prof().num_shards(); ++s) {
    const prof::Counters& pc = h.prof().shard(s);
    EXPECT_EQ(pc.get(prof::Counter::TemplateWindowHits) +
                  pc.get(prof::Counter::TemplateWindowMisses),
              pc.get(prof::Counter::WindowsClosed))
        << "shard " << s;
  }
}

// ------------------------------------------------------- counter accounting

TEST(ProfCounters, StencilFenceAccounting) {
  Harness h(8, prof_config(/*spans=*/true));
  const DcrStats stats =
      run_stencil(h, {.cells_per_tile = 64, .tiles = 16, .steps = 4});
  ASSERT_TRUE(stats.completed);
  expect_counter_invariants(h, stats);

  const prof::Counters& g = h.prof().global();
  EXPECT_GT(g.get(prof::GlobalCounter::FenceDecisions), 0u);
  EXPECT_GT(g.get(prof::GlobalCounter::FencesElided), 0u);
  // Elision enabled: every decision ran the shard-locality proof, and the
  // proof succeeded exactly on the elided ones.
  EXPECT_EQ(g.get(prof::GlobalCounter::ElisionProofsAttempted),
            g.get(prof::GlobalCounter::FenceDecisions));
  EXPECT_EQ(g.get(prof::GlobalCounter::ElisionProofsSucceeded),
            g.get(prof::GlobalCounter::FencesElided));
  // The control program is replicated: every shard analyzes every op.
  const std::uint64_t ops0 = h.prof().shard(0).get(prof::Counter::CoarseOps);
  EXPECT_GT(ops0, 0u);
  for (std::uint32_t s = 1; s < h.prof().num_shards(); ++s) {
    EXPECT_EQ(h.prof().shard(s).get(prof::Counter::CoarseOps), ops0) << "shard " << s;
  }
  EXPECT_GT(h.prof().total(prof::Counter::FinePoints), 0u);
  EXPECT_GT(g.get(prof::GlobalCounter::FenceCollectives), 0u);
}

TEST(ProfCounters, DisabledElisionSkipsProofs) {
  DcrConfig cfg = prof_config(false);
  cfg.disable_fence_elision = true;
  Harness h(4, cfg);
  const DcrStats stats =
      run_stencil(h, {.cells_per_tile = 64, .tiles = 8, .steps = 3});
  ASSERT_TRUE(stats.completed);
  const prof::Counters& g = h.prof().global();
  EXPECT_EQ(g.get(prof::GlobalCounter::ElisionProofsAttempted), 0u);
  EXPECT_EQ(g.get(prof::GlobalCounter::ElisionProofsSucceeded), 0u);
  EXPECT_EQ(g.get(prof::GlobalCounter::FencesElided), 0u);
  EXPECT_EQ(g.get(prof::GlobalCounter::FencesIssued),
            g.get(prof::GlobalCounter::FenceDecisions));
}

TEST(ProfCounters, TemplateWindowAccounting) {
  Harness h(8, prof_config(/*spans=*/true));
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 6};
  scfg.use_trace = true;
  const DcrStats stats = run_stencil(h, scfg);
  ASSERT_TRUE(stats.completed);
  expect_counter_invariants(h, stats);

  std::uint64_t hits = 0, misses = 0, closed = 0;
  for (std::uint32_t s = 0; s < h.prof().num_shards(); ++s) {
    const prof::Counters& pc = h.prof().shard(s);
    hits += pc.get(prof::Counter::TemplateWindowHits);
    misses += pc.get(prof::Counter::TemplateWindowMisses);
    closed += pc.get(prof::Counter::WindowsClosed);
  }
  EXPECT_EQ(hits + misses, closed);
  EXPECT_GT(hits, 0u);    // steady state replays
  EXPECT_GT(misses, 0u);  // capture + validation iterations
  // No recovery in this run, so every hit is exactly one whole-window replay.
  EXPECT_EQ(hits, stats.template_replays);
  EXPECT_GT(h.prof().total(prof::Counter::TracedCoarseOps), 0u);
}

// ----------------------------------------------------------- span timeline

TEST(ProfSpans, OffByDefaultOnWhenRequested) {
  {
    Harness h(4, prof_config(/*spans=*/false));
    ASSERT_TRUE(run_stencil(h, {.cells_per_tile = 64, .tiles = 8, .steps = 3}).completed);
    EXPECT_EQ(h.runtime.ledger(), nullptr);
    // ...but the counters were live the whole time.
    EXPECT_GT(h.prof().global().get(prof::GlobalCounter::FenceDecisions), 0u);
  }
  {
    Harness h(4, prof_config(/*spans=*/true));
    ASSERT_TRUE(run_stencil(h, {.cells_per_tile = 64, .tiles = 8, .steps = 3}).completed);
    ASSERT_NE(h.runtime.ledger(), nullptr);
    EXPECT_FALSE(h.spans().empty());
  }
}

TEST(ProfSpans, WellFormedAndStrictlyNestedPerTrack) {
  Harness h(8, prof_config(/*spans=*/true));
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 5};
  scfg.use_trace = true;
  ASSERT_TRUE(run_stencil(h, scfg).completed);
  const std::vector<prof::Span>& spans = h.spans();
  ASSERT_FALSE(spans.empty());

  // Group by (shard, lane) — the Chrome-trace track — and require the spans
  // on each track to form a forest: sorted by (start asc, end desc), every
  // span either starts after the enclosing one ends or closes inside it.
  struct Key {
    std::uint32_t shard;
    prof::Lane lane;
    bool operator<(const Key& o) const {
      return shard != o.shard ? shard < o.shard : lane < o.lane;
    }
  };
  std::map<Key, std::vector<prof::Span>> tracks;
  for (const prof::Span& s : spans) {
    EXPECT_GE(s.end, s.start) << prof::name(s.kind);
    EXPECT_LT(s.shard, h.prof().num_shards());
    tracks[{s.shard, s.lane}].push_back(s);
  }
  for (auto& [key, track] : tracks) {
    std::sort(track.begin(), track.end(), [](const prof::Span& a, const prof::Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<SimTime> stack;  // enclosing span end times
    for (const prof::Span& s : track) {
      while (!stack.empty() && stack.back() <= s.start) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(s.end, stack.back())
            << prof::name(s.kind) << " straddles its enclosing span on shard "
            << key.shard << " lane " << prof::name(key.lane);
      }
      stack.push_back(s.end);
    }
  }

  // The traced stencil exercises every span kind except recovery.
  std::set<prof::SpanKind> kinds;
  for (const prof::Span& s : spans) kinds.insert(s.kind);
  EXPECT_TRUE(kinds.count(prof::SpanKind::CoarseAnalysis));
  EXPECT_TRUE(kinds.count(prof::SpanKind::CoarseReplay));
  EXPECT_TRUE(kinds.count(prof::SpanKind::FineAnalysis));
  EXPECT_TRUE(kinds.count(prof::SpanKind::FineReplay));
  EXPECT_TRUE(kinds.count(prof::SpanKind::TraceWindow));
  EXPECT_TRUE(kinds.count(prof::SpanKind::ExecutionFence));
}

TEST(ProfSpans, ChromeTraceSchemaValid) {
  Harness h(4, prof_config(/*spans=*/true));
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 8, .steps = 4};
  scfg.use_trace = true;
  ASSERT_TRUE(run_stencil(h, scfg).completed);
  std::ostringstream os;
  prof::write_chrome_trace(os, h.prof().num_shards(), h.spans());
  const std::vector<std::string> errors = prof::validate_chrome_trace(os.str());
  for (const std::string& e : errors) ADD_FAILURE() << e;
  // And the validator is not vacuous: a malformed document fails.
  EXPECT_FALSE(prof::validate_chrome_trace("{\"traceEvents\": 3}").empty());
  EXPECT_FALSE(prof::validate_chrome_trace("[1,2]").empty());
  EXPECT_FALSE(
      prof::validate_chrome_trace(
          "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"pid\":0,\"tid\":0}]}")
          .empty());  // "X" event missing ts/dur
}

TEST(ProfReport, CriticalPathAndKindTotals) {
  Harness h(4, prof_config(/*spans=*/true));
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 8, .steps = 4};
  scfg.use_trace = true;
  const DcrStats stats = run_stencil(h, scfg);
  ASSERT_TRUE(stats.completed);
  const prof::Report report = prof::build_report(h.spans());
  ASSERT_FALSE(report.by_kind.empty());
  // Kind totals are sorted descending and cover every recorded span.
  std::uint64_t spans_in_kinds = 0;
  for (std::size_t i = 0; i < report.by_kind.size(); ++i) {
    spans_in_kinds += report.by_kind[i].count;
    if (i > 0) {
      EXPECT_LE(report.by_kind[i].inclusive_ns, report.by_kind[i - 1].inclusive_ns);
    }
  }
  EXPECT_EQ(spans_in_kinds, h.spans().size());
  // The critical path is a chain: ordered, non-overlapping, weight == total.
  ASSERT_GT(report.critical_path_ns, 0u);
  EXPECT_LE(report.critical_path_ns, stats.makespan);
  SimTime chain_weight = 0;
  for (std::size_t i = 0; i < report.critical_chain.size(); ++i) {
    chain_weight += report.critical_chain[i].end - report.critical_chain[i].start;
    if (i > 0) {
      EXPECT_GE(report.critical_chain[i].start, report.critical_chain[i - 1].end);
    }
  }
  EXPECT_EQ(chain_weight, report.critical_path_ns);
  EXPECT_FALSE(report.per_iteration.empty());
  // Rendering is exercised for coverage (content is for humans).
  std::ostringstream os;
  prof::render_report(os, h.prof(), report);
  EXPECT_NE(os.str().find("critical path"), std::string::npos);
}

// ------------------------------------------------------------- determinism

TEST(ProfDeterminism, IdenticalSeededRunsProduceIdenticalSnapshots) {
  Philox4x32 rng(fuzz::seed_for_label("prof", 7), /*stream=*/11);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
  auto snapshot = [&] {
    Harness h(3, prof_config(/*spans=*/true));
    const FunctionId fn = h.functions.register_simple("t", us(1), 1.0);
    const DcrStats stats =
        h.runtime.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
    EXPECT_TRUE(stats.completed);
    // Volatile fields kept: even the time-valued counters must reproduce.
    return snapshot_of(h, /*zero_volatile=*/false);
  };
  const std::string a = snapshot();
  const std::string b = snapshot();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(prof::parse_json(a).ok());
}

// -------------------------------------------------------- prof-vs-spy check

// Acceptance criterion: the profiler's online ledger reproduces the
// fence/elision counts the spy trace (the offline verifier's input) records
// for the same run.
TEST(ProfMatchesSpy, FenceAndElisionCountsAgree) {
  Harness h(8, prof_config(/*spans=*/true, /*trace=*/true));
  StencilConfig scfg{.cells_per_tile = 64, .tiles = 16, .steps = 4};
  scfg.use_trace = true;
  const DcrStats stats = run_stencil(h, scfg);
  ASSERT_TRUE(stats.completed);
  const spy::Trace* trace = h.runtime.trace();
  ASSERT_NE(trace, nullptr);
  std::uint64_t spy_issued = 0, spy_elided = 0;
  for (const spy::CoarseDepRecord& d : trace->coarse_deps) {
    (d.elided ? spy_elided : spy_issued)++;
  }
  const prof::Counters& g = h.prof().global();
  EXPECT_EQ(g.get(prof::GlobalCounter::FencesIssued), spy_issued);
  EXPECT_EQ(g.get(prof::GlobalCounter::FencesElided), spy_elided);
  EXPECT_EQ(g.get(prof::GlobalCounter::FenceDecisions), spy_issued + spy_elided);
  // And the trace itself is clean (elision audit, graph ≡ DEPseq, races).
  const spy::VerifyReport report = spy::verify(*trace);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// ---------------------------------------------------------- golden snapshot

TEST(ProfGolden, StencilCounterSnapshot) {
  Harness h(8, prof_config(/*spans=*/true));
  StencilConfig scfg{.cells_per_tile = 4, .tiles = 8, .steps = 3};
  scfg.use_trace = true;
  ASSERT_TRUE(run_stencil(h, scfg).completed);
  // Volatile (cost-model-derived) fields are zeroed so retuning analysis
  // costs does not churn the golden; structural counts must match exactly.
  const std::string actual = snapshot_of(h, /*zero_volatile=*/true);
  const std::string path = std::string(DCR_GOLDEN_DIR) + "/stencil_prof.json";

  const char* update = std::getenv("DCR_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) != "" && std::string(update) != "0") {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    std::printf("[golden] regenerated %s\n", path.c_str());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << "; generate with DCR_UPDATE_GOLDEN=1";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), actual)
      << "counter snapshot diverges from " << path
      << " (intentional change? regenerate with DCR_UPDATE_GOLDEN=1)";
}

// -------------------------------------------------------------- seed audit

// Every (label, stream) pair used by a fuzz suite in tests/.  A collision
// would make two suites sweep the same program space and silently halve
// coverage; keep this list in sync with tests/README.md.
TEST(SeedAudit, AllSuiteLabelsProduceDistinctSeeds) {
  const char* labels[] = {"spy",        "faults", "faults-plan", "template",
                          "prof",       "prof-plan", "scope",    "scope-plan",
                          "scope-threads", "sdc",  "statics", "exec",
                          "exec-loop",  "exec-noelide", "exec-ledger",
                          "trace_id",   "trace_id-faults", "trace_id-threads"};
  constexpr std::uint64_t kIndices = 256;  // superset of every suite's range
  std::set<std::uint64_t> seen;
  for (const char* label : labels) {
    for (std::uint64_t i = 0; i < kIndices; ++i) {
      const std::uint64_t seed = fuzz::seed_for_label(label, i);
      EXPECT_TRUE(seen.insert(seed).second)
          << "seed collision: label '" << label << "' index " << i;
    }
  }
  EXPECT_EQ(seen.size(), std::size(labels) * kIndices);
}

// ------------------------------------------------ profile-on/off fuzz sweep

// 100 label-seeded loop programs (templates on) run under fault injection
// with profiling on and off.  Profiling is host-side only, so the on/off
// pair must be indistinguishable in virtual time: identical makespan,
// identical counter snapshot, same realized partial order — and both match
// the fault-free reference graph.  Counter invariants must survive the
// recovery-epoch bump.
class ProfFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfFuzz, ProfilingNeverPerturbsExecution) {
  const std::uint64_t seed = GetParam();
  Philox4x32 rng(fuzz::seed_for_label("prof", seed), /*stream=*/11);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
  const std::size_t nodes = 3;

  // Fault-free reference: graph + makespan (profiled; the spy sweep in
  // ProfMatchesSpy covers trace verification, keep the fuzz body lean).
  SimTime fault_free_makespan = 0;
  rt::TaskGraph reference;
  {
    Harness h(nodes, prof_config(/*spans=*/true, /*trace=*/false, /*graph=*/true));
    const FunctionId fn = h.functions.register_simple("t", us(1), 1.0);
    const DcrStats stats =
        h.runtime.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
    ASSERT_TRUE(stats.completed) << "seed " << seed << ": " << stats.abort_message;
    expect_counter_invariants(h, stats);
    fault_free_makespan = stats.makespan;
    reference = h.runtime.realized_graph().transitive_closure();
  }
  ASSERT_TRUE(reference.is_acyclic());

  // Same program under the same fault plan (drops + one mid-run crash),
  // once with profiling off and once with it on.
  auto faulted = [&](bool profile, DcrStats* stats_out, std::string* snap_out) {
    sim::FaultConfig fcfg;
    fcfg.seed = fuzz::seed_for_label("prof-plan", seed);
    fcfg.drop_rate = 0.005;
    const NodeId victim(static_cast<std::uint32_t>(1 + seed % (nodes - 1)));
    fcfg.crashes.push_back({victim, fault_free_makespan * (1 + seed % 3) / 4});

    sim::Machine machine(cluster(nodes));
    sim::FaultPlan plan(fcfg);
    machine.install_faults(plan);
    FunctionRegistry functions;
    DcrRuntime rt(machine, functions,
                  prof_config(profile, /*trace=*/false, /*graph=*/true));
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    *stats_out = rt.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
    ASSERT_TRUE(stats_out->completed)
        << "seed " << seed << " profile=" << profile << ": "
        << stats_out->abort_message;
    {
      std::ostringstream os;
      rt.profiler().write_snapshot_json(os, /*zero_volatile=*/false);
      *snap_out = os.str();
    }
    EXPECT_TRUE(
        reference.same_partial_order(rt.realized_graph().transitive_closure()))
        << "seed " << seed << " profile=" << profile;
    // Invariants across the recovery-epoch bump: a replacement shard
    // re-closes windows during fast-forward, but the ledgers stay balanced.
    const prof::Counters& g = rt.profiler().global();
    EXPECT_EQ(g.get(prof::GlobalCounter::FencesIssued) +
                  g.get(prof::GlobalCounter::FencesElided),
              g.get(prof::GlobalCounter::FenceDecisions))
        << "seed " << seed;
    for (std::uint32_t s = 0; s < rt.profiler().num_shards(); ++s) {
      const prof::Counters& pc = rt.profiler().shard(s);
      EXPECT_EQ(pc.get(prof::Counter::TemplateWindowHits) +
                    pc.get(prof::Counter::TemplateWindowMisses),
                pc.get(prof::Counter::WindowsClosed))
          << "seed " << seed << " shard " << s;
    }
    EXPECT_EQ(g.get(prof::GlobalCounter::Recoveries), 1u) << "seed " << seed;
    EXPECT_GE(g.get(prof::GlobalCounter::RecoveryEpochs), 1u) << "seed " << seed;
  };

  DcrStats stats_off, stats_on;
  std::string snap_off, snap_on;
  faulted(/*profile=*/false, &stats_off, &snap_off);
  faulted(/*profile=*/true, &stats_on, &snap_on);
  EXPECT_EQ(stats_off.makespan, stats_on.makespan) << "seed " << seed;
  // Counters are a pure function of the (deterministic) execution; the
  // profile knob only gates span recording.
  EXPECT_EQ(snap_off, snap_on) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfFuzz, ::testing::Range<std::uint64_t>(0, 100));

}  // namespace
}  // namespace dcr::core
