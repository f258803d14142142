// dcr-scope overhead on the real-threads backend: thread-safe causal tracing
// must be cheap and must never change what executes.
//
// On the simulator the gate is bit-identical makespans; on OS threads the
// makespan is wall-clock and inherently noisy, so the structural gate moves
// to the task graph: the 64-shard traced stencil with tracing on must realize
// a spy-equivalent task graph to the same run with tracing off, and the
// wall-clock overhead of scope-on must stay under 5% (min over interleaved
// reps, which suppresses scheduler noise; the sleep-based offload work model
// from bench_exec keeps the denominator real task time rather than host
// scheduler churn on oversubscribed containers).  Plus the acceptance
// checks: every complete fence in the blame ledger names a releasing shard
// and span, and the per-shard wait sums reconcile *exactly* with dcr-prof's
// FenceWaitNs counters — the same Clock::now() reads feed both ledgers.
// Results go to BENCH_scope_threads.json; exit 1 on any violation.
//
// --check-baseline FILE [--threshold PCT]: regression watchdog against the
// committed baseline (wall-clock fields are machine-dependent and excluded
// from the diff unless --include-wall), as in bench_scope.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "exec/thread_runtime.hpp"
#include "scope/report.hpp"
#include "spy/verify.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShards = 64;
constexpr std::size_t kSteps = 10;
constexpr int kReps = 5;

struct RunResult {
  core::DcrStats stats;
  double wall_ms = 0;
  spy::Trace trace;
  std::size_t fences = 0;
  std::size_t complete = 0;
  std::size_t attributed = 0;
  std::size_t spans = 0;
  bool reconciled = false;
};

RunResult run(bool scope, bool record_trace) {
  core::FunctionRegistry functions;
  // 200µs/cell × 64 cells ≈ 12.8ms per point task: the offloaded-kernel
  // sleeps dominate the wall clock, so the overhead ratio measures scope
  // against real task time instead of against control-plane churn alone.
  const auto fns = apps::register_stencil_functions(functions, 200000.0);
  exec::ThreadConfig cfg;
  cfg.num_shards = kShards;
  cfg.work_scale = 1.0;   // wall nanoseconds = modeled nanoseconds
  cfg.work_sleep = true;  // offload model: blocked waits overlap on any host
  cfg.profile = true;
  cfg.scope = scope;
  cfg.record_trace = record_trace;
  exec::ThreadRuntime rt(functions, cfg);
  apps::StencilConfig scfg{.cells_per_tile = 64, .tiles = kShards, .steps = kSteps};
  scfg.use_trace = true;  // steady-state template replay, the regime that matters

  const auto main_fn = apps::make_stencil_app(scfg, fns);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.stats = rt.execute(main_fn);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  DCR_CHECK(r.stats.completed && !r.stats.determinism_violation);
  if (record_trace) r.trace = *rt.trace();
  if (scope) {
    const scope::BlameReport blame = scope::build_blame(*rt.scope(), rt.profiler());
    r.fences = blame.fences.size();
    r.complete = blame.complete_fences;
    r.attributed = blame.attributed;
    r.spans = rt.scope()->fine_spans_recorded();
    r.reconciled = blame.reconciled();
  }
  return r;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BaselineCheck baseline = bench::parse_baseline_flags(argc, argv);
  bench::JsonDump json("BENCH_scope_threads.json");
  bench::header("ScopeThreads",
                "dcr-scope overhead on real threads (stencil, 64 shards)",
                "scope-on wall time within 5% of scope-off; spy-identical task "
                "graphs; every fence attributed; waits reconcile with dcr-prof");
  int rc = 0;

  // Structural gate first: with tracing on and off, the realized task graphs
  // are spy-equivalent (the wall-clock analog of "identical makespans").
  {
    const RunResult off = run(/*scope=*/false, /*record_trace=*/true);
    const RunResult on = run(/*scope=*/true, /*record_trace=*/true);
    std::string why;
    const bool same = spy::graph_equivalent(off.trace, on.trace, &why);
    std::printf("  task graphs scope-on vs scope-off: %s\n",
                same ? "spy-equivalent" : why.c_str());
    if (!same) rc = 1;
    json.record("scope_threads_graph",
                {{"shards", static_cast<double>(kShards)},
                 {"graphs_identical", same ? 1.0 : 0.0}});
  }

  // Timed reps without trace recording (it would dominate the wall time).
  // Interleave on/off so drift (thermal, scheduler) hits both equally.
  std::vector<double> wall_off, wall_on;
  RunResult last_on;
  for (int rep = 0; rep < kReps; ++rep) {
    const RunResult off = run(/*scope=*/false, /*record_trace=*/false);
    const RunResult on = run(/*scope=*/true, /*record_trace=*/false);
    wall_off.push_back(off.wall_ms);
    wall_on.push_back(on.wall_ms);
    last_on = on;
  }
  const double off_min = bench::min_of(wall_off), on_min = bench::min_of(wall_on);
  const double overhead_pct = (on_min - off_min) / off_min * 100.0;

  bench::Table table("reps");
  table.add_series("off_ms(min)");
  table.add_series("on_ms(min)");
  table.add_series("off_ms(med)");
  table.add_series("on_ms(med)");
  table.add_series("overhead_%");
  table.add_row(static_cast<double>(kReps),
                {off_min, on_min, median_of(wall_off), median_of(wall_on), overhead_pct});
  table.print();
  if (overhead_pct >= 5.0) {
    std::printf("  !! tracing overhead %.2f%% exceeds the 5%% budget\n", overhead_pct);
    rc = 1;
  }

  std::printf("  blame: %zu fences (%zu complete, %zu attributed), %zu spans, "
              "wall-clock ledgers %s\n",
              last_on.fences, last_on.complete, last_on.attributed, last_on.spans,
              last_on.reconciled ? "reconcile" : "DO NOT RECONCILE");
  if (!last_on.reconciled || last_on.attributed != last_on.complete) rc = 1;

  json.record("scope_threads_overhead",
              {{"shards", static_cast<double>(kShards)},
               {"reps", static_cast<double>(kReps)},
               {"wall_off_ms_min", off_min},
               {"wall_on_ms_min", on_min},
               {"wall_off_ms_median", median_of(wall_off)},
               {"wall_on_ms_median", median_of(wall_on)},
               {"overhead_pct", overhead_pct}});
  json.record("scope_threads_fidelity",
              {{"fences", static_cast<double>(last_on.fences)},
               {"complete_fences", static_cast<double>(last_on.complete)},
               {"attributed_fences", static_cast<double>(last_on.attributed)},
               {"spans", static_cast<double>(last_on.spans)},
               {"reconciled", last_on.reconciled ? 1.0 : 0.0}});
  json.close();
  std::printf("\nwrote BENCH_scope_threads.json\n");

  if (!baseline.passes("BENCH_scope_threads.json")) rc = 1;
  return rc;
}
