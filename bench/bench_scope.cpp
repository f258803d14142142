// dcr-scope overhead and blame fidelity: causal tracing must be cheap and
// must never perturb the simulated execution.
//
// Tracing (DcrConfig::scope) is host-side bookkeeping that charges no
// virtual time, so two invariants must hold on the 64-shard traced stencil:
//
//   1. makespan(scope on) == makespan(scope off) — bit-identical;
//   2. wall-clock overhead of scope-on < 5% (min over interleaved reps).
//
// Plus the acceptance checks: every complete fence in the blame ledger names
// a releasing shard and span, and the per-shard wait sums reconcile exactly
// with dcr-prof's always-on FenceWaitNs counters (issued + elided ==
// decisions).  Results go to BENCH_scope.json; exit 1 on any violation.
//
// --check-baseline FILE [--threshold PCT]: regression watchdog against the
// committed baseline, as in bench_prof.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"
#include "scope/report.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShards = 64;
constexpr std::size_t kSteps = 10;
constexpr int kReps = 7;

struct RunResult {
  core::DcrStats stats;
  double wall_ms = 0;
  std::size_t fences = 0;
  std::size_t complete = 0;
  std::size_t attributed = 0;
  std::size_t spans = 0;
  bool reconciled = false;
};

RunResult run(bool scope) {
  sim::Machine machine(bench::cluster(kShards));
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  core::DcrConfig cfg;
  cfg.scope = scope;
  core::DcrRuntime rt(machine, functions, cfg);
  apps::StencilConfig scfg{.cells_per_tile = 500, .tiles = kShards, .steps = kSteps};
  scfg.use_trace = true;  // steady-state template replay, the regime that matters
  const auto main_fn = apps::make_stencil_app(scfg, fns);

  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.stats = rt.execute(main_fn);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  DCR_CHECK(r.stats.completed && !r.stats.determinism_violation);
  if (scope) {
    // Counters are always on, so the blame report reconciles against them
    // even without DcrConfig::profile.
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
  bench::JsonDump json("BENCH_scope.json");
  bench::header("Scope", "dcr-scope overhead (stencil, 64 shards, templates on)",
                "scope-on wall time within 5% of scope-off; identical makespan; "
                "every fence attributed; waits reconcile with dcr-prof");
  int rc = 0;

  // Interleave on/off reps so drift (thermal, scheduler) hits both equally.
  std::vector<double> wall_off, wall_on;
  SimTime makespan_off = 0, makespan_on = 0;
  RunResult last_on;
  for (int rep = 0; rep < kReps; ++rep) {
    const RunResult off = run(/*scope=*/false);
    const RunResult on = run(/*scope=*/true);
    wall_off.push_back(off.wall_ms);
    wall_on.push_back(on.wall_ms);
    makespan_off = off.stats.makespan;
    makespan_on = on.stats.makespan;
    last_on = on;
    if (off.stats.makespan != on.stats.makespan) {
      std::printf("  !! rep %d: makespan differs with tracing on (%llu vs %llu ns)\n",
                  rep, static_cast<unsigned long long>(off.stats.makespan),
                  static_cast<unsigned long long>(on.stats.makespan));
      rc = 1;
    }
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
  std::printf("  makespan %.3f ms (identical on/off: %s)\n",
              static_cast<double>(makespan_on) / 1e6,
              makespan_off == makespan_on ? "yes" : "NO");
  if (overhead_pct >= 5.0) {
    std::printf("  !! tracing overhead %.2f%% exceeds the 5%% budget\n", overhead_pct);
    rc = 1;
  }

  std::printf("  blame: %zu fences (%zu complete, %zu attributed), %zu spans, "
              "ledgers %s\n",
              last_on.fences, last_on.complete, last_on.attributed, last_on.spans,
              last_on.reconciled ? "reconcile" : "DO NOT RECONCILE");
  if (!last_on.reconciled || last_on.attributed != last_on.complete) rc = 1;

  json.record("scope_overhead",
              {{"shards", static_cast<double>(kShards)},
               {"reps", static_cast<double>(kReps)},
               {"wall_off_ms_min", off_min},
               {"wall_on_ms_min", on_min},
               {"wall_off_ms_median", median_of(wall_off)},
               {"wall_on_ms_median", median_of(wall_on)},
               {"overhead_pct", overhead_pct},
               {"makespan_identical", makespan_off == makespan_on ? 1.0 : 0.0}});
  json.record("scope_fidelity",
              {{"fences", static_cast<double>(last_on.fences)},
               {"complete_fences", static_cast<double>(last_on.complete)},
               {"attributed_fences", static_cast<double>(last_on.attributed)},
               {"spans", static_cast<double>(last_on.spans)},
               {"reconciled", last_on.reconciled ? 1.0 : 0.0}});
  json.close();
  std::printf("\nwrote BENCH_scope.json\n");

  if (!baseline.passes("BENCH_scope.json")) rc = 1;
  return rc;
}
