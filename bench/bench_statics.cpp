// Static interference analysis: fine-stage savings and decision identity.
//
// Three sweeps on the 64-shard stencil (256 tiles, so every shard owns a fat
// slice of each launch):
//
//  A. Fine-analysis cost, untraced — with statics on, every proven launch
//     charges O(1) fine analysis instead of walking its owned points.
//     Acceptance gate: FineAnalysisNs(off) >= 2x FineAnalysisNs(on), with
//     identical makespan semantics (same fence counts, same task counts, and
//     a makespan no worse than the off-run).
//
//  B. Task-graph equivalence — statics never changes a dependence decision:
//     spy::graph_equivalent between the on- and off-runs, plus a paranoid run
//     with the enumerated oracle armed (DCR_CHECK cross-checks every verdict)
//     that must complete cleanly.
//
//  C. Template interplay, traced — dependence templates already collapse the
//     steady-state cost; statics must still pay off on the untraced fraction
//     (capture/validate iterations) without double-discounting replays.
//
// Results go to BENCH_statics.json; exit 1 on any violation.
// --check-baseline FILE [--threshold PCT]: regression watchdog against the
// committed baseline, as in bench_prof/bench_scope/bench_sdc.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"
#include "prof/profiler.hpp"
#include "spy/verify.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShards = 64;
constexpr std::size_t kTiles = 4 * kShards;
constexpr std::size_t kSteps = 10;

struct RunResult {
  core::DcrStats stats;
  double wall_ms = 0;
  spy::Trace trace;  // populated when record_trace is on
  std::uint64_t fine_ns = 0;
  std::uint64_t fine_points = 0;
  std::uint64_t skip_ops = 0;
  std::uint64_t skip_points = 0;
  std::uint64_t saved_ns = 0;
};

RunResult run(bool statics_on, bool use_trace, bool check = false,
              bool record_trace = false) {
  sim::Machine machine(bench::cluster(kShards));
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  core::DcrConfig cfg;
  cfg.static_analysis = statics_on;
  cfg.statics_check = check;
  cfg.record_trace = record_trace;
  core::DcrRuntime rt(machine, functions, cfg);
  const auto main_fn = apps::make_stencil_app(
      {.cells_per_tile = 64, .tiles = kTiles, .steps = kSteps, .use_trace = use_trace},
      fns);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.stats = rt.execute(main_fn);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (record_trace && rt.trace() != nullptr) r.trace = *rt.trace();
  const prof::Profiler& prof = rt.profiler();
  r.fine_ns = prof.total(prof::Counter::FineAnalysisNs);
  r.fine_points = prof.total(prof::Counter::FinePoints);
  r.skip_ops = prof.total(prof::Counter::StaticSkipOps);
  r.skip_points = prof.total(prof::Counter::StaticSkipPoints);
  r.saved_ns = prof.total(prof::Counter::StaticSkipSavedNs);
  return r;
}

int sweep_fine_cost(bench::JsonDump& json) {
  bench::header("STATICS A", "fine-analysis cost, untraced (stencil, 64 shards)",
                "proven launches charge O(1) fine analysis: "
                "FineAnalysisNs must drop >= 2x with identical decisions");
  int rc = 0;
  const RunResult off = run(/*statics_on=*/false, /*use_trace=*/false);
  const RunResult on = run(/*statics_on=*/true, /*use_trace=*/false);
  DCR_CHECK(off.stats.completed && on.stats.completed);
  const double ratio =
      on.fine_ns > 0 ? static_cast<double>(off.fine_ns) / static_cast<double>(on.fine_ns)
                     : 0.0;

  bench::Table table("config");
  table.add_series("fine_ms");
  table.add_series("makespan_us");
  table.add_series("skip_ops");
  table.add_series("skip_points");
  table.add_row(0, {static_cast<double>(off.fine_ns) / 1e6,
                    static_cast<double>(off.stats.makespan) / 1e3, 0.0, 0.0});
  table.add_row(1, {static_cast<double>(on.fine_ns) / 1e6,
                    static_cast<double>(on.stats.makespan) / 1e3,
                    static_cast<double>(on.skip_ops),
                    static_cast<double>(on.skip_points)});
  table.print();
  std::printf("  fine-analysis reduction: %.2fx (saved %.2f ms virtual)\n", ratio,
              static_cast<double>(on.saved_ns) / 1e6);

  if (ratio < 2.0) {
    std::printf("  !! fine-analysis reduction %.2fx below the 2x acceptance bar\n",
                ratio);
    rc = 1;
  }
  if (on.stats.fences_inserted != off.stats.fences_inserted ||
      on.stats.fences_elided != off.stats.fences_elided ||
      on.stats.point_tasks_launched != off.stats.point_tasks_launched) {
    std::printf("  !! statics changed a decision (fences %llu/%llu vs %llu/%llu)\n",
                static_cast<unsigned long long>(on.stats.fences_inserted),
                static_cast<unsigned long long>(on.stats.fences_elided),
                static_cast<unsigned long long>(off.stats.fences_inserted),
                static_cast<unsigned long long>(off.stats.fences_elided));
    rc = 1;
  }
  if (on.stats.makespan > off.stats.makespan) {
    std::printf("  !! statics-on makespan regressed\n");
    rc = 1;
  }
  json.record("statics_fine_cost",
              {{"shards", static_cast<double>(kShards)},
               {"tiles", static_cast<double>(kTiles)},
               {"fine_ns_off", static_cast<double>(off.fine_ns)},
               {"fine_ns_on", static_cast<double>(on.fine_ns)},
               {"reduction_x", ratio},
               {"skip_ops", static_cast<double>(on.skip_ops)},
               {"skip_points", static_cast<double>(on.skip_points)},
               {"resolved_ops", static_cast<double>(on.stats.statics_resolved_ops)},
               {"unresolved_ops", static_cast<double>(on.stats.statics_unresolved_ops)},
               {"cache_hits", static_cast<double>(on.stats.statics_cache_hits)},
               {"makespan_off_us", static_cast<double>(off.stats.makespan) / 1e3},
               {"makespan_on_us", static_cast<double>(on.stats.makespan) / 1e3},
               {"wall_off_ms", off.wall_ms},
               {"wall_on_ms", on.wall_ms}});
  return rc;
}

int sweep_equivalence(bench::JsonDump& json) {
  bench::header("STATICS B", "task-graph equivalence (spy audit + oracle)",
                "statics on realizes exactly the statics-off task graph; the "
                "paranoid enumerated oracle accepts every verdict");
  int rc = 0;
  const RunResult off =
      run(/*statics_on=*/false, /*use_trace=*/false, false, /*record_trace=*/true);
  const RunResult on =
      run(/*statics_on=*/true, /*use_trace=*/false, false, /*record_trace=*/true);
  // The paranoid run DCR_CHECK-aborts on any unsound verdict.
  const RunResult paranoid = run(/*statics_on=*/true, /*use_trace=*/false,
                                 /*check=*/true);
  DCR_CHECK(off.stats.completed && on.stats.completed && paranoid.stats.completed);
  std::string why;
  const bool eq = spy::graph_equivalent(off.trace, on.trace, &why);
  if (!eq) std::printf("  !! equivalence: %s\n", why.c_str());
  std::printf("  off vs on: %s (%zu tasks, %zu edges); oracle-checked run: %s\n",
              eq ? "equivalent" : "DIFFER", off.trace.tasks.size(),
              off.trace.edges.size(),
              paranoid.stats.completed ? "clean" : "FAILED");
  if (!eq) rc = 1;
  json.record("statics_equivalence",
              {{"tasks", static_cast<double>(off.trace.tasks.size())},
               {"edges", static_cast<double>(off.trace.edges.size())},
               {"equivalent", eq ? 1.0 : 0.0},
               {"oracle_clean", paranoid.stats.completed ? 1.0 : 0.0},
               {"oracle_skip_ops", static_cast<double>(paranoid.skip_ops)}});
  return rc;
}

int sweep_traced(bench::JsonDump& json) {
  bench::header("STATICS C", "template interplay, traced",
                "replays keep their own reduced costs (no double discount); "
                "statics still pays off on capture/validate iterations");
  int rc = 0;
  const RunResult off = run(/*statics_on=*/false, /*use_trace=*/true);
  const RunResult on = run(/*statics_on=*/true, /*use_trace=*/true);
  DCR_CHECK(off.stats.completed && on.stats.completed);
  const double ratio =
      on.fine_ns > 0 ? static_cast<double>(off.fine_ns) / static_cast<double>(on.fine_ns)
                     : 0.0;
  std::printf("  traced fine ns: off %.2f ms, on %.2f ms (%.2fx); replays %llu\n",
              static_cast<double>(off.fine_ns) / 1e6,
              static_cast<double>(on.fine_ns) / 1e6, ratio,
              static_cast<unsigned long long>(on.stats.template_replays));
  if (on.stats.template_replays == 0 || on.skip_ops == 0) {
    std::printf("  !! expected both template replays and static skips\n");
    rc = 1;
  }
  if (ratio < 1.0) {
    std::printf("  !! statics made the traced run's analysis more expensive\n");
    rc = 1;
  }
  if (on.stats.point_tasks_launched != off.stats.point_tasks_launched) {
    std::printf("  !! statics changed the traced run's task count\n");
    rc = 1;
  }
  json.record("statics_traced",
              {{"fine_ns_off", static_cast<double>(off.fine_ns)},
               {"fine_ns_on", static_cast<double>(on.fine_ns)},
               {"reduction_x", ratio},
               {"replays", static_cast<double>(on.stats.template_replays)},
               {"skip_ops", static_cast<double>(on.skip_ops)}});
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BaselineCheck baseline = bench::parse_baseline_flags(argc, argv);
  bench::JsonDump json("BENCH_statics.json");
  int rc = 0;
  rc |= sweep_fine_cost(json);
  rc |= sweep_equivalence(json);
  rc |= sweep_traced(json);
  json.close();
  std::printf("\nwrote BENCH_statics.json\n");

  if (!baseline.passes("BENCH_statics.json")) rc = 1;
  return rc;
}
