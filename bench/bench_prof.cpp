// dcr-prof overhead and fidelity: profiling must be effectively free.
//
// Counters are always on (relaxed atomic bumps on the host); the span
// timeline is gated by DcrConfig::profile.  Everything is host-side
// bookkeeping that charges no virtual time, so two invariants must hold:
//
//   1. makespan(profile on) == makespan(profile off)  — bit-identical, the
//      simulated execution cannot observe the profiler;
//   2. wall-clock overhead of profile-on < 5% on the 64-shard stencil
//      (min over interleaved reps, which cancels machine noise).
//
// Plus the acceptance cross-check: the profiler's online fence/elision
// ledger must reproduce the counts the spy trace records for the same run.
// Results go to BENCH_prof.json; exit 1 on any violation.
//
// --check-baseline FILE [--threshold PCT]: after writing BENCH_prof.json,
// run the dcr-scope regression watchdog against the committed baseline and
// fail (exit 1) on any threshold breach, so perf regressions die loudly in
// CI instead of silently rebasing the JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"
#include "spy/trace.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShards = 64;
constexpr std::size_t kSteps = 10;
constexpr int kReps = 7;

struct RunResult {
  core::DcrStats stats;
  double wall_ms = 0;
  std::uint64_t fences_issued = 0;
  std::uint64_t fences_elided = 0;
  std::uint64_t decisions = 0;
  std::uint64_t spans = 0;
  std::uint64_t spy_issued = 0;
  std::uint64_t spy_elided = 0;
};

RunResult run(bool profile, bool record_trace) {
  sim::Machine machine(bench::cluster(kShards));
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  core::DcrConfig cfg;
  cfg.profile = profile;
  cfg.record_trace = record_trace;
  core::DcrRuntime rt(machine, functions, cfg);
  apps::StencilConfig scfg{.cells_per_tile = 500, .tiles = kShards, .steps = kSteps};
  scfg.use_trace = true;  // steady-state replay, the regime that matters
  const auto main_fn = apps::make_stencil_app(scfg, fns);

  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.stats = rt.execute(main_fn);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const prof::Counters& g = rt.profiler().global();
  r.fences_issued = g.get(prof::GlobalCounter::FencesIssued);
  r.fences_elided = g.get(prof::GlobalCounter::FencesElided);
  r.decisions = g.get(prof::GlobalCounter::FenceDecisions);
  r.spans = rt.ledger() != nullptr ? rt.ledger()->spans().size() : 0;
  if (const spy::Trace* trace = rt.trace()) {
    for (const auto& d : trace->coarse_deps) (d.elided ? r.spy_elided : r.spy_issued)++;
  }
  DCR_CHECK(r.stats.completed && !r.stats.determinism_violation);
  return r;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BaselineCheck baseline = bench::parse_baseline_flags(argc, argv);
  bench::JsonDump json("BENCH_prof.json");
  bench::header("Prof", "dcr-prof overhead (stencil, 64 shards, templates on)",
                "profile-on wall time within 5% of profile-off; identical makespan; "
                "fence ledger matches the spy trace");
  int rc = 0;

  // Interleave on/off reps so drift (thermal, scheduler) hits both equally.
  std::vector<double> wall_off, wall_on;
  SimTime makespan_off = 0, makespan_on = 0;
  std::uint64_t spans = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const RunResult off = run(/*profile=*/false, /*record_trace=*/false);
    const RunResult on = run(/*profile=*/true, /*record_trace=*/false);
    wall_off.push_back(off.wall_ms);
    wall_on.push_back(on.wall_ms);
    makespan_off = off.stats.makespan;
    makespan_on = on.stats.makespan;
    spans = on.spans;
    if (off.stats.makespan != on.stats.makespan) {
      std::printf("  !! rep %d: makespan differs with profiling on (%llu vs %llu ns)\n",
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
  std::printf("  makespan %.3f ms (identical on/off: %s), %llu spans recorded\n",
              static_cast<double>(makespan_on) / 1e6,
              makespan_off == makespan_on ? "yes" : "NO",
              static_cast<unsigned long long>(spans));
  if (overhead_pct >= 5.0) {
    std::printf("  !! profiling overhead %.2f%% exceeds the 5%% budget\n", overhead_pct);
    rc = 1;
  }

  // Fidelity: online ledger vs the spy trace of the same (profiled) run.
  const RunResult checked = run(/*profile=*/true, /*record_trace=*/true);
  const bool ledger_ok = checked.fences_issued == checked.spy_issued &&
                         checked.fences_elided == checked.spy_elided &&
                         checked.decisions == checked.spy_issued + checked.spy_elided;
  std::printf("  fence ledger: prof issued=%llu elided=%llu | spy issued=%llu elided=%llu"
              " -> %s\n",
              static_cast<unsigned long long>(checked.fences_issued),
              static_cast<unsigned long long>(checked.fences_elided),
              static_cast<unsigned long long>(checked.spy_issued),
              static_cast<unsigned long long>(checked.spy_elided),
              ledger_ok ? "OK" : "MISMATCH");
  if (!ledger_ok) rc = 1;

  json.record("prof_overhead",
              {{"shards", static_cast<double>(kShards)},
               {"reps", static_cast<double>(kReps)},
               {"wall_off_ms_min", off_min},
               {"wall_on_ms_min", on_min},
               {"wall_off_ms_median", median_of(wall_off)},
               {"wall_on_ms_median", median_of(wall_on)},
               {"overhead_pct", overhead_pct},
               {"makespan_identical", makespan_off == makespan_on ? 1.0 : 0.0},
               {"spans", static_cast<double>(spans)}});
  json.record("prof_fidelity",
              {{"fences_issued", static_cast<double>(checked.fences_issued)},
               {"fences_elided", static_cast<double>(checked.fences_elided)},
               {"fence_decisions", static_cast<double>(checked.decisions)},
               {"spy_issued", static_cast<double>(checked.spy_issued)},
               {"spy_elided", static_cast<double>(checked.spy_elided)},
               {"ledger_ok", ledger_ok ? 1.0 : 0.0}});
  json.close();
  std::printf("\nwrote BENCH_prof.json\n");

  if (!baseline.passes("BENCH_prof.json")) rc = 1;
  return rc;
}
