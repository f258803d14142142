// SDC-resilient selective replication: overhead, detection, and equivalence.
//
// Three sweeps on the 64-shard traced stencil with a per-step control-feeding
// residual reduction (the SDC-critical chain dcr/replicate protects):
//
//  A. Replication overhead with zero faults — only the residual tasks are
//     control-tainted, so duplicating them must cost <= 10% makespan (virtual
//     time, deterministic) relative to replication-off.  Wall times are
//     recorded for context but never gated (and excluded from the baseline
//     diff, like every wall/overhead key).
//
//  B. Detection and healing under seeded injection — across seeds and rates,
//     every injected corruption lands on a replicated execution whose ballot
//     is out-voted by the quorum: detected == injected (>= 99% required by
//     acceptance; with no message loss the ledger makes it exact), zero
//     determinism-violation aborts.
//
//  C. Task-graph equivalence — a replication-on run (even one that detected
//     and healed corruption) must realize exactly the task graph of a
//     replication-off run: spy::graph_equivalent over the recorded traces.
//
// Results go to BENCH_sdc.json; exit 1 on any violation.
// --check-baseline FILE [--threshold PCT]: regression watchdog against the
// committed baseline, as in bench_prof/bench_scope.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"
#include "sim/fault.hpp"
#include "spy/verify.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShards = 64;
constexpr std::size_t kSteps = 10;
constexpr int kReps = 5;

struct RunResult {
  core::DcrStats stats;
  double wall_ms = 0;
  spy::Trace trace;  // populated when record_trace is on
};

RunResult run(bool replicate, double sdc_rate, std::uint64_t seed,
              bool record_trace = false) {
  sim::Machine machine(bench::cluster(kShards));
  sim::FaultConfig fcfg;
  fcfg.seed = seed;
  fcfg.sdc.rate = sdc_rate;
  sim::FaultPlan plan(fcfg);
  if (sdc_rate > 0.0) machine.install_faults(plan);
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  core::DcrConfig cfg;
  cfg.sdc_replication = replicate;
  cfg.record_trace = record_trace;
  core::DcrRuntime rt(machine, functions, cfg);
  const auto main_fn = apps::make_stencil_app({.cells_per_tile = 500,
                                               .tiles = kShards,
                                               .steps = kSteps,
                                               .use_trace = true,
                                               .residual_every = 1},
                                              fns);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.stats = rt.execute(main_fn);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (record_trace && rt.trace() != nullptr) r.trace = *rt.trace();
  return r;
}

int sweep_overhead(bench::JsonDump& json) {
  bench::header("SDC A", "replication overhead, zero faults (stencil, 64 shards)",
                "only the control-tainted residual chain is duplicated: "
                "makespan overhead <= 10%");
  int rc = 0;
  std::vector<double> wall_off, wall_on;
  SimTime makespan_off = 0, makespan_on = 0;
  core::DcrStats last_on;
  for (int rep = 0; rep < kReps; ++rep) {
    const RunResult off = run(/*replicate=*/false, 0.0, 0);
    const RunResult on = run(/*replicate=*/true, 0.0, 0);
    DCR_CHECK(off.stats.completed && on.stats.completed);
    wall_off.push_back(off.wall_ms);
    wall_on.push_back(on.wall_ms);
    makespan_off = off.stats.makespan;
    makespan_on = on.stats.makespan;
    last_on = on.stats;
  }
  const double overhead_pct =
      (static_cast<double>(makespan_on) / static_cast<double>(makespan_off) - 1.0) *
      100.0;

  bench::Table table("reps");
  table.add_series("off_us");
  table.add_series("on_us");
  table.add_series("overhead_%");
  table.add_series("tickets");
  table.add_series("replicas");
  table.add_row(static_cast<double>(kReps),
                {static_cast<double>(makespan_off) / 1e3,
                 static_cast<double>(makespan_on) / 1e3, overhead_pct,
                 static_cast<double>(last_on.sdc_tickets),
                 static_cast<double>(last_on.sdc_replicas_issued)});
  table.print();
  if (overhead_pct > 10.0) {
    std::printf("  !! replication overhead %.2f%% exceeds the 10%% budget\n",
                overhead_pct);
    rc = 1;
  }
  if (last_on.sdc_corruptions_injected != 0 || last_on.sdc_corruptions_detected != 0) {
    std::printf("  !! fault-free run reports corruption activity\n");
    rc = 1;
  }
  json.record("sdc_overhead",
              {{"shards", static_cast<double>(kShards)},
               {"makespan_off_us", static_cast<double>(makespan_off) / 1e3},
               {"makespan_on_us", static_cast<double>(makespan_on) / 1e3},
               {"overhead_pct", overhead_pct},
               {"tainted_ops", static_cast<double>(last_on.sdc_tainted_ops)},
               {"tickets", static_cast<double>(last_on.sdc_tickets)},
               {"replicas_issued", static_cast<double>(last_on.sdc_replicas_issued)},
               {"wall_off_ms_min", bench::min_of(wall_off)},
               {"wall_on_ms_min", bench::min_of(wall_on)}});
  return rc;
}

int sweep_detection(bench::JsonDump& json) {
  bench::header("SDC B", "detection + healing under seeded injection",
                ">= 99% of injected corruptions detected and healed; no "
                "determinism-violation aborts");
  int rc = 0;
  bench::Table table("rate_%");
  table.add_series("injected");
  table.add_series("detected");
  table.add_series("healed_quorums");
  table.add_series("rounds");
  table.add_series("detect_%");
  std::uint64_t injected_total = 0, detected_total = 0;
  for (const double rate : {0.01, 0.02, 0.05}) {
    std::uint64_t injected = 0, detected = 0, healed = 0, rounds = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const RunResult r = run(/*replicate=*/true, rate, 0x5dc0 + seed);
      if (!r.stats.completed) {
        std::printf("  !! rate %.2f seed %llu: did not complete (%s)\n", rate,
                    static_cast<unsigned long long>(seed),
                    r.stats.abort_message.c_str());
        rc = 1;
        continue;
      }
      if (r.stats.determinism_violation) {
        std::printf("  !! rate %.2f seed %llu: determinism violation\n", rate,
                    static_cast<unsigned long long>(seed));
        rc = 1;
      }
      injected += r.stats.sdc_corruptions_injected;
      detected += r.stats.sdc_corruptions_detected;
      healed += r.stats.sdc_corruptions_healed;
      rounds += r.stats.sdc_quorum_rounds;
    }
    const double pct =
        injected > 0 ? 100.0 * static_cast<double>(detected) / static_cast<double>(injected)
                     : 100.0;
    table.add_row(rate * 100.0,
                  {static_cast<double>(injected), static_cast<double>(detected),
                   static_cast<double>(healed), static_cast<double>(rounds), pct});
    // Unique per rate: the baseline watchdog matches records by sweep name.
    json.record("sdc_detection_r" + std::to_string(static_cast<int>(rate * 100)),
                {{"rate", rate},
                 {"injected", static_cast<double>(injected)},
                 {"detected", static_cast<double>(detected)},
                 {"healed_quorums", static_cast<double>(healed)},
                 {"rounds", static_cast<double>(rounds)},
                 {"detect_pct", pct}});
    injected_total += injected;
    detected_total += detected;
  }
  table.print();
  if (injected_total == 0 ||
      static_cast<double>(detected_total) <
          0.99 * static_cast<double>(injected_total)) {
    std::printf("  !! detection below the 99%% acceptance bar (%llu / %llu)\n",
                static_cast<unsigned long long>(detected_total),
                static_cast<unsigned long long>(injected_total));
    rc = 1;
  }
  return rc;
}

int sweep_equivalence(bench::JsonDump& json) {
  bench::header("SDC C", "task-graph equivalence (spy audit)",
                "replication on — even while healing corruption — realizes "
                "exactly the replication-off task graph");
  int rc = 0;
  const RunResult off = run(/*replicate=*/false, 0.0, 0, /*record_trace=*/true);
  const RunResult on_clean = run(/*replicate=*/true, 0.0, 0, /*record_trace=*/true);
  const RunResult on_faulty =
      run(/*replicate=*/true, 0.05, 0x5dc0, /*record_trace=*/true);
  DCR_CHECK(off.stats.completed && on_clean.stats.completed &&
            on_faulty.stats.completed);
  std::string why;
  const bool eq_clean = spy::graph_equivalent(off.trace, on_clean.trace, &why);
  if (!eq_clean) std::printf("  !! clean equivalence: %s\n", why.c_str());
  const bool eq_faulty = spy::graph_equivalent(off.trace, on_faulty.trace, &why);
  if (!eq_faulty) std::printf("  !! faulty equivalence: %s\n", why.c_str());
  std::printf("  off vs on(clean):  %s (%zu tasks, %zu edges)\n",
              eq_clean ? "equivalent" : "DIFFER", off.trace.tasks.size(),
              off.trace.edges.size());
  std::printf("  off vs on(healed): %s (%llu corruptions healed in the on-run)\n",
              eq_faulty ? "equivalent" : "DIFFER",
              static_cast<unsigned long long>(
                  on_faulty.stats.sdc_corruptions_healed));
  if (!eq_clean || !eq_faulty) rc = 1;
  json.record("sdc_equivalence",
              {{"tasks", static_cast<double>(off.trace.tasks.size())},
               {"edges", static_cast<double>(off.trace.edges.size())},
               {"equivalent_clean", eq_clean ? 1.0 : 0.0},
               {"equivalent_healed", eq_faulty ? 1.0 : 0.0},
               {"healed_in_on_run",
                static_cast<double>(on_faulty.stats.sdc_corruptions_healed)}});
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BaselineCheck baseline = bench::parse_baseline_flags(argc, argv);
  bench::JsonDump json("BENCH_sdc.json");
  int rc = 0;
  rc |= sweep_overhead(json);
  rc |= sweep_detection(json);
  rc |= sweep_equivalence(json);
  json.close();
  std::printf("\nwrote BENCH_sdc.json\n");

  if (!baseline.passes("BENCH_sdc.json")) rc = 1;
  return rc;
}
