// Fault-tolerance overheads: what do drops and crashes cost?
//
// Two sweeps over shard counts {16, 64, 256} on the 1-D stencil:
//
//  A. Retry overhead vs drop rate — the reliable transport turns iid message
//     drops into retransmissions; the interesting number is how much virtual
//     time the retry/backoff machinery adds relative to the fault-free run
//     (which, with the fault layer disabled, is bit-identical to the seed
//     runtime).
//
//  B. Recovery latency after a whole-shard crash mid-run — time from the
//     injected crash to the lease monitor's declaration (detection), to the
//     replacement shard catching up past the committed frontier (recovery),
//     plus the end-to-end makespan penalty.
//
// Results are printed as tables and written to BENCH_faults.json.
//
// --check-baseline FILE [--threshold PCT]: regression watchdog against the
// committed baseline, as in bench_prof/bench_scope (wall-clock keys are
// excluded; virtual-time results are deterministic and compare exactly).
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"
#include "sim/fault.hpp"

namespace {

using namespace dcr;

// --profile records dcr-prof spans in the DCR runs; --scope additionally
// turns on causal tracing.  Host-side only: makespans are unchanged.
bench::Flags g_flags;

constexpr std::size_t kShardCounts[] = {16, 64, 256};
constexpr double kDropRates[] = {0.0, 0.001, 0.005, 0.01, 0.02};

apps::StencilConfig stencil_for(std::size_t shards) {
  return {.cells_per_tile = 500, .tiles = shards, .steps = 8};
}

struct RunResult {
  core::DcrStats stats;
  sim::FaultStats faults;
};

RunResult run(std::size_t shards, sim::FaultConfig fcfg, bool with_plan) {
  sim::Machine machine(bench::cluster(shards));
  sim::FaultPlan plan(fcfg);
  if (with_plan) machine.install_faults(plan);
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  core::DcrConfig dcfg;
  bench::apply_flags(g_flags, dcfg);
  core::DcrRuntime rt(machine, functions, dcfg);
  RunResult r;
  r.stats = rt.execute(apps::make_stencil_app(stencil_for(shards), fns));
  r.faults = plan.stats();
  return r;
}

void sweep_drop_rate(bench::JsonDump& json) {
  bench::header("Faults A", "retry overhead vs message drop rate (stencil)",
                "overhead grows with drop rate; zero drops == zero overhead");
  for (std::size_t shards : kShardCounts) {
    bench::Table table("drop_%");
    table.add_series("makespan_us");
    table.add_series("overhead_%");
    table.add_series("retransmits");
    table.add_series("dropped");
    double baseline = 0.0;
    for (double rate : kDropRates) {
      sim::FaultConfig fcfg;
      fcfg.seed = 0xd20b + shards;
      fcfg.drop_rate = rate;
      const RunResult r = run(shards, fcfg, /*with_plan=*/rate > 0.0);
      if (!r.stats.completed) {
        std::printf("  !! %zu shards, drop %.3f: did not complete (%s)\n", shards,
                    rate, r.stats.abort_message.c_str());
        continue;
      }
      const double makespan_us = static_cast<double>(r.stats.makespan) / 1e3;
      if (rate == 0.0) baseline = makespan_us;
      const double overhead =
          baseline > 0.0 ? (makespan_us / baseline - 1.0) * 100.0 : 0.0;
      table.add_row(rate * 100.0,
                    {makespan_us, overhead,
                     static_cast<double>(r.stats.retransmits),
                     static_cast<double>(r.stats.messages_dropped)});
      // Sweep names must be unique: the baseline watchdog matches records
      // by name, so the grid parameters go into the name itself.
      json.record("drop_rate_s" + std::to_string(shards) + "_r" +
                      std::to_string(static_cast<int>(rate * 1000)),
                  {{"shards", static_cast<double>(shards)},
                   {"drop_rate", rate},
                   {"makespan_us", makespan_us},
                   {"overhead_pct", overhead},
                   {"retransmits", static_cast<double>(r.stats.retransmits)},
                   {"messages_dropped", static_cast<double>(r.stats.messages_dropped)}});
    }
    std::printf("-- %zu shards\n", shards);
    table.print();
  }
}

void sweep_recovery(bench::JsonDump& json) {
  bench::header("Faults B", "recovery latency after one shard crash (stencil)",
                "detection bounded by lease timeout + probe budget; replay cost grows "
                "with committed prefix");
  bench::Table table("shards");
  table.add_series("detect_us");
  table.add_series("recover_us");
  table.add_series("replayed_ops");
  table.add_series("penalty_%");
  for (std::size_t shards : kShardCounts) {
    const RunResult clean = run(shards, {}, /*with_plan=*/false);
    sim::FaultConfig fcfg;
    fcfg.seed = 0xc2a5 + shards;
    fcfg.crashes.push_back({NodeId(1), clean.stats.makespan / 2});
    const RunResult r = run(shards, fcfg, /*with_plan=*/true);
    if (!r.stats.completed || r.stats.failures.size() != 1) {
      std::printf("  !! %zu shards: crash run failed (%s)\n", shards,
                  r.stats.abort_message.c_str());
      continue;
    }
    const core::FailureReport& rep = r.stats.failures[0];
    const double detect_us =
        static_cast<double>(rep.detected_at - rep.crashed_at) / 1e3;
    const double recover_us =
        static_cast<double>(rep.recovered_at - rep.detected_at) / 1e3;
    const double penalty =
        (static_cast<double>(r.stats.makespan) / static_cast<double>(clean.stats.makespan) -
         1.0) *
        100.0;
    table.add_row(static_cast<double>(shards),
                  {detect_us, recover_us, static_cast<double>(rep.committed_ops),
                   penalty});
    json.record("recovery_s" + std::to_string(shards),
                {{"shards", static_cast<double>(shards)},
                 {"detect_us", detect_us},
                 {"recover_us", recover_us},
                 {"replayed_ops", static_cast<double>(rep.committed_ops)},
                 {"replayed_calls", static_cast<double>(rep.committed_api_calls)},
                 {"makespan_penalty_pct", penalty},
                 {"clean_makespan_us", static_cast<double>(clean.stats.makespan) / 1e3},
                 {"faulty_makespan_us", static_cast<double>(r.stats.makespan) / 1e3}});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BaselineCheck baseline = bench::parse_baseline_flags(argc, argv);
  g_flags = bench::parse_flags(static_cast<int>(baseline.rest.size()), baseline.rest.data());
  bench::JsonDump json("BENCH_faults.json");
  sweep_drop_rate(json);
  sweep_recovery(json);
  json.close();
  std::printf("\nwrote BENCH_faults.json\n");

  return baseline.passes("BENCH_faults.json") ? 0 : 1;
  return 0;
}
