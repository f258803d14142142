// Figure 12: scaling of the 2-D stencil benchmark (paper §5.1).
//
//   (a) weak scaling — throughput per node, cells/s: No-CR collapses once
//       the centralized analysis cost eclipses per-node task time; SCR and
//       DCR stay flat, DCR within a few percent of SCR.
//   (b) strong scaling — total throughput: all systems rise, then roll over
//       as per-task granularity shrinks below runtime overhead; No-CR first,
//       DCR next (~64 nodes in the paper), SCR last (~128).
#include <cstdio>
#include <fstream>

#include "apps/stencil.hpp"
#include "baselines/central.hpp"
#include "baselines/scr.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"
#include "exec/thread_runtime.hpp"
#include "prof/trace_event.hpp"
#include "scope/report.hpp"

namespace {

using namespace dcr;
using apps::StencilConfig;

constexpr double kNsPerCell = 10.0;  // GPU kernel cost per cell
constexpr std::size_t kSteps = 10;

// --profile: record dcr-prof spans in the DCR runs and dump the 64-node weak
// scaling run as Chrome trace JSON (fig12_stencil_64.prof.json, Perfetto).
// --scope: additionally trace causality and dump that run's fence blame
// report (fig12_stencil_64.blame.json).
// --backend=threads: run the DCR series on exec::ThreadRuntime (one OS
// thread per shard, wall-clock makespans); the No-CR and SCR baselines are
// simulator cost models and always run on the simulator.
bench::Flags g_flags;

SimTime run_dcr_threads(std::size_t nodes, const StencilConfig& cfg) {
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, kNsPerCell);
  exec::ThreadConfig tcfg;
  tcfg.num_shards = nodes;
  tcfg.profile = g_flags.profile;
  exec::ThreadRuntime rt(functions, tcfg);
  const auto stats = rt.execute(apps::make_stencil_app(cfg, fns));
  DCR_CHECK(stats.completed && !stats.determinism_violation);
  return stats.makespan;  // wall-clock ns, not modeled time
}

SimTime run_dcr(std::size_t nodes, const StencilConfig& cfg, bool scr) {
  if (!scr && g_flags.backend == "threads") return run_dcr_threads(nodes, cfg);
  sim::Machine machine(bench::cluster(nodes));
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, kNsPerCell);
  core::DcrConfig dcfg = scr ? baselines::scr_config() : core::DcrConfig{};
  bench::apply_flags(g_flags, dcfg);
  core::DcrRuntime rt(machine, functions, dcfg);
  const auto stats = rt.execute(apps::make_stencil_app(cfg, fns));
  DCR_CHECK(stats.completed && !stats.determinism_violation);
  if (g_flags.profile && !scr && nodes == 64) {
    std::ofstream out("fig12_stencil_64.prof.json");
    const scope::Recorder& ledger = *rt.ledger();
    prof::write_chrome_trace(out, ledger.num_shards(), ledger.spans());
    std::printf("  [prof] 64-node DCR run: %zu spans -> fig12_stencil_64.prof.json\n",
                ledger.spans().size());
  }
  if (g_flags.scope && !scr && nodes == 64) {
    const scope::BlameReport blame = scope::build_blame(*rt.scope(), rt.profiler());
    std::ofstream out("fig12_stencil_64.blame.json");
    scope::write_blame_json(out, blame);
    std::printf("  [scope] 64-node DCR run: %zu fences, %s"
                " -> fig12_stencil_64.blame.json\n",
                blame.fences.size(),
                blame.reconciled() ? "ledgers reconcile" : "LEDGER MISMATCH");
  }
  return stats.makespan;
}

SimTime run_central(std::size_t nodes, const StencilConfig& cfg) {
  sim::Machine machine(bench::cluster(nodes));
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, kNsPerCell);
  baselines::CentralConfig ccfg;
  ccfg.analysis_cost_per_task = us(20);  // centralized per-task analysis + dispatch
  baselines::CentralRuntime rt(machine, functions, ccfg);
  return rt.execute(apps::make_stencil_app(cfg, fns)).makespan;
}

}  // namespace

int main(int argc, char** argv) {
  g_flags = bench::parse_flags(argc, argv);
  std::vector<std::size_t> kScales = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  if (g_flags.backend == "threads") {
    // Each shard is a real OS thread here; stop the sweep at 64 so a laptop
    // run stays bounded (and 512 threads tells you nothing a 64 doesn't).
    kScales.resize(7);
    std::printf("backend=threads: DCR series on exec::ThreadRuntime, "
                "wall-clock makespans, scales capped at 64\n");
  }

  bench::header("Figure 12a", "2-D stencil weak scaling (throughput per node, cells/s)",
                "No-CR decays with node count; SCR and DCR flat, DCR within ~2x of SCR");
  {
    bench::Table table("nodes");
    table.add_series("no_cr");
    table.add_series("scr");
    table.add_series("dcr");
    for (std::size_t n : kScales) {
      // One 316x316 (~100k cell) tile per node, near-square node grid.
      const auto [tx, ty] = apps::square_factors(n);
      StencilConfig cfg{.cells_per_tile = 316, .tiles = tx, .steps = kSteps, .dims = 2,
                        .width = 316, .tiles_y = ty};
      const double cells = 316.0 * 316.0 * static_cast<double>(n) *
                           static_cast<double>(kSteps);
      table.add_row(static_cast<double>(n),
                    {bench::per_second(cells, run_central(n, cfg)) / static_cast<double>(n),
                     bench::per_second(cells, run_dcr(n, cfg, true)) / static_cast<double>(n),
                     bench::per_second(cells, run_dcr(n, cfg, false)) / static_cast<double>(n)});
    }
    table.print();
  }

  bench::header("Figure 12b", "2-D stencil strong scaling (total throughput, cells/s)",
                "all rise then roll over: No-CR first, then DCR (~64), SCR last (~128)");
  {
    bench::Table table("nodes");
    table.add_series("no_cr");
    table.add_series("scr");
    table.add_series("dcr");
    // Fixed 500x500 global grid divided over a near-square node grid.
    const std::int64_t total_cells = 250'000;
    for (std::size_t n : kScales) {
      const auto [tx, ty] = apps::square_factors(n);
      StencilConfig cfg{.cells_per_tile = 500 / static_cast<std::int64_t>(tx),
                        .tiles = tx, .steps = kSteps, .dims = 2,
                        .width = 500 / static_cast<std::int64_t>(ty), .tiles_y = ty};
      const double cells = static_cast<double>(total_cells) * static_cast<double>(kSteps);
      table.add_row(static_cast<double>(n),
                    {bench::per_second(cells, run_central(n, cfg)),
                     bench::per_second(cells, run_dcr(n, cfg, true)),
                     bench::per_second(cells, run_dcr(n, cfg, false))});
    }
    table.print();
  }
  return 0;
}
