// Figure 13: scaling of the circuit simulation benchmark (paper §5.1).
//
//   (a) weak scaling — throughput per node (wires/s): "significantly better
//       with DCR than without"; DCR slightly under SCR to 256 nodes, and at
//       512 nodes DCR edges SCR out as it better analyzes the increasingly
//       complex communication of the small-diameter graph.
//   (b) strong scaling — total throughput (wires/s).
//
// The graph partition (ghost spans) is computed dynamically from the
// replicated RNG — the property that makes this app hard for static
// approaches.
#include <cstdio>
#include <fstream>

#include "apps/circuit.hpp"
#include "baselines/central.hpp"
#include "baselines/scr.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"
#include "prof/trace_event.hpp"
#include "scope/report.hpp"

namespace {

using namespace dcr;
using apps::CircuitConfig;

constexpr double kNsPerElem = 5.0;
constexpr std::size_t kSteps = 10;

// --profile: record dcr-prof spans in the DCR runs and dump the 64-node weak
// scaling run as Chrome trace JSON (fig13_circuit_64.prof.json, Perfetto).
// --scope: additionally trace causality and dump that run's fence blame
// report (fig13_circuit_64.blame.json).
bench::Flags g_flags;

SimTime run_dcr(std::size_t nodes, const CircuitConfig& cfg, bool scr) {
  sim::Machine machine(bench::cluster(nodes));
  core::FunctionRegistry functions;
  const auto fns = apps::register_circuit_functions(functions, kNsPerElem);
  core::DcrConfig dcfg = scr ? baselines::scr_config() : core::DcrConfig{};
  bench::apply_flags(g_flags, dcfg);
  core::DcrRuntime rt(machine, functions, dcfg);
  const auto stats = rt.execute(apps::make_circuit_app(cfg, fns));
  DCR_CHECK(stats.completed && !stats.determinism_violation);
  if (g_flags.profile && !scr && nodes == 64) {
    std::ofstream out("fig13_circuit_64.prof.json");
    const scope::Recorder& ledger = *rt.ledger();
    prof::write_chrome_trace(out, ledger.num_shards(), ledger.spans());
    std::printf("  [prof] 64-node DCR run: %zu spans -> fig13_circuit_64.prof.json\n",
                ledger.spans().size());
  }
  if (g_flags.scope && !scr && nodes == 64) {
    const scope::BlameReport blame = scope::build_blame(*rt.scope(), rt.profiler());
    std::ofstream out("fig13_circuit_64.blame.json");
    scope::write_blame_json(out, blame);
    std::printf("  [scope] 64-node DCR run: %zu fences, %s"
                " -> fig13_circuit_64.blame.json\n",
                blame.fences.size(),
                blame.reconciled() ? "ledgers reconcile" : "LEDGER MISMATCH");
  }
  return stats.makespan;
}

SimTime run_central(std::size_t nodes, const CircuitConfig& cfg) {
  sim::Machine machine(bench::cluster(nodes));
  core::FunctionRegistry functions;
  const auto fns = apps::register_circuit_functions(functions, kNsPerElem);
  baselines::CentralConfig ccfg;
  ccfg.analysis_cost_per_task = us(20);
  baselines::CentralRuntime rt(machine, functions, ccfg);
  return rt.execute(apps::make_circuit_app(cfg, fns)).makespan;
}

}  // namespace

int main(int argc, char** argv) {
  g_flags = bench::parse_flags(argc, argv);
  const std::size_t kScales[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};

  bench::header("Figure 13a", "circuit weak scaling (throughput per node, wires/s)",
                "No-CR decays; DCR ~flat, within a few % of SCR");
  {
    bench::Table table("nodes");
    table.add_series("no_cr");
    table.add_series("scr");
    table.add_series("dcr");
    for (std::size_t n : kScales) {
      CircuitConfig cfg{.nodes_per_piece = 20000, .wires_per_piece = 80000, .pieces = n,
                        .steps = kSteps};
      const double wires = static_cast<double>(cfg.wires_per_piece) *
                           static_cast<double>(n) * static_cast<double>(kSteps);
      table.add_row(static_cast<double>(n),
                    {bench::per_second(wires, run_central(n, cfg)) / static_cast<double>(n),
                     bench::per_second(wires, run_dcr(n, cfg, true)) / static_cast<double>(n),
                     bench::per_second(wires, run_dcr(n, cfg, false)) / static_cast<double>(n)});
    }
    table.print();
  }

  bench::header("Figure 13b", "circuit strong scaling (total throughput, wires/s)",
                "all rise then roll over; No-CR first");
  {
    bench::Table table("nodes");
    table.add_series("no_cr");
    table.add_series("scr");
    table.add_series("dcr");
    const std::int64_t total_wires = 1'000'000;
    for (std::size_t n : kScales) {
      CircuitConfig cfg{.nodes_per_piece = total_wires / 4 / static_cast<std::int64_t>(n),
                        .wires_per_piece = total_wires / static_cast<std::int64_t>(n),
                        .pieces = n, .steps = kSteps};
      const double wires = static_cast<double>(total_wires) * static_cast<double>(kSteps);
      table.add_row(static_cast<double>(n),
                    {bench::per_second(wires, run_central(n, cfg)),
                     bench::per_second(wires, run_dcr(n, cfg, true)),
                     bench::per_second(wires, run_dcr(n, cfg, false))});
    }
    table.print();
  }
  return 0;
}
