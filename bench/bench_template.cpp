// Dependence templates: steady-state control-plane savings.
//
// The interesting number is the *per-iteration* analysis time once a template
// is validated and replaying — the capture and validation iterations pay full
// price, so it is isolated by differencing two runs of the same program at
// N and 2N timesteps and dividing by the extra iterations:
//
//   per_iter = (analysis_busy(2N) - analysis_busy(N)) / N
//
// Reported at paper-scale shard counts {16, 64, 256} with templates on
// (StencilConfig::use_trace) and off.  Acceptance bar: >= 3x reduction at 64
// shards.  Results are printed as a table and written to BENCH_template.json.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShardCounts[] = {16, 64, 256};
constexpr std::size_t kBaseSteps = 8;  // both runs reach steady-state replay

core::DcrStats run(std::size_t shards, std::size_t steps, bool templates) {
  sim::Machine machine(bench::cluster(shards));
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  core::DcrConfig cfg;
  core::DcrRuntime rt(machine, functions, cfg);
  apps::StencilConfig scfg{.cells_per_tile = 500, .tiles = shards, .steps = steps};
  scfg.use_trace = templates;
  return rt.execute(apps::make_stencil_app(scfg, fns));
}

// Steady-state analysis time per timestep, in simulated microseconds.
double per_iter_us(std::size_t shards, bool templates, bool* ok) {
  const core::DcrStats a = run(shards, kBaseSteps, templates);
  const core::DcrStats b = run(shards, 2 * kBaseSteps, templates);
  *ok = a.completed && b.completed;
  const double delta = static_cast<double>(b.analysis_busy) -
                       static_cast<double>(a.analysis_busy);
  return delta / static_cast<double>(kBaseSteps) / 1000.0;  // ns -> us
}

}  // namespace

int main() {
  bench::JsonDump json("BENCH_template.json");
  bench::header("Template", "steady-state per-iteration analysis time (stencil)",
                "validated templates replay recorded decisions and skip "
                "re-analysis; expect >= 3x at 64 shards");
  bench::Table table("shards");
  table.add_series("off_us/iter");
  table.add_series("on_us/iter");
  table.add_series("speedup");
  int rc = 0;
  for (std::size_t shards : kShardCounts) {
    bool ok_off = false, ok_on = false;
    const double off = per_iter_us(shards, /*templates=*/false, &ok_off);
    const double on = per_iter_us(shards, /*templates=*/true, &ok_on);
    if (!ok_off || !ok_on) {
      std::printf("  !! %zu shards: run did not complete\n", shards);
      rc = 1;
      continue;
    }
    const double speedup = on > 0.0 ? off / on : 0.0;
    table.add_row(static_cast<double>(shards), {off, on, speedup});
    json.record("template_analysis",
                {{"shards", static_cast<double>(shards)},
                 {"off_analysis_us_per_iter", off},
                 {"on_analysis_us_per_iter", on},
                 {"speedup", speedup}});
    if (shards == 64 && speedup < 3.0) {
      std::printf("  !! 64 shards: speedup %.2fx below the 3x bar\n", speedup);
      rc = 1;
    }
  }
  table.print();
  std::printf("\nwrote BENCH_template.json\n");
  return rc;
}
