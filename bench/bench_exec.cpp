// Real-threads backend strong scaling: the 64-shard stencil on
// exec::ThreadRuntime, sweeping the compute-slot cap 1..64 while every shard
// runs as a real OS thread.
//
// The work model is sleep-based (ThreadConfig::work_sleep): each point task
// holds a compute slot for its modeled duration with the host thread blocked,
// as when waiting on an offloaded accelerator kernel.  Blocked waits overlap
// regardless of host core count, so the ConcurrencyGate is the only thing
// limiting task concurrency and the sweep measures genuine wall-clock strong
// scaling even on a single-core container (a busy-spin model would need as
// many cores as slots).
//
// Acceptance gate (exit 1 on failure): wall-clock speedup going from 1 to 8
// compute slots must exceed 1.5x.  Results go to BENCH_exec.json — the
// wall-derived fields carry "wall" in their key so the baseline watchdog
// skips them, while the deterministic work counters (tasks, ops, fences,
// template windows) are compared across runs.
//
// --check-baseline FILE [--threshold PCT]: regression watchdog against the
// committed baseline, as in bench_prof / bench_scope.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "exec/thread_runtime.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShards = 64;
constexpr std::size_t kSteps = 3;
constexpr std::int64_t kCellsPerTile = 20'000;
constexpr double kNsPerCell = 10.0;  // ~200us modeled kernel per stencil task
constexpr int kReps = 5;

struct RunResult {
  core::DcrStats stats;
  double wall_ms = 0;
};

RunResult run(std::uint32_t slots) {
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, kNsPerCell);
  exec::ThreadConfig cfg;
  cfg.num_shards = kShards;
  cfg.compute_slots = slots;
  cfg.work_scale = 1.0;   // wall nanoseconds = modeled nanoseconds
  cfg.work_sleep = true;  // offload model: blocked waits overlap on any host
  apps::StencilConfig scfg{.cells_per_tile = kCellsPerTile, .tiles = kShards,
                           .steps = kSteps};
  scfg.use_trace = true;  // steady-state template replay, the regime that matters
  exec::ThreadRuntime rt(functions, cfg);
  const auto main_fn = apps::make_stencil_app(scfg, fns);

  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.stats = rt.execute(main_fn);
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  DCR_CHECK(r.stats.completed && !r.stats.determinism_violation);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BaselineCheck baseline = bench::parse_baseline_flags(argc, argv);
  bench::JsonDump json("BENCH_exec.json");
  bench::header("Exec", "threads backend strong scaling (stencil, 64 shard threads)",
                "wall time falls as the compute-slot cap rises; speedup(1->8) > 1.5x");
  int rc = 0;

  const std::uint32_t kSlots[] = {1, 2, 4, 8, 16, 32, 64};
  // Interleave reps across slot counts so drift (thermal, scheduler) hits
  // every configuration equally.
  std::vector<std::vector<double>> wall(std::size(kSlots));
  RunResult last;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t i = 0; i < std::size(kSlots); ++i) {
      last = run(kSlots[i]);
      wall[i].push_back(last.wall_ms);
    }
  }

  bench::Table table("slots");
  table.add_series("wall_ms");
  table.add_series("speedup");
  table.add_series("efficiency");
  const double base_ms = bench::min_of(wall[0]);
  double speedup_8 = 0;
  for (std::size_t i = 0; i < std::size(kSlots); ++i) {
    const double ms = bench::min_of(wall[i]);
    const double speedup = base_ms / ms;
    const double efficiency = speedup / static_cast<double>(kSlots[i]);
    if (kSlots[i] == 8) speedup_8 = speedup;
    table.add_row(static_cast<double>(kSlots[i]), {ms, speedup, efficiency});
    json.record("slots_" + std::to_string(kSlots[i]),
                {{"wall_ms", ms},
                 {"wall_speedup", speedup},
                 {"wall_efficiency", efficiency},
                 {"point_tasks", static_cast<double>(last.stats.point_tasks_launched)},
                 {"ops_issued", static_cast<double>(last.stats.ops_issued)},
                 {"fences_inserted", static_cast<double>(last.stats.fences_inserted)},
                 {"fences_elided", static_cast<double>(last.stats.fences_elided)},
                 {"traced_ops", static_cast<double>(last.stats.traced_ops)},
                 {"templates_captured",
                  static_cast<double>(last.stats.templates_captured)},
                 {"template_replays",
                  static_cast<double>(last.stats.template_replays)}});
  }
  table.print();

  std::printf("\n  speedup 1 -> 8 slots: %.2fx (gate: > 1.5x)\n", speedup_8);
  if (speedup_8 <= 1.5) {
    std::printf("  FAIL: threads backend does not scale\n");
    rc = 1;
  }
  json.close();
  std::printf("  wrote BENCH_exec.json\n");

  if (!baseline.passes("BENCH_exec.json")) rc = 1;
  return rc;
}
