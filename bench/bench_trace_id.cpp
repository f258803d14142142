// Automatic trace identification: replay savings without hand windowing.
//
// The stencil's phase-changing mode alternates two loop-body shapes every
// `phase_every` steps, so one hand-placed window per phase (StencilConfig::
// use_trace) is the best a programmer can do.  The auto detector sees the
// same launch stream with no annotations; after a couple of phase cycles it
// locks onto the full A+B cycle as one maximal repeat and replays it end to
// end, phase transitions included.
//
// As in bench_template, capture/validation iterations pay full price, so the
// steady-state per-iteration analysis time is isolated by differencing runs
// at N and 2N timesteps:
//
//   per_iter = (analysis_busy(2N) - analysis_busy(N)) / N
//
// with N a whole number of phase cycles so both runs see the same phase mix.
// Reported at {16, 64} shards in three modes: untraced, hand-windowed, and
// auto-detected.  Acceptance bar: the auto speedup reaches >= 80% of the
// hand-windowed speedup at 64 shards.  Results go to BENCH_traceid.json;
// --check-baseline FILE diffs a fresh run against the committed baseline.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShardCounts[] = {16, 64};
constexpr std::size_t kPhaseEvery = 8;  // steps per phase; a cycle is 2x this
// Six full phase cycles: the detector needs ~4.5 cycles to detect, capture,
// and validate the cycle-level repeat, so steps N..2N are pure replay.
constexpr std::size_t kBaseSteps = 12 * kPhaseEvery;

enum class Mode { kOff, kHand, kAuto };

core::DcrStats run(std::size_t shards, std::size_t steps, Mode mode) {
  sim::Machine machine(bench::cluster(shards));
  core::FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  core::DcrConfig cfg;
  if (mode == Mode::kAuto) {
    cfg.auto_trace.enabled = true;
    cfg.auto_trace.min_period = 2;
    cfg.auto_trace.probe = 6;
    cfg.auto_trace.promote_periods = 1;
  }
  core::DcrRuntime rt(machine, functions, cfg);
  apps::StencilConfig scfg{.cells_per_tile = 500, .tiles = shards, .steps = steps};
  scfg.phase_every = kPhaseEvery;
  scfg.use_trace = (mode == Mode::kHand);
  return rt.execute(apps::make_stencil_app(scfg, fns));
}

// Steady-state analysis time per timestep, in simulated microseconds.  The
// 2N-run stats are also returned so the caller can report replay counters.
double per_iter_us(std::size_t shards, Mode mode, bool* ok, core::DcrStats* big) {
  const core::DcrStats a = run(shards, kBaseSteps, mode);
  const core::DcrStats b = run(shards, 2 * kBaseSteps, mode);
  *ok = a.completed && b.completed;
  if (big != nullptr) *big = b;
  const double delta = static_cast<double>(b.analysis_busy) -
                       static_cast<double>(a.analysis_busy);
  return delta / static_cast<double>(kBaseSteps) / 1000.0;  // ns -> us
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BaselineCheck baseline = bench::parse_baseline_flags(argc, argv);
  bench::JsonDump json("BENCH_traceid.json");
  bench::header("TraceId",
                "auto-detected vs hand-windowed replay (phase-changing stencil)",
                "the detector promotes the repeating phase cycle without "
                "annotations; expect >= 80% of the hand-windowed speedup at "
                "64 shards");
  bench::Table table("shards");
  table.add_series("off_us/iter");
  table.add_series("hand_us/iter");
  table.add_series("auto_us/iter");
  table.add_series("hand_speedup");
  table.add_series("auto_speedup");
  table.add_series("auto/hand");
  int rc = 0;
  for (std::size_t shards : kShardCounts) {
    bool ok_off = false, ok_hand = false, ok_auto = false;
    core::DcrStats auto_big;
    const double off = per_iter_us(shards, Mode::kOff, &ok_off, nullptr);
    const double hand = per_iter_us(shards, Mode::kHand, &ok_hand, nullptr);
    const double autod = per_iter_us(shards, Mode::kAuto, &ok_auto, &auto_big);
    if (!ok_off || !ok_hand || !ok_auto) {
      std::printf("  !! %zu shards: run did not complete\n", shards);
      rc = 1;
      continue;
    }
    const double hand_speedup = hand > 0.0 ? off / hand : 0.0;
    const double auto_speedup = autod > 0.0 ? off / autod : 0.0;
    const double ratio = hand_speedup > 0.0 ? auto_speedup / hand_speedup : 0.0;
    table.add_row(static_cast<double>(shards),
                  {off, hand, autod, hand_speedup, auto_speedup, ratio});
    // Unique sweep name per shard count: the baseline watchdog matches
    // records by name, so duplicates would diff against the wrong row.
    json.record("traceid_analysis_" + std::to_string(shards),
                {{"shards", static_cast<double>(shards)},
                 {"off_analysis_us_per_iter", off},
                 {"hand_analysis_us_per_iter", hand},
                 {"auto_analysis_us_per_iter", autod},
                 {"hand_speedup", hand_speedup},
                 {"auto_speedup", auto_speedup},
                 {"auto_vs_hand", ratio},
                 {"auto_promotions", static_cast<double>(auto_big.auto_trace_promotions)},
                 {"auto_demotions", static_cast<double>(auto_big.auto_trace_demotions)},
                 {"auto_windows", static_cast<double>(auto_big.auto_trace_windows)},
                 {"auto_replays", static_cast<double>(auto_big.template_replays)},
                 {"auto_traced_ops", static_cast<double>(auto_big.traced_ops)}});
    if (auto_big.auto_trace_promotions == 0) {
      std::printf("  !! %zu shards: the detector promoted nothing\n", shards);
      rc = 1;
    }
    if (shards == 64 && ratio < 0.8) {
      std::printf("  !! 64 shards: auto speedup %.2fx is %.0f%% of the "
                  "hand-windowed %.2fx (bar: 80%%)\n",
                  auto_speedup, ratio * 100.0, hand_speedup);
      rc = 1;
    }
  }
  table.print();
  json.close();
  std::printf("\nwrote BENCH_traceid.json\n");

  if (!baseline.passes("BENCH_traceid.json")) rc = 1;
  return rc;
}
