// dcr-spy observability cost: what does full trace recording add?
//
// Trace recording (DcrConfig::record_trace) is host-side only — it charges no
// virtual time — so the interesting number is the *wall-clock* slowdown of
// the simulation itself at paper-scale shard counts {16, 64, 256}, plus the
// trace's size (events, serialized bytes) and the offline verifier's own
// runtime over the recorded trace.
//
// Results are printed as tables and written to BENCH_spy.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "bench/bench_common.hpp"
#include "dcr/runtime.hpp"
#include "spy/verify.hpp"

namespace {

using namespace dcr;

constexpr std::size_t kShardCounts[] = {16, 64, 256};
constexpr int kReps = 3;  // best-of to damp scheduler noise

apps::StencilConfig stencil_for(std::size_t shards) {
  return {.cells_per_tile = 500, .tiles = shards, .steps = 8};
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  core::DcrStats stats;
  double wall_ms = 0.0;
  std::size_t trace_events = 0;
  std::size_t trace_bytes = 0;
  double verify_ms = 0.0;
  std::size_t findings = 0;
};

RunResult run(std::size_t shards, bool record) {
  RunResult best;
  for (int rep = 0; rep < kReps; ++rep) {
    sim::Machine machine(bench::cluster(shards));
    core::FunctionRegistry functions;
    const auto fns = apps::register_stencil_functions(functions, 1.0);
    core::DcrConfig cfg;
    cfg.record_trace = record;
    core::DcrRuntime rt(machine, functions, cfg);
    const double t0 = now_ms();
    core::DcrStats stats = rt.execute(apps::make_stencil_app(stencil_for(shards), fns));
    const double wall = now_ms() - t0;
    if (rep == 0 || wall < best.wall_ms) {
      best.stats = stats;
      best.wall_ms = wall;
      if (record) {
        best.trace_events = rt.trace()->num_events();
        const std::string jsonl = rt.trace()->to_jsonl();
        best.trace_bytes = jsonl.size();
        const double v0 = now_ms();
        const spy::VerifyReport report = spy::verify(*rt.trace());
        best.verify_ms = now_ms() - v0;
        best.findings = report.findings.size();
      }
    }
  }
  return best;
}

}  // namespace

int main() {
  bench::JsonDump json("BENCH_spy.json");
  bench::header("Spy", "trace-recording overhead vs shard count (stencil)",
                "recording costs tens of % host time, flat in shard count; "
                "verify cost is offline");
  bench::Table table("shards");
  table.add_series("base_ms");
  table.add_series("traced_ms");
  table.add_series("overhead_%");
  table.add_series("events");
  table.add_series("kB");
  table.add_series("verify_ms");
  for (std::size_t shards : kShardCounts) {
    const RunResult base = run(shards, /*record=*/false);
    const RunResult traced = run(shards, /*record=*/true);
    if (!base.stats.completed || !traced.stats.completed) {
      std::printf("  !! %zu shards: run did not complete\n", shards);
      continue;
    }
    if (traced.findings != 0) {
      std::printf("  !! %zu shards: verifier reported %zu findings\n", shards,
                  traced.findings);
    }
    const double overhead =
        base.wall_ms > 0.0 ? (traced.wall_ms / base.wall_ms - 1.0) * 100.0 : 0.0;
    const double kb = static_cast<double>(traced.trace_bytes) / 1024.0;
    table.add_row(static_cast<double>(shards),
                  {base.wall_ms, traced.wall_ms, overhead,
                   static_cast<double>(traced.trace_events), kb, traced.verify_ms});
    json.record("trace_overhead",
                {{"shards", static_cast<double>(shards)},
                 {"base_wall_ms", base.wall_ms},
                 {"traced_wall_ms", traced.wall_ms},
                 {"overhead_pct", overhead},
                 {"trace_events", static_cast<double>(traced.trace_events)},
                 {"trace_bytes", static_cast<double>(traced.trace_bytes)},
                 {"verify_ms", traced.verify_ms},
                 {"verify_findings", static_cast<double>(traced.findings)}});
  }
  table.print();
  std::printf("\nwrote BENCH_spy.json\n");
  return 0;
}
