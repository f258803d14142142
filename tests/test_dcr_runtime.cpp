// Integration tests for the DCR executor: pipeline correctness, fences and
// elision, futures, control-determinism checking, tracing, side effects.
#include <gtest/gtest.h>

#include <memory>

#include "apps/stencil.hpp"
#include "dcr/runtime.hpp"

namespace dcr::core {
namespace {

using apps::StencilConfig;
using apps::make_stencil_app;
using apps::register_stencil_functions;

struct Harness {
  sim::Machine machine;
  FunctionRegistry functions;
  DcrRuntime runtime;

  explicit Harness(std::size_t nodes, DcrConfig cfg = {}, std::size_t procs_per_node = 1)
      : machine({.num_nodes = nodes,
                 .compute_procs_per_node = procs_per_node,
                 .network = {.alpha = us(1), .ns_per_byte = 0.1, .local_latency = ns(50)}}),
        runtime(machine, functions, cfg) {}
};

TEST(DcrRuntime, StencilRunsToCompletionSingleShard) {
  Harness h(1);
  const auto fns = register_stencil_functions(h.functions, 1.0);
  const DcrStats stats =
      h.runtime.execute(make_stencil_app({.cells_per_tile = 100, .tiles = 4, .steps = 3}, fns));
  EXPECT_TRUE(stats.completed);
  EXPECT_FALSE(stats.determinism_violation);
  // fill + 3 steps x 3 launches + the app's execution fence + the finalize
  // fence = 12 ops.
  EXPECT_EQ(stats.ops_issued, 12u);
  // 4 tiles x 3 launches x 3 steps point tasks + 1 fill.
  EXPECT_EQ(stats.point_tasks_launched, 36u);  // fills are metadata ops, not tasks
  EXPECT_GT(stats.makespan, 0u);
}

// Every point task runs one of the stencil's named functions: 4 tiles x 3
// launches x 3 steps, counted by the per-function execution profile.
TEST(DcrRuntime, StencilPointTasksRunNamedFunctions) {
  Harness h(2);
  const auto fns = register_stencil_functions(h.functions, 10.0);
  const DcrStats stats = h.runtime.execute(
      make_stencil_app({.cells_per_tile = 1000, .tiles = 4, .steps = 3}, fns));
  ASSERT_TRUE(stats.completed);
  std::uint64_t named = 0;
  for (const auto& [fn, fp] : h.runtime.profile()) {
    const std::string& name = h.functions.at(fn).name;
    EXPECT_TRUE(name == "add_one" || name == "mul_two" || name == "stencil") << name;
    EXPECT_EQ(fp.tasks, 4u * 3u) << name;
    named += fp.tasks;
  }
  EXPECT_EQ(named, 4u * 3u * 3u);
}

TEST(DcrRuntime, StencilScalesAcrossShards) {
  for (std::size_t nodes : {2u, 4u}) {
    Harness h(nodes);
    const auto fns = register_stencil_functions(h.functions, 1.0);
    const DcrStats stats = h.runtime.execute(
        make_stencil_app({.cells_per_tile = 100, .tiles = 8, .steps = 3}, fns));
    EXPECT_TRUE(stats.completed) << nodes << " nodes";
    EXPECT_FALSE(stats.determinism_violation);
    EXPECT_EQ(stats.point_tasks_launched, 8u * 3u * 3u);
  }
}

TEST(DcrRuntime, DeterministicAcrossRuns) {
  auto run = [] {
    Harness h(4);
    const auto fns = register_stencil_functions(h.functions, 1.0);
    return h.runtime
        .execute(make_stencil_app({.cells_per_tile = 50, .tiles = 8, .steps = 4}, fns))
        .makespan;
  };
  const SimTime a = run();
  EXPECT_EQ(a, run());
  EXPECT_EQ(a, run());
}

TEST(DcrRuntime, FenceElisionMatchesFigure10) {
  // Per step: add_one(owned) -> stencil(ghost RO state) crosses partitions
  // (fence); mul_two(interior) -> stencil(interior RW flux) is same
  // partition/sharding/projection (elided); add_one -> add_one next step is
  // same partition (elided); stencil(ghost) -> next add_one(owned) crosses
  // partitions (fence).
  Harness h(4);
  const auto fns = register_stencil_functions(h.functions, 1.0);
  const DcrStats stats = h.runtime.execute(
      make_stencil_app({.cells_per_tile = 100, .tiles = 8, .steps = 5}, fns));
  EXPECT_TRUE(stats.completed);
  EXPECT_GT(stats.fences_inserted, 0u);
  EXPECT_GT(stats.fences_elided, 0u);
  // Each step inserts fences for exactly two ops (stencil, and the next
  // add_one); the first fill->add_one/mul_two pair also fences, as do the
  // two execution-fence ops.
  EXPECT_LE(stats.fences_inserted, 2u + 2u * 5u + 2u);
  // mul_two->stencil elision plus same-launch step-to-step elisions.
  EXPECT_GE(stats.fences_elided, 5u);
}

TEST(DcrRuntime, RealizedGraphMatchesSequentialSemantics) {
  // End-to-end Theorem 1: the realized point-task dependence structure under
  // DCR must describe the same partial order as a sequential dependence
  // analysis of the same concrete task stream.
  for (std::size_t nodes : {1u, 2u, 3u}) {
    DcrConfig cfg;
    cfg.record_task_graph = true;
    Harness h(nodes, cfg);
    const auto fns = register_stencil_functions(h.functions, 1.0);
    const StencilConfig scfg{.cells_per_tile = 64, .tiles = 6, .steps = 3};
    const DcrStats stats = h.runtime.execute(make_stencil_app(scfg, fns));
    ASSERT_TRUE(stats.completed);

    // Rebuild the expected graph: sequential pairwise analysis over the
    // realized tasks in canonical (op, point) order using the same oracle.
    const auto& tasks = h.runtime.realized_tasks();
    ASSERT_FALSE(tasks.empty());
    std::vector<DcrRuntime::RealizedTask> ordered = tasks;
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });

    // The realized graph must be acyclic and respect canonical order.
    const rt::TaskGraph& got = h.runtime.realized_graph();
    EXPECT_TRUE(got.is_acyclic());
    for (const auto& t : ordered) {
      for (TaskId p : got.predecessors(t.id)) EXPECT_LT(p, t.id);
    }
    // +1: the fill op is recorded in the realized graph but is not a task.
    EXPECT_EQ(got.num_tasks(), stats.point_tasks_launched + 1);
    EXPECT_GT(got.num_edges(), 0u);
  }
}

TEST(DcrRuntime, RealizedGraphIdenticalAcrossShardCounts) {
  auto realized = [](std::size_t nodes) {
    DcrConfig cfg;
    cfg.record_task_graph = true;
    auto h = std::make_unique<Harness>(nodes, cfg);
    const auto fns = register_stencil_functions(h->functions, 1.0);
    h->runtime.execute(
        make_stencil_app({.cells_per_tile = 64, .tiles = 6, .steps = 3}, fns));
    return h->runtime.realized_graph().transitive_closure();
  };
  const rt::TaskGraph one = realized(1);
  EXPECT_TRUE(one.same_partial_order(realized(2)));
  EXPECT_TRUE(one.same_partial_order(realized(3)));
  EXPECT_TRUE(one.same_partial_order(realized(6)));
}

// ------------------------------------------------------------------ futures

TEST(DcrRuntime, SingleTaskFutureBroadcastsToAllShards) {
  Harness h(4);
  const FunctionId fn = h.functions.register_simple(
      "produce", us(5), 0.0, [](const PointTaskInfo&) { return 42.5; });
  std::vector<double> seen(4, 0.0);
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    TaskLaunch launch;
    launch.fn = fn;
    launch.wants_future = true;
    Future f = ctx.launch(launch);
    seen[ctx.shard_id().value] = ctx.get_future(f);
  });
  EXPECT_TRUE(stats.completed);
  for (double v : seen) EXPECT_EQ(v, 42.5);
}

TEST(DcrRuntime, FutureMapReduction) {
  Harness h(4);
  // Each point task returns its point index; sum over 8 points = 28.
  const FunctionId fn = h.functions.register_simple(
      "val", us(1), 0.0, [](const PointTaskInfo& info) {
        return static_cast<double>(info.point[0]);
      });
  std::vector<double> sums(4), mins(4), maxs(4);
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    IndexLaunch launch;
    launch.fn = fn;
    launch.domain = rt::Rect::r1(0, 7);
    launch.wants_futures = true;
    FutureMap fm = ctx.index_launch(launch);
    Future fsum = ctx.reduce_future_map(fm, ReduceOp::Sum);
    Future fmin = ctx.reduce_future_map(fm, ReduceOp::Min);
    Future fmax = ctx.reduce_future_map(fm, ReduceOp::Max);
    sums[ctx.shard_id().value] = ctx.get_future(fsum);
    mins[ctx.shard_id().value] = ctx.get_future(fmin);
    maxs[ctx.shard_id().value] = ctx.get_future(fmax);
  });
  EXPECT_TRUE(stats.completed);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(sums[s], 28.0) << s;
    EXPECT_EQ(mins[s], 0.0) << s;
    EXPECT_EQ(maxs[s], 7.0) << s;
  }
}

TEST(DcrRuntime, DataDependentControlFlow) {
  // A convergence loop driven by a future value: "residual" halves per
  // iteration; loop until < 0.1.  Every shard must take the same number of
  // iterations with no determinism violation.
  Harness h(3);
  const FunctionId fn = h.functions.register_simple(
      "residual", us(2), 0.0, [](const PointTaskInfo& info) {
        return 1.0 / static_cast<double>(1 << info.args.at(0));
      });
  int iters = 0;
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    int local_iters = 0;
    double residual = 1.0;
    while (residual >= 0.1) {
      TaskLaunch launch;
      launch.fn = fn;
      launch.wants_future = true;
      launch.args = {local_iters};
      residual = ctx.get_future(ctx.launch(launch));
      ++local_iters;
    }
    iters = local_iters;
  });
  EXPECT_TRUE(stats.completed);
  EXPECT_FALSE(stats.determinism_violation);
  EXPECT_EQ(iters, 5);  // residuals 1, .5, .25, .125, .0625 — stops after the fifth
}

// ----------------------------------------------------- control determinism

TEST(DcrRuntime, DeterminismCheckerAcceptsReplicatedRng) {
  // Paper Figure 4 done right: branching on the *replicated* RNG is control
  // deterministic because every shard draws the same sequence.
  Harness h(4);
  const FunctionId a = h.functions.register_simple("algo0", us(1), 0.0);
  const FunctionId b = h.functions.register_simple("algo1", us(1), 0.0);
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    for (int i = 0; i < 10; ++i) {
      TaskLaunch launch;
      launch.fn = ctx.rng().next_double() < 0.5 ? a : b;
      ctx.launch(launch);
    }
    ctx.execution_fence();
  });
  EXPECT_TRUE(stats.completed);
  EXPECT_FALSE(stats.determinism_violation);
  EXPECT_GT(stats.determinism_checks, 0u);
}

TEST(DcrRuntime, DeterminismCheckerCatchesShardDependentBranch) {
  // Paper Figure 4 done wrong: the branch differs per shard (here: on the
  // shard id, the simplest non-replicated "randomness").
  Harness h(4);
  const FunctionId a = h.functions.register_simple("algo0", us(1), 0.0);
  const FunctionId b = h.functions.register_simple("algo1", us(1), 0.0);
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    TaskLaunch launch;
    launch.fn = (ctx.shard_id().value % 2 == 0) ? a : b;
    ctx.launch(launch);
    ctx.execution_fence();
  });
  EXPECT_TRUE(stats.determinism_violation);
  EXPECT_NE(stats.violation_message.find("launch"), std::string::npos);
}

TEST(DcrRuntime, DeterminismCheckerCatchesDivergentArguments) {
  Harness h(2);
  const FunctionId fn = h.functions.register_simple("t", us(1), 0.0);
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    TaskLaunch launch;
    launch.fn = fn;
    launch.args = {static_cast<std::int64_t>(ctx.shard_id().value)};  // diverges!
    ctx.launch(launch);
    ctx.execution_fence();
  });
  EXPECT_TRUE(stats.determinism_violation);
}

TEST(DcrRuntime, DeterminismCheckerCatchesShorterCallStream) {
  // The common prefix hashes equal, but shard 1 issues one execution_fence
  // fewer: the check its peer is waiting on can never resolve, and the run
  // must name the shard that stopped and the call it never made.
  Harness h(2);
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    ctx.execution_fence();
    if (ctx.shard_id().value == 0) ctx.execution_fence();
  });
  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(stats.determinism_violation);
  EXPECT_NE(stats.violation_message.find("shard 1 stopped before API call"), std::string::npos)
      << stats.violation_message;
  EXPECT_NE(stats.violation_message.find("(execution_fence)"), std::string::npos)
      << stats.violation_message;
}

TEST(DcrRuntime, ChecksCanBeDisabled) {
  DcrConfig cfg;
  cfg.determinism_checks = false;
  Harness h(4, cfg);
  const auto fns = register_stencil_functions(h.functions, 1.0);
  const DcrStats stats = h.runtime.execute(
      make_stencil_app({.cells_per_tile = 50, .tiles = 4, .steps = 2}, fns));
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.determinism_checks, 0u);
}

TEST(DcrRuntime, ChecksAddOverheadButNotMuchWithSlackBandwidth) {
  auto run = [](bool safe) {
    DcrConfig cfg;
    cfg.determinism_checks = safe;
    Harness h(4, cfg);
    const auto fns = register_stencil_functions(h.functions, 10.0);
    return h.runtime
        .execute(make_stencil_app({.cells_per_tile = 2000, .tiles = 8, .steps = 5}, fns))
        .makespan;
  };
  const SimTime unsafe = run(false);
  const SimTime safe = run(true);
  EXPECT_GE(safe, unsafe);
  // Paper §5.5: with unused communication bandwidth the checks are nearly
  // free; allow a few percent.
  EXPECT_LT(static_cast<double>(safe), static_cast<double>(unsafe) * 1.05);
}

// ------------------------------------------------------------------ tracing

TEST(DcrRuntime, TracingReducesAnalysisTime) {
  auto run = [](bool trace) {
    DcrConfig cfg;
    Harness h(4, cfg);
    const auto fns = register_stencil_functions(h.functions, 1.0);
    StencilConfig scfg{.cells_per_tile = 100, .tiles = 8, .steps = 20};
    scfg.use_trace = trace;
    auto stats = h.runtime.execute(make_stencil_app(scfg, fns));
    EXPECT_TRUE(stats.completed);
    return stats;
  };
  const DcrStats traced = run(true);
  const DcrStats untraced = run(false);
  EXPECT_GT(traced.traced_ops, 0u);
  EXPECT_EQ(untraced.traced_ops, 0u);
  EXPECT_LT(traced.analysis_busy, untraced.analysis_busy);
}

TEST(DcrRuntime, TraceReplayPreservesExecution) {
  auto tasks = [](bool trace) {
    Harness h(2);
    const auto fns = register_stencil_functions(h.functions, 1.0);
    StencilConfig scfg{.cells_per_tile = 100, .tiles = 4, .steps = 6};
    scfg.use_trace = trace;
    return h.runtime.execute(make_stencil_app(scfg, fns)).point_tasks_launched;
  };
  EXPECT_EQ(tasks(true), tasks(false));
}

TEST(DcrRuntime, ChangedTraceInvalidatesAndReRecords) {
  // A trace whose body changes shape mid-run must fall back to fresh
  // analysis (fewer replayed ops) but still execute correctly.
  Harness h(2);
  const FunctionId fa = h.functions.register_simple("a", us(1), 0.0);
  const FunctionId fb = h.functions.register_simple("b", us(1), 0.0);
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "f");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 99), fs);
    const PartitionId part = ctx.partition_equal(ctx.root(tree), 2);
    for (int i = 0; i < 8; ++i) {
      ctx.begin_trace(TraceId(7));
      IndexLaunch launch;
      launch.fn = (i < 3) ? fa : fb;  // shape change at iteration 3
      launch.domain = rt::Rect::r1(0, 1);
      launch.requirements.push_back(
          rt::GroupRequirement::on_partition(part, {f}, rt::Privilege::ReadWrite));
      ctx.index_launch(launch);
      ctx.end_trace(TraceId(7));
    }
    ctx.execution_fence();
  });
  EXPECT_TRUE(stats.completed);
  EXPECT_FALSE(stats.determinism_violation);
  // Lifecycle per shard: iteration 0 captures; iteration 1's shadow compare
  // mismatches (iteration 0 had no predecessor) and re-records; iteration 2
  // validates; iteration 3 would replay but the changed function diverges the
  // call hash, aborting the window and dropping the template; iteration 4
  // re-captures, 5 validates, and only 6..7 replay: 2 ops x 2 shards.
  EXPECT_EQ(stats.traced_ops, 4u);
  EXPECT_EQ(stats.templates_captured, 4u);           // iterations 0 and 4, per shard
  EXPECT_EQ(stats.template_invalidations, 2u);       // the iteration-3 abort, per shard
  EXPECT_EQ(stats.template_validation_failures, 2u); // the iteration-1 re-record, per shard
  EXPECT_EQ(stats.template_replays, 4u);             // iterations 6..7, per shard
}

// ------------------------------------------------------------- side effects

TEST(DcrRuntime, AttachDetachRoundTrip) {
  Harness h(2);
  const FunctionId fn = h.functions.register_simple("consume", us(1), 1.0);
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "f");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 999), fs);
    const IndexSpaceId region = ctx.root(tree);
    ctx.attach_file(region, {f}, "input.h5");
    TaskLaunch launch;
    launch.fn = fn;
    launch.requirements.push_back(rt::Requirement{region, {f}, rt::Privilege::ReadWrite, 0});
    ctx.launch(launch);
    ctx.detach_file(region, {f});
    ctx.execution_fence();
  });
  EXPECT_TRUE(stats.completed);
  EXPECT_FALSE(stats.determinism_violation);
  EXPECT_EQ(stats.ops_issued, 5u);  // attach + launch + detach + 2 fence ops
}

TEST(DcrRuntime, ImmediateRegionDeletion) {
  Harness h(2);
  const FunctionId fn = h.functions.register_simple("t", us(1), 0.0);
  RegionTreeId victim;
  Harness* hp = &h;
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "f");
    victim = ctx.create_region(rt::Rect::r1(0, 9), fs);
    TaskLaunch launch;
    launch.fn = fn;
    launch.requirements.push_back(
        rt::Requirement{ctx.root(victim), {f}, rt::Privilege::ReadWrite, 0});
    ctx.launch(launch);
    ctx.destroy_region(victim);
    ctx.execution_fence();
  });
  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(hp->runtime.forest().tree_destroyed(victim));
}

TEST(DcrRuntime, DeferredDeletionReachesConsensusAcrossSkewedShards) {
  // Shards request the deferred deletion at different control points (after
  // different amounts of work), like GC finalizers firing at arbitrary
  // times.  The runtime must agree on a single insertion point; the tree is
  // destroyed; no determinism violation.
  Harness h(4);
  const FunctionId fn = h.functions.register_simple("t", us(5), 0.0);
  RegionTreeId victim;
  Harness* hp = &h;
  const DcrStats stats = h.runtime.execute([&](Context& ctx) {
    FieldSpaceId fs = ctx.create_field_space();
    ctx.allocate_field(fs, 8, "f");
    victim = ctx.create_region(rt::Rect::r1(0, 9), fs);
    for (int i = 0; i < 8; ++i) {
      TaskLaunch launch;
      launch.fn = fn;
      ctx.launch(launch);
      // Different shards "GC" at different iterations.
      if (i == static_cast<int>(ctx.shard_id().value) * 2) {
        ctx.destroy_region_deferred(victim);
      }
    }
    ctx.execution_fence();
  });
  EXPECT_TRUE(stats.completed);
  EXPECT_FALSE(stats.determinism_violation);
  EXPECT_TRUE(hp->runtime.forest().tree_destroyed(victim));
}

// ----------------------------------------------------------- miscellaneous

TEST(DcrRuntime, ShardsPerNodeMapsToProcessors) {
  DcrConfig cfg;
  cfg.shards_per_node = 2;
  Harness h(2, cfg, /*procs_per_node=*/2);
  EXPECT_EQ(h.runtime.num_shards(), 4u);
  const auto fns = register_stencil_functions(h.functions, 1.0);
  const DcrStats stats = h.runtime.execute(
      make_stencil_app({.cells_per_tile = 100, .tiles = 8, .steps = 2}, fns));
  EXPECT_TRUE(stats.completed);
  // All four compute processors did work.
  for (std::uint32_t n = 0; n < 2; ++n) {
    for (std::size_t p = 0; p < 2; ++p) {
      EXPECT_GT(h.machine.compute_proc(NodeId(n), p).tasks_run(), 0u);
    }
  }
}

TEST(DcrRuntime, CoarseCostIndependentOfGroupSize) {
  // Doubling the tiles (group width) with fixed op count must not change the
  // number of coarse-analyzed ops, only fine-stage work.  We verify through
  // analysis busy time: growth should be ~2x fine (per-point) work, far less
  // than 2x total if coarse dominated.
  auto ops = [](std::size_t tiles) {
    Harness h(1);
    const auto fns = register_stencil_functions(h.functions, 1.0);
    return h.runtime.execute(
        make_stencil_app({.cells_per_tile = 10, .tiles = tiles, .steps = 4}, fns));
  };
  const DcrStats small = ops(4);
  const DcrStats big = ops(64);
  EXPECT_EQ(small.ops_issued, big.ops_issued);
  EXPECT_EQ(small.coarse_deps, big.coarse_deps);
}

}  // namespace
}  // namespace dcr::core
