// Real-threads execution backend (src/exec): primitive units and stress
// tests for the collectives, plus the differential suite that runs
// every fuzz program through BOTH backends — the discrete-event simulator
// (the oracle) and the OS-thread runtime — and demands spy-identical task
// graphs, identical per-shard call-hash streams, and identical analysis
// statistics.  The sweeps ride the "exec" ctest label (see check-exec) and
// are also run under ThreadSanitizer by check-hardened.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/stencil.hpp"
#include "common/philox.hpp"
#include "dcr/runtime.hpp"
#include "dcr_fuzz_programs.hpp"
#include "exec/clock.hpp"
#include "exec/collective.hpp"
#include "exec/gate.hpp"
#include "exec/thread_runtime.hpp"
#include "spy/trace.hpp"
#include "spy/verify.hpp"

namespace dcr::exec {
namespace {

using core::ApplicationMain;
using core::DcrConfig;
using core::DcrRuntime;
using core::DcrStats;
using core::FunctionRegistry;

// ===========================================================================
// Primitive units
// ===========================================================================

TEST(FenceCollective, ReusableAcrossGenerations) {
  constexpr std::uint32_t kRanks = 4;
  constexpr int kRounds = 50;
  FenceCollective fence(kRanks);
  std::atomic<int> inside{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        inside.fetch_add(1);
        fence.arrive_and_wait();
        // Everyone from this round must have arrived before anyone leaves.
        if (inside.load() < kRanks * (round + 1)) torn.store(true);
        fence.arrive_and_wait();  // second barrier so rounds can't overlap
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(fence.generation(), static_cast<std::uint64_t>(2 * kRounds));
}

TEST(ValueCollective, CombinesInRankOrderRegardlessOfArrival) {
  // A deliberately non-commutative combine exposes any arrival-order
  // dependence: acc = 2*acc + v yields a unique value per rank order.
  constexpr std::uint32_t kRanks = 6;
  double expected = 0.0;
  for (std::uint32_t r = 0; r < kRanks; ++r) expected = 2.0 * expected + (r + 1);
  for (int trial = 0; trial < 20; ++trial) {
    ValueCollective coll(kRanks, 0.0, [](double a, double b) { return 2.0 * a + b; });
    std::vector<std::thread> threads;
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      threads.emplace_back([&, r] { coll.arrive(r, r + 1.0); });
    }
    for (auto& t : threads) t.join();
    ASSERT_TRUE(coll.ready());
    EXPECT_EQ(coll.result(), expected);
  }
}

TEST(ValueCollective, OneRankBroadcastReachesEveryReader) {
  // A broadcast future is a one-rank collective: the owner's arrival is the
  // publish.  Waiters parked before it, a waiter arriving after it and a
  // ready() poller must all read the same value and releaser context.
  constexpr int kIterations = 1000;
  constexpr int kEarly = 2;
  constexpr int kReaders = kEarly + 2;  // + the poller + the late waiter
  for (int iter = 0; iter < kIterations; ++iter) {
    ValueCollective coll(1, 0.0, [](double, double v) { return v; });
    const double value = iter + 0.5;
    const scope::TraceCtx ctx{.trace = 1,
                              .span = static_cast<std::uint64_t>(iter),
                              .origin = 0,
                              .at = static_cast<SimTime>(iter)};
    // One slot per reader thread.
    std::vector<double> seen(kReaders, -1.0);
    std::vector<scope::TraceCtx> seen_ctx(kReaders);
    std::atomic<int> parked{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kEarly; ++r) {
      readers.emplace_back([&, r] {
        parked.fetch_add(1);
        seen[r] = coll.wait();
        seen_ctx[r] = coll.result_ctx();
      });
    }
    readers.emplace_back([&] {
      while (!coll.ready()) std::this_thread::yield();
      seen[kEarly] = coll.result();
      seen_ctx[kEarly] = coll.result_ctx();
    });
    while (parked.load() < kEarly) std::this_thread::yield();
    coll.arrive(0, value, ctx);
    readers.emplace_back([&] {
      seen[kEarly + 1] = coll.wait();
      seen_ctx[kEarly + 1] = coll.result_ctx();
    });
    for (auto& t : readers) t.join();
    for (int r = 0; r < kReaders; ++r) {
      ASSERT_EQ(seen[r], value) << "iteration " << iter << ", reader " << r;
      ASSERT_TRUE(seen_ctx[r] == ctx) << "iteration " << iter << ", reader " << r;
    }
  }
}

TEST(ConcurrencyGate, NeverExceedsSlotCap) {
  constexpr std::uint32_t kSlots = 3;
  ConcurrencyGate gate(kSlots);
  std::atomic<std::uint32_t> inside{0};
  std::atomic<std::uint32_t> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        gate.acquire();
        const std::uint32_t now = inside.fetch_add(1) + 1;
        std::uint32_t prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        inside.fetch_sub(1);
        gate.release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(peak.load(), kSlots);
}

TEST(ConcurrencyGate, BlocksWhenSlotsExhausted) {
  ConcurrencyGate gate(2);
  gate.acquire();
  gate.acquire();  // both slots held by this thread
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    gate.acquire();
    acquired.store(true, std::memory_order_release);
    gate.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load(std::memory_order_acquire))
      << "gate admitted a third holder with both slots taken";
  gate.release();  // frees exactly one slot; the waiter must now proceed
  waiter.join();
  EXPECT_TRUE(acquired.load(std::memory_order_acquire));
  gate.release();
}

TEST(ConcurrencyGate, UncappedIsPassThrough) {
  ConcurrencyGate gate(0);
  EXPECT_FALSE(gate.enabled());
  gate.acquire();  // must not block or count
  gate.release();
}

TEST(WallClock, MonotonicRealNanoseconds) {
  WallClock clock;
  const SimTime a = clock.now();
  const SimTime b = clock.now();
  EXPECT_LE(a, b);
  // A real sleep must advance the reading by roughly that much.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(clock.now() - b, static_cast<SimTime>(1'000'000));
}

// ===========================================================================
// Differential harness: simulator backend as the oracle
// ===========================================================================

sim::MachineConfig cluster(std::size_t nodes) {
  return {.num_nodes = nodes,
          .compute_procs_per_node = 1,
          .network = {.alpha = us(1), .ns_per_byte = 0.1}};
}

struct BackendRun {
  DcrStats stats;
  spy::Trace trace;
  // Non-volatile per-shard prof counters (wall-time Ns counters excluded).
  std::vector<std::vector<std::uint64_t>> counters;
  std::vector<std::uint64_t> globals;
};

constexpr prof::Counter kParityCounters[] = {
    prof::Counter::CoarseOps,          prof::Counter::TracedCoarseOps,
    prof::Counter::FineOps,            prof::Counter::TracedFineOps,
    prof::Counter::FinePoints,         prof::Counter::FenceWaits,
    prof::Counter::FutureWaits,        prof::Counter::ExecutionFences,
    prof::Counter::WindowsClosed,      prof::Counter::TemplateWindowHits,
    prof::Counter::TemplateWindowMisses, prof::Counter::StaticSkipOps,
    prof::Counter::StaticSkipPoints,
};

constexpr prof::GlobalCounter kParityGlobals[] = {
    prof::GlobalCounter::FenceDecisions, prof::GlobalCounter::FencesIssued,
    prof::GlobalCounter::FencesElided,   prof::GlobalCounter::FenceCollectives,
    prof::GlobalCounter::FutureCollectives,
};

void harvest_counters(const prof::Profiler& prof, std::size_t shards, BackendRun* out) {
  out->counters.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    for (prof::Counter c : kParityCounters) {
      out->counters[s].push_back(prof.shard(static_cast<std::uint32_t>(s)).get(c));
    }
  }
  for (prof::GlobalCounter g : kParityGlobals) {
    out->globals.push_back(prof.global().get(g));
  }
}

struct DiffOptions {
  bool statics_check = false;
  bool disable_fence_elision = false;
};

BackendRun run_sim(const ApplicationMain& app, FunctionRegistry& functions,
                   std::size_t shards, const DiffOptions& opt = {}) {
  sim::Machine machine(cluster(shards));
  DcrConfig cfg;
  cfg.record_trace = true;
  cfg.statics_check = opt.statics_check;
  cfg.disable_fence_elision = opt.disable_fence_elision;
  DcrRuntime rt(machine, functions, cfg);
  BackendRun out;
  out.stats = rt.execute(app);
  out.trace = *rt.trace();
  harvest_counters(rt.profiler(), shards, &out);
  return out;
}

BackendRun run_threads(const ApplicationMain& app, FunctionRegistry& functions,
                       std::size_t shards, const DiffOptions& opt = {}) {
  ThreadConfig cfg;
  cfg.num_shards = shards;
  cfg.record_trace = true;
  cfg.statics_check = opt.statics_check;
  cfg.disable_fence_elision = opt.disable_fence_elision;
  ThreadRuntime rt(functions, cfg);
  BackendRun out;
  out.stats = rt.execute(app);
  out.trace = *rt.trace();
  harvest_counters(rt.profiler(), shards, &out);
  return out;
}

// The load-bearing assertion: both backends produced the same observable
// execution.  `volatile` quantities — wall/virtual makespans, busy times,
// bytes_moved/messages (no physical model on threads), and statics cache
// hits (per-shard prover replicas vs the simulator's single prover) — are
// deliberately excluded.
void expect_equivalent(const BackendRun& sim_run, const BackendRun& thr_run,
                       const char* what) {
  ASSERT_TRUE(sim_run.stats.completed) << what << ": simulator run failed";
  ASSERT_TRUE(thr_run.stats.completed)
      << what << ": threads run failed: " << thr_run.stats.abort_message;
  EXPECT_FALSE(sim_run.stats.determinism_violation) << what;
  EXPECT_FALSE(thr_run.stats.determinism_violation)
      << what << ": " << thr_run.stats.violation_message;

  // Task graph: same tasks (op, point, accesses) and same dependence edges.
  std::string why;
  EXPECT_TRUE(spy::graph_equivalent(sim_run.trace, thr_run.trace, &why))
      << what << ": " << why;

  // §3 call streams: per shard, the same calls with the same hashes in the
  // same order on both backends.
  ASSERT_EQ(sim_run.trace.calls.size(), thr_run.trace.calls.size()) << what;
  for (std::size_t s = 0; s < sim_run.trace.calls.size(); ++s) {
    const auto& a = sim_run.trace.calls[s];
    const auto& b = thr_run.trace.calls[s];
    ASSERT_EQ(a.size(), b.size()) << what << ": call count diverged on shard " << s;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].name, b[i].name) << what << ": shard " << s << " call " << i;
      ASSERT_TRUE(a[i].hash == b[i].hash)
          << what << ": hash diverged at shard " << s << " call " << i << " ("
          << a[i].name << ")";
    }
  }

  // Analysis statistics.
  const DcrStats& a = sim_run.stats;
  const DcrStats& b = thr_run.stats;
  EXPECT_EQ(a.ops_issued, b.ops_issued) << what;
  EXPECT_EQ(a.point_tasks_launched, b.point_tasks_launched) << what;
  EXPECT_EQ(a.fences_inserted, b.fences_inserted) << what;
  EXPECT_EQ(a.fences_elided, b.fences_elided) << what;
  EXPECT_EQ(a.coarse_deps, b.coarse_deps) << what;
  EXPECT_EQ(a.determinism_checks, b.determinism_checks) << what;
  EXPECT_EQ(a.traced_ops, b.traced_ops) << what;
  EXPECT_EQ(a.templates_captured, b.templates_captured) << what;
  EXPECT_EQ(a.templates_validated, b.templates_validated) << what;
  EXPECT_EQ(a.template_replays, b.template_replays) << what;
  EXPECT_EQ(a.template_invalidations, b.template_invalidations) << what;
  EXPECT_EQ(a.template_validation_failures, b.template_validation_failures) << what;
  EXPECT_EQ(a.statics_resolved_ops, b.statics_resolved_ops) << what;
  EXPECT_EQ(a.statics_unresolved_ops, b.statics_unresolved_ops) << what;
  EXPECT_EQ(a.statics_skipped_points, b.statics_skipped_points) << what;

  // Non-volatile prof counters, per shard and global.
  ASSERT_EQ(sim_run.counters.size(), thr_run.counters.size()) << what;
  for (std::size_t s = 0; s < sim_run.counters.size(); ++s) {
    EXPECT_EQ(sim_run.counters[s], thr_run.counters[s])
        << what << ": prof counters diverged on shard " << s;
  }
  EXPECT_EQ(sim_run.globals, thr_run.globals) << what << ": global prof counters";
}

// ------------------------------------------------------ basic functionality

TEST(ThreadBackend, SingleShardSmoke) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  ThreadConfig cfg;
  cfg.num_shards = 1;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats = rt.execute([fn](core::Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "x");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 63), fs);
    const IndexSpaceId root = ctx.root(tree);
    const PartitionId part = ctx.partition_equal(root, 4);
    ctx.fill(root, {f});
    core::IndexLaunch l;
    l.fn = fn;
    l.domain = rt::Rect::r1(0, 3);
    l.requirements.push_back(
        rt::GroupRequirement::on_partition(part, {f}, rt::Privilege::ReadWrite));
    ctx.index_launch(l);
  });
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.point_tasks_launched, 4u);
}

TEST(ThreadBackend, FuturesBroadcastAndReduce) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple(
      "valued", us(1), 0.0,
      [](const core::PointTaskInfo& info) {
        return 10.0 + static_cast<double>(info.point[0]);
      });
  for (std::size_t shards : {1u, 2u, 4u}) {
    ThreadConfig cfg;
    cfg.num_shards = shards;
    ThreadRuntime rt(functions, cfg);
    // One slot per shard: every shard observes both futures, and each shard
    // thread writes only its own slot.
    std::vector<double> single(shards, 0.0), reduced(shards, 0.0);
    const DcrStats stats = rt.execute([&, fn](core::Context& ctx) {
      const std::size_t me = ctx.shard_id().value;
      const FieldSpaceId fs = ctx.create_field_space();
      const FieldId f = ctx.allocate_field(fs, 8, "x");
      const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 63), fs);
      const IndexSpaceId root = ctx.root(tree);
      const PartitionId part = ctx.partition_equal(root, 4);
      ctx.fill(root, {f});
      // Single task with a future: only the owner executes, all observe.
      core::TaskLaunch tl;
      tl.fn = fn;
      tl.requirements.push_back(
          {root, {f}, rt::Privilege::ReadWrite, rt::kNoRedop});
      tl.wants_future = true;
      single[me] = ctx.get_future(ctx.launch(tl));
      // Index launch reduced to one future: the all-reduce collective.
      core::IndexLaunch il;
      il.fn = fn;
      il.domain = rt::Rect::r1(0, 3);
      il.requirements.push_back(
          rt::GroupRequirement::on_partition(part, {f}, rt::Privilege::ReadWrite));
      il.wants_futures = true;
      const core::FutureMap fm = ctx.index_launch(il);
      reduced[me] = ctx.get_future(ctx.reduce_future_map(fm, core::ReduceOp::Sum));
    });
    ASSERT_TRUE(stats.completed) << shards << " shards: " << stats.abort_message;
    for (std::size_t i = 0; i < shards; ++i) {
      EXPECT_EQ(single[i], 10.0) << shards << " shards, shard " << i;  // point 0 of a single task
      EXPECT_EQ(reduced[i], 10 + 11 + 12 + 13) << shards << " shards, shard " << i;
    }
    EXPECT_FALSE(stats.determinism_violation) << stats.violation_message;
  }
}

TEST(ThreadBackend, DivergentControlProgramIsCaught) {
  FunctionRegistry functions;
  ThreadConfig cfg;
  cfg.num_shards = 4;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats = rt.execute([](core::Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    // Shard-dependent argument: a §3 violation the folded digests must flag.
    ctx.allocate_field(fs, 8 + ctx.shard_id().value, "diverge");
  });
  EXPECT_TRUE(stats.determinism_violation);
  EXPECT_FALSE(stats.completed);
  EXPECT_NE(stats.violation_message.find("determinism"), std::string::npos)
      << stats.violation_message;
}

TEST(ThreadBackend, ProfLedgerInvariantsReconcile) {
  // The dcr-prof ledger invariants must hold on wall-clock spans/counters
  // exactly as they do in virtual time (ISSUE satellite 6).
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  Philox4x32 rng(fuzz::seed_for_label("exec-ledger", 0), /*stream=*/11);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, 6);
  ThreadConfig cfg;
  cfg.num_shards = 4;
  cfg.profile = true;
  ThreadRuntime rt(functions, cfg);
  const DcrStats stats =
      rt.execute(fuzz::materialize_loop(program, fn, /*use_trace=*/true));
  ASSERT_TRUE(stats.completed) << stats.abort_message;

  const prof::Profiler& prof = rt.profiler();
  EXPECT_EQ(prof.global().get(prof::GlobalCounter::FencesIssued) +
                prof.global().get(prof::GlobalCounter::FencesElided),
            prof.global().get(prof::GlobalCounter::FenceDecisions));
  for (std::uint32_t s = 0; s < 4; ++s) {
    const prof::Counters& c = prof.shard(s);
    EXPECT_EQ(c.get(prof::Counter::TemplateWindowHits) +
                  c.get(prof::Counter::TemplateWindowMisses),
              c.get(prof::Counter::WindowsClosed))
        << "shard " << s;
    EXPECT_GT(c.get(prof::Counter::WindowsClosed), 0u) << "shard " << s;
  }
}

// ------------------------------------- Context methods the fuzzers never call

// File attach/detach in both variants, 2-D grid partitions, destroy_region
// and future_is_ready.  The readiness answer is timing-dependent, so the
// program calls it (the call is hashed like any other) but never branches on
// it — branching would be the Figure 5 control-determinism violation.
ApplicationMain side_effects_program(FunctionId fn) {
  return [fn](core::Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    const FieldId a = ctx.allocate_field(fs, 8, "a");
    const FieldId b = ctx.allocate_field(fs, 8, "b");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r2(0, 15, 0, 7), fs);
    const IndexSpaceId root = ctx.root(tree);
    const PartitionId grid = ctx.partition_grid(root, 4, 2);
    const PartitionId ghost = ctx.partition_grid(root, 4, 2, /*halo=*/1);
    ctx.attach_file(root, {a}, "a.dat");
    ctx.attach_file_group(grid, {b}, "b");
    core::IndexLaunch l;
    l.fn = fn;
    l.domain = rt::Rect::r2(0, 3, 0, 1);
    l.requirements.push_back(
        rt::GroupRequirement::on_partition(grid, {b}, rt::Privilege::ReadWrite));
    l.requirements.push_back(
        rt::GroupRequirement::on_partition(ghost, {a}, rt::Privilege::ReadOnly));
    ctx.index_launch(l);
    core::TaskLaunch t;
    t.fn = fn;
    t.requirements.push_back({root, {a}, rt::Privilege::ReadWrite, rt::kNoRedop});
    t.wants_future = true;
    const core::Future f = ctx.launch(t);
    (void)ctx.future_is_ready(f);
    ctx.get_future(f);
    ctx.detach_file_group(grid, {b});
    ctx.detach_file(root, {a});
    const RegionTreeId scratch = ctx.create_region(rt::Rect::r1(0, 31), fs);
    ctx.fill(ctx.root(scratch), {a});
    ctx.destroy_region(scratch);
    ctx.index_launch(l);
  };
}

TEST(ExecDifferential, SideEffectsGridsAndDestroyAgreeAcrossBackends) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple(
      "io", us(1), 1.0,
      [](const core::PointTaskInfo& info) { return static_cast<double>(info.point[0]); });
  const ApplicationMain app = side_effects_program(fn);
  // 3 shards own the 8-piece attach group unevenly; 8 own one piece each.
  for (std::size_t shards : {2u, 3u, 4u, 8u}) {
    const std::string what = "side effects, " + std::to_string(shards) + " shards";
    expect_equivalent(run_sim(app, functions, shards), run_threads(app, functions, shards),
                      what.c_str());
  }
}

// ------------------------------------------------------------- fail-stop

// A control program that throws ends the run as an abort naming the shard and
// the exception, on both backends.  Every shard throws at the same program
// point, so no threads-backend shard is left waiting at a fence.
TEST(ExecFailStop, ThrowingControlProgramAbortsOnBothBackends) {
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  const ApplicationMain app = [fn](core::Context& ctx) {
    const FieldSpaceId fs = ctx.create_field_space();
    const FieldId f = ctx.allocate_field(fs, 8, "x");
    const RegionTreeId tree = ctx.create_region(rt::Rect::r1(0, 63), fs);
    const PartitionId part = ctx.partition_equal(ctx.root(tree), 4);
    core::IndexLaunch l;
    l.fn = fn;
    l.domain = rt::Rect::r1(0, 3);
    l.requirements.push_back(
        rt::GroupRequirement::on_partition(part, {f}, rt::Privilege::ReadWrite));
    ctx.index_launch(l);
    throw std::runtime_error("control program gave up");
  };
  for (std::size_t shards : {1u, 4u}) {
    sim::Machine machine(cluster(shards));
    DcrRuntime sim_rt(machine, functions);
    ThreadConfig cfg;
    cfg.num_shards = shards;
    ThreadRuntime thr_rt(functions, cfg);
    for (const DcrStats& stats : {sim_rt.execute(app), thr_rt.execute(app)}) {
      EXPECT_TRUE(stats.aborted) << shards << " shards";
      EXPECT_FALSE(stats.completed) << shards << " shards";
      EXPECT_EQ(stats.abort_message.rfind("shard ", 0), 0u) << stats.abort_message;
      EXPECT_NE(stats.abort_message.find(": control program gave up"), std::string::npos)
          << stats.abort_message;
    }
  }
}

// --------------------------------------------- differential fuzz sweeps

// 100 seeds x 2 shard counts = 200 fuzzed programs, faults off, sim vs
// threads (the ISSUE's headline acceptance gate).  Registered as the
// aggregate ExecFuzzSweep ctest entry under -L exec.
class ExecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecFuzz, SimAndThreadsProduceIdenticalGraphs) {
  Philox4x32 rng(fuzz::seed_for_label("exec", GetParam()), /*stream=*/11);
  const fuzz::RandomDcrProgram program = fuzz::generate(rng, /*tiles=*/6);
  for (std::size_t shards : {2u, 4u}) {
    FunctionRegistry functions;
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    const ApplicationMain app = fuzz::materialize(program, fn);
    const BackendRun sim_run = run_sim(app, functions, shards);
    const BackendRun thr_run = run_threads(app, functions, shards);
    expect_equivalent(sim_run, thr_run,
                      ("seed " + std::to_string(GetParam()) + " shards " +
                       std::to_string(shards))
                          .c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecFuzz, ::testing::Range<std::uint64_t>(0, 100));

// Smaller sweep with dependence templates AND the statics oracle armed on
// both backends: loop programs under begin/end_trace, so capture, shadow
// validation, and replay all run on real threads and must match the
// simulator's window accounting bit for bit.
class ExecLoopFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecLoopFuzz, TemplatesAndStaticsAgreeAcrossBackends) {
  Philox4x32 rng(fuzz::seed_for_label("exec-loop", GetParam()), /*stream=*/13);
  const fuzz::LoopDcrProgram program = fuzz::generate_loop(rng, /*tiles=*/6);
  DiffOptions opt;
  opt.statics_check = true;  // oracle: cross-check every static verdict
  for (std::size_t shards : {2u, 4u}) {
    FunctionRegistry functions;
    const FunctionId fn = functions.register_simple("t", us(1), 1.0);
    const ApplicationMain app =
        fuzz::materialize_loop(program, fn, /*use_trace=*/true);
    const BackendRun sim_run = run_sim(app, functions, shards, opt);
    const BackendRun thr_run = run_threads(app, functions, shards, opt);
    expect_equivalent(sim_run, thr_run,
                      ("loop seed " + std::to_string(GetParam()) + " shards " +
                       std::to_string(shards))
                          .c_str());
    EXPECT_GT(thr_run.stats.templates_captured, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecLoopFuzz, ::testing::Range<std::uint64_t>(0, 25));

// Elision ablation: with fence elision disabled the graphs must still agree
// (more fences, same dependences) — guards the fence transport specifically.
class ExecNoElideFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecNoElideFuzz, AllFencesBackendAgreement) {
  Philox4x32 rng(fuzz::seed_for_label("exec-noelide", GetParam()), /*stream=*/17);
  const fuzz::RandomDcrProgram program = fuzz::generate(rng, /*tiles=*/6);
  DiffOptions opt;
  opt.disable_fence_elision = true;
  FunctionRegistry functions;
  const FunctionId fn = functions.register_simple("t", us(1), 1.0);
  const ApplicationMain app = fuzz::materialize(program, fn);
  const BackendRun sim_run = run_sim(app, functions, 4, opt);
  const BackendRun thr_run = run_threads(app, functions, 4, opt);
  expect_equivalent(sim_run, thr_run,
                    ("noelide seed " + std::to_string(GetParam())).c_str());
  EXPECT_EQ(thr_run.stats.fences_elided, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecNoElideFuzz, ::testing::Range<std::uint64_t>(0, 10));

// ------------------------------------------------------------- flaky guard

// ISSUE satellite 4: thread-schedule nondeterminism is the enemy this suite
// exists to catch, and a single pass can get lucky.  One ctest entry repeats
// the 8-thread stencil equivalence 20 times so a schedule-dependent
// divergence has 20 chances to fire before a PR lands.
TEST(ExecFlakyGuard, StencilEquivalenceTwentyRuns) {
  FunctionRegistry functions;
  const auto fns = apps::register_stencil_functions(functions, 1.0);
  const apps::StencilConfig app_cfg{.cells_per_tile = 64, .tiles = 8, .steps = 3};
  const ApplicationMain app = apps::make_stencil_app(app_cfg, fns);

  const BackendRun sim_run = run_sim(app, functions, /*shards=*/8);
  ASSERT_TRUE(sim_run.stats.completed);

  for (int run = 0; run < 20; ++run) {
    const BackendRun thr_run = run_threads(app, functions, /*shards=*/8);
    expect_equivalent(sim_run, thr_run, ("stencil run " + std::to_string(run)).c_str());
    if (::testing::Test::HasFailure()) {
      FAIL() << "stencil equivalence diverged on repetition " << run;
    }
  }
}

}  // namespace
}  // namespace dcr::exec
