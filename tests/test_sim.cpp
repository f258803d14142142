// Unit tests for the discrete-event simulator substrate: events, the
// calendar, processes, the network model, collectives, and processors.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/collective.hpp"
#include "sim/machine.hpp"
#include "sim/network.hpp"
#include "sim/processor.hpp"
#include "sim/simulator.hpp"

namespace dcr::sim {
namespace {

// -------------------------------------------------------------------- events

TEST(Event, NoEventIsTriggered) {
  EXPECT_TRUE(Event::no_event().has_triggered());
}

TEST(Event, UserEventTriggerRunsWaiters) {
  UserEvent e;
  int fired = 0;
  e.on_trigger([&] { ++fired; });
  EXPECT_FALSE(e.has_triggered());
  e.trigger(5);
  EXPECT_TRUE(e.has_triggered());
  EXPECT_EQ(e.trigger_time(), 5u);
  EXPECT_EQ(fired, 1);
  // Late waiter runs immediately.
  e.on_trigger([&] { ++fired; });
  EXPECT_EQ(fired, 2);
}

TEST(Event, MergeWaitsForAll) {
  UserEvent a, b;
  Event m = merge_events({a, b});
  EXPECT_FALSE(m.has_triggered());
  a.trigger(3);
  EXPECT_FALSE(m.has_triggered());
  b.trigger(9);
  EXPECT_TRUE(m.has_triggered());
  EXPECT_EQ(m.trigger_time(), 9u);
}

TEST(Event, MergeOfTriggeredEventsKeepsLatestTime) {
  UserEvent a, b;
  a.trigger(3);
  b.trigger(7);
  Event m = merge_events({a, b});
  EXPECT_TRUE(m.has_triggered());
  EXPECT_EQ(m.trigger_time(), 7u);
}

TEST(Event, MergeEmptyIsNoEvent) {
  EXPECT_TRUE(merge_events({}).has_triggered());
}

TEST(Event, MergeOfNeverTriggeredInputsIsFreed) {
  // Inputs that never trigger (an aborted run) must die with their last
  // handle, and take the merged event's waiters with them.
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  {
    UserEvent a, b;
    const Event m = merge_events({a, b});
    m.on_trigger([s = std::move(sentinel)] {});
  }
  EXPECT_TRUE(watch.expired());
}

TEST(Event, MergeOfPartlyTriggeredNestedInputsIsFreed) {
  // One input fires, the other never does: the merge (and a merge built on
  // it) must still die with the never-triggered input.
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  {
    UserEvent a, b;
    const Event inner = merge_events({a, b});
    UserEvent c;
    const Event outer = merge_events({inner, c});
    outer.on_trigger([s = std::move(sentinel)] {});
    a.trigger(1);
    c.trigger(2);
    EXPECT_FALSE(outer.has_triggered());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(Event, MergeWithSameInputTwice) {
  UserEvent a, b;
  const Event twice = merge_events({a, a});
  const Event mixed = merge_events({a, b, a});
  a.trigger(4);
  EXPECT_TRUE(twice.has_triggered());
  EXPECT_EQ(twice.trigger_time(), 4u);
  EXPECT_FALSE(mixed.has_triggered());
  b.trigger(6);
  EXPECT_TRUE(mixed.has_triggered());
  EXPECT_EQ(mixed.trigger_time(), 6u);
}

TEST(Event, WaitersOnDroppedMergedEventStillRun) {
  // The merged event's last handle dies before its inputs trigger; its
  // inputs keep it alive, so its waiters run at the last input's trigger.
  UserEvent a, b;
  int fired = 0;
  int outer_fired = 0;
  {
    const Event m = merge_events({a, b});
    m.on_trigger([&] { ++fired; });
    merge_events({m, a}).on_trigger([&] { ++outer_fired; });
  }
  a.trigger(3);
  EXPECT_EQ(fired + outer_fired, 0);
  b.trigger(8);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(outer_fired, 1);
}

TEST(Event, NestedMergeCascadeRunsCallbacksInOrder) {
  // A merged event fires inside its last input's waiter loop, at the slot
  // where it was registered: "m1" and everything cascading from it run
  // before "b1", which was registered on b after m1's merge.
  UserEvent a, b, c;
  std::vector<std::string> log;
  const auto note = [&log](const char* what) { return [&log, what] { log.push_back(what); }; };
  a.on_trigger(note("a1"));
  const Event m1 = merge_events({a, b});
  a.on_trigger(note("a2"));
  m1.on_trigger(note("m1"));
  const Event m2 = merge_events({m1, a, c});
  b.on_trigger(note("b1"));
  m2.on_trigger(note("m2"));
  const Event m3 = merge_events({m1, b});
  m3.on_trigger(note("m3"));
  const Event m4 = merge_events({m2, m3});
  m4.on_trigger(note("m4"));
  m1.on_trigger(note("m1-late"));
  c.trigger(1);
  a.trigger(2);
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "a2"}));
  b.trigger(3);
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "a2", "m1", "m2", "m1-late", "b1", "m3",
                                           "m4"}));
  for (const Event& e : {m1, m2, m3, m4}) EXPECT_EQ(e.trigger_time(), 3u);
}

// ----------------------------------------------------------------- simulator

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 30u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule(10, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingAdvancesClock) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule(5, [&] {
    EXPECT_EQ(sim.now(), 5u);
    sim.schedule(7, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 12u);
}

TEST(Simulator, TimerEventTriggersAtDeadline) {
  Simulator sim;
  Event t = sim.timer(42);
  sim.run();
  EXPECT_TRUE(t.has_triggered());
  EXPECT_EQ(t.trigger_time(), 42u);
}

// ----------------------------------------------------------------- processes

TEST(Process, DelayAdvancesVirtualTime) {
  Simulator sim;
  std::vector<SimTime> stamps;
  sim.spawn("p", [&](ProcessContext& ctx) {
    stamps.push_back(ctx.now());
    ctx.delay(100);
    stamps.push_back(ctx.now());
    ctx.delay(50);
    stamps.push_back(ctx.now());
  });
  sim.run();
  EXPECT_EQ(stamps, (std::vector<SimTime>{0, 100, 150}));
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Process, WaitOnEvent) {
  Simulator sim;
  UserEvent gate;
  SimTime woke = 0;
  sim.spawn("waiter", [&](ProcessContext& ctx) {
    ctx.wait(gate);
    woke = ctx.now();
  });
  sim.schedule(77, [&] { gate.trigger(sim.now()); });
  sim.run();
  EXPECT_EQ(woke, 77u);
}

TEST(Process, WaitOnTriggeredEventReturnsImmediately) {
  Simulator sim;
  sim.spawn("p", [&](ProcessContext& ctx) {
    ctx.wait(Event::no_event());
    EXPECT_EQ(ctx.now(), 0u);
  });
  sim.run();
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  sim.spawn("a", [&](ProcessContext& ctx) {
    for (int i = 0; i < 3; ++i) {
      log.push_back("a" + std::to_string(i));
      ctx.delay(10);
    }
  });
  sim.spawn("b", [&](ProcessContext& ctx) {
    ctx.delay(5);
    for (int i = 0; i < 3; ++i) {
      log.push_back("b" + std::to_string(i));
      ctx.delay(10);
    }
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, CompletionEvent) {
  Simulator sim;
  auto& p = sim.spawn("p", [&](ProcessContext& ctx) { ctx.delay(30); });
  SimTime done_at = kTimeNever;
  p.completion().on_trigger([&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, 30u);
  EXPECT_TRUE(p.finished());
}

TEST(Process, BlockedProcessKilledCleanlyOnTeardown) {
  // A process stuck on a never-triggered event must not hang destruction,
  // and its stack must unwind (destructor observed).
  bool unwound = false;
  {
    Simulator sim;
    UserEvent never;
    sim.spawn("stuck", [&](ProcessContext& ctx) {
      struct Sentinel {
        bool* flag;
        ~Sentinel() { *flag = true; }
      } s{&unwound};
      ctx.wait(never);
    });
    sim.run();
    EXPECT_EQ(sim.live_processes(), 1u);
  }
  EXPECT_TRUE(unwound);
}

TEST(Process, KilledBeforeStartNeverRunsBody) {
  Simulator sim;
  bool ran = false;
  bool completed = false;
  auto& p = sim.spawn("late", [&](ProcessContext&) { ran = true; }, /*start_delay=*/100);
  p.completion().on_trigger([&] { completed = true; });
  sim.schedule(10, [&] { p.kill(); });
  sim.run();
  EXPECT_TRUE(p.finished());
  EXPECT_FALSE(ran);
  EXPECT_FALSE(completed);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Process, KillFromAnotherProcessReturnsToTheKiller) {
  // The victim unwinds on its own stack, then control comes back to the
  // killer's body (not to the calendar loop), which keeps running.
  Simulator sim;
  UserEvent never;
  bool unwound = false;
  std::vector<SimTime> killer_stamps;
  auto& victim = sim.spawn("victim", [&](ProcessContext& ctx) {
    struct Sentinel {
      bool* flag;
      ~Sentinel() { *flag = true; }
    } s{&unwound};
    ctx.wait(never);
  });
  bool victim_completed = false;
  victim.completion().on_trigger([&] { victim_completed = true; });
  sim.spawn("killer", [&](ProcessContext& ctx) {
    ctx.delay(20);
    victim.kill();
    killer_stamps.push_back(ctx.now());
    EXPECT_TRUE(unwound);
    EXPECT_TRUE(victim.finished());
    ctx.delay(5);
    killer_stamps.push_back(ctx.now());
  });
  EXPECT_EQ(sim.run(), 25u);
  EXPECT_EQ(killer_stamps, (std::vector<SimTime>{20, 25}));
  EXPECT_FALSE(victim_completed);
  EXPECT_EQ(sim.live_processes(), 0u);
}

// Recurses through `depth` frames of at least `kFrameBytes` each.  Every
// frame reads its array after the recursive call returns, at an index that
// depends on the result, so no frame can be elided or turned into a loop.
constexpr std::size_t kFrameBytes = 1024;
std::uint64_t deep_stack(std::size_t depth) {
  volatile unsigned char frame[kFrameBytes];
  for (std::size_t i = 0; i < kFrameBytes; ++i) frame[i] = static_cast<unsigned char>(depth + i);
  if (depth == 0) return frame[0];
  const std::uint64_t below = deep_stack(depth - 1);
  return below + frame[below % kFrameBytes];
}

TEST(Process, BodyCanUseMoreThanAMebibyteOfStack) {
  Simulator sim;
  std::uint64_t sum = 0;
  auto& p = sim.spawn("deep", [&](ProcessContext& ctx) {
    ctx.delay(1);
    sum = deep_stack(1536);  // 1.5 MiB of frames
    ctx.delay(1);
  });
  sim.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(sum, deep_stack(1536));
}

TEST(Process, FourThousandProcessesSpawnBlockAndFinish) {
  // The top of the shard sweep: every process blocks on a shared gate, then
  // staggers its finish.
  constexpr std::size_t kProcs = 4096;
  Simulator sim;
  UserEvent gate;
  std::size_t finished_bodies = 0;
  for (std::size_t i = 0; i < kProcs; ++i) {
    sim.spawn("p" + std::to_string(i), [&, i](ProcessContext& ctx) {
      ctx.wait(gate);
      ctx.delay(1 + i % 7);
      ++finished_bodies;
    });
  }
  sim.schedule(50, [&] {
    EXPECT_EQ(sim.live_processes(), kProcs);
    gate.trigger(sim.now());
  });
  EXPECT_EQ(sim.run(), 57u);
  EXPECT_EQ(finished_bodies, kProcs);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Process, BodyExceptionIsRethrownFromRun) {
  Simulator sim;
  bool completed = false;
  auto& p = sim.spawn("thrower", [&](ProcessContext& ctx) {
    ctx.delay(10);
    throw std::runtime_error("shard body failed");
  });
  p.completion().on_trigger([&] { completed = true; });
  try {
    sim.run();
    FAIL() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard body failed");
  }
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_TRUE(p.finished());
  EXPECT_FALSE(completed);
}

TEST(Process, BlockedProcessesUnwindAfterABodyThrows) {
  // One body throws while others are blocked: run() rethrows, and the
  // blocked ones still unwind when the simulator is destroyed.
  int unwound = 0;
  {
    Simulator sim;
    UserEvent never;
    for (int i = 0; i < 3; ++i) {
      sim.spawn("stuck" + std::to_string(i), [&](ProcessContext& ctx) {
        struct Sentinel {
          int* count;
          ~Sentinel() { ++*count; }
        } s{&unwound};
        ctx.wait(never);
      });
    }
    sim.spawn("thrower", [&](ProcessContext& ctx) {
      ctx.delay(5);
      throw std::logic_error("boom");
    });
    EXPECT_THROW(sim.run(), std::logic_error);
    EXPECT_EQ(sim.live_processes(), 3u);
    EXPECT_EQ(unwound, 0);
  }
  EXPECT_EQ(unwound, 3);
}

TEST(Process, WaitAtLeastChargesMinimum) {
  Simulator sim;
  UserEvent fast;
  fast.trigger(0);
  sim.spawn("p", [&](ProcessContext& ctx) {
    ctx.wait_at_least(fast, 25);
    EXPECT_EQ(ctx.now(), 25u);
  });
  sim.run();
}

// ------------------------------------------------------------------- network

TEST(Network, LatencyBandwidthModel) {
  Simulator sim;
  Network net(sim, 2, {.alpha = us(1), .ns_per_byte = 1.0, .local_latency = ns(50)});
  Event e = net.send(NodeId(0), NodeId(1), 1000);
  sim.run();
  // serialization 1000ns + alpha 1000ns
  EXPECT_EQ(e.trigger_time(), us(2));
}

TEST(Network, LocalSendIsCheap) {
  Simulator sim;
  Network net(sim, 2, {.alpha = us(1), .ns_per_byte = 1.0, .local_latency = ns(50)});
  Event e = net.send(NodeId(1), NodeId(1), 1 << 20);
  sim.run();
  EXPECT_EQ(e.trigger_time(), ns(50));
  EXPECT_EQ(net.stats().local_messages, 1u);
  EXPECT_EQ(net.stats().messages, 0u);
}

TEST(Network, EgressSerializesBackToBackSends) {
  Simulator sim;
  Network net(sim, 3, {.alpha = us(1), .ns_per_byte = 1.0, .local_latency = ns(50)});
  Event e1 = net.send(NodeId(0), NodeId(1), 1000);
  Event e2 = net.send(NodeId(0), NodeId(2), 1000);  // queued behind e1 on egress
  sim.run();
  EXPECT_EQ(e1.trigger_time(), us(2));
  EXPECT_EQ(e2.trigger_time(), us(3));  // waits 1000ns for the NIC
}

TEST(Network, IngressContention) {
  Simulator sim;
  Network net(sim, 3, {.alpha = us(1), .ns_per_byte = 1.0, .local_latency = ns(50)});
  Event e1 = net.send(NodeId(0), NodeId(2), 1000);
  Event e2 = net.send(NodeId(1), NodeId(2), 1000);
  sim.run();
  EXPECT_EQ(e1.trigger_time(), us(2));
  // Second message must serialize through node 2's ingress.
  EXPECT_EQ(e2.trigger_time(), us(3));
}

TEST(Network, StatsAccumulate) {
  Simulator sim;
  Network net(sim, 2, {});
  net.send(NodeId(0), NodeId(1), 100);
  net.send(NodeId(1), NodeId(0), 200);
  sim.run();
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 300u);
}

TEST(Network, CopyWaitsForPrecondition) {
  Simulator sim;
  Network net(sim, 2, {.alpha = us(1), .ns_per_byte = 0.0, .local_latency = ns(50)});
  UserEvent pre;
  Event done = net.copy(NodeId(0), NodeId(1), 64, pre);
  sim.schedule(ms(1), [&] { pre.trigger(sim.now()); });
  sim.run();
  EXPECT_EQ(done.trigger_time(), ms(1) + us(1));
}

// ---------------------------------------------------------------- collective

TEST(Collective, AllReduceCombinesAllValues) {
  Simulator sim;
  Network net(sim, 4, {.alpha = us(1), .ns_per_byte = 0.0, .local_latency = ns(50)});
  std::vector<NodeId> nodes{NodeId(0), NodeId(1), NodeId(2), NodeId(3)};
  Collective<int> coll(sim, net, nodes, CollectiveKind::AllReduce, 8,
                       [](int a, int b) { return a + b; });
  std::vector<Event> done;
  for (std::size_t r = 0; r < 4; ++r) done.push_back(coll.arrive(r, int(1 << r)));
  sim.run();
  for (auto& e : done) EXPECT_TRUE(e.has_triggered());
  EXPECT_EQ(coll.result(), 0b1111);
}

TEST(Collective, AllReduceLatencyIsLogarithmic) {
  // With zero bandwidth cost and alpha=1us, an N-rank binomial-tree
  // reduce+broadcast completes in <= 2*ceil(log2 N) * alpha.
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    Simulator sim;
    Network net(sim, n, {.alpha = us(1), .ns_per_byte = 0.0, .local_latency = ns(50)});
    std::vector<NodeId> nodes;
    for (std::size_t i = 0; i < n; ++i) nodes.push_back(NodeId(static_cast<std::uint32_t>(i)));
    Collective<int> coll(sim, net, nodes, CollectiveKind::AllReduce, 0,
                         [](int a, int b) { return a + b; });
    Event last;
    for (std::size_t r = 0; r < n; ++r) last = coll.arrive(r, 1);
    const SimTime end = sim.run();
    std::size_t log2n = 0;
    while ((1u << log2n) < n) ++log2n;
    EXPECT_LE(end, 2 * log2n * us(1) + us(1)) << "n=" << n;
    EXPECT_EQ(coll.result(), static_cast<int>(n));
  }
}

TEST(Collective, StraggledArrivalGatesCompletion) {
  Simulator sim;
  Network net(sim, 2, {.alpha = us(1), .ns_per_byte = 0.0, .local_latency = ns(50)});
  Collective<int> coll(sim, net, {NodeId(0), NodeId(1)}, CollectiveKind::AllReduce, 4,
                       [](int a, int b) { return a + b; });
  Event e0 = coll.arrive(0, 10);
  sim.schedule(ms(5), [&] { coll.arrive(1, 20); });
  sim.run();
  EXPECT_GE(e0.trigger_time(), ms(5));
  EXPECT_EQ(coll.result(), 30);
}

TEST(Collective, BroadcastDeliversRootValueWithoutWaiting) {
  Simulator sim;
  Network net(sim, 4, {.alpha = us(1), .ns_per_byte = 0.0, .local_latency = ns(50)});
  std::vector<NodeId> nodes{NodeId(0), NodeId(1), NodeId(2), NodeId(3)};
  Collective<int> coll(sim, net, nodes, CollectiveKind::Broadcast, 4,
                       [](int a, int) { return a; });
  Event e3 = coll.arrive(3, 0);   // non-root arrives first with dummy value
  Event e0 = coll.arrive(0, 99);
  sim.run();
  EXPECT_TRUE(e0.has_triggered());
  EXPECT_TRUE(e3.has_triggered());
  EXPECT_EQ(coll.result(), 99);
}

TEST(Collective, AllGatherConcatenates) {
  Simulator sim;
  Network net(sim, 3, {.alpha = us(1), .ns_per_byte = 0.0, .local_latency = ns(50)});
  std::vector<NodeId> nodes{NodeId(0), NodeId(1), NodeId(2)};
  using Vec = std::vector<int>;
  Collective<Vec> coll(sim, net, nodes, CollectiveKind::AllGather, 4,
                       [](Vec a, Vec b) {
                         a.insert(a.end(), b.begin(), b.end());
                         return a;
                       });
  for (std::size_t r = 0; r < 3; ++r) coll.arrive(r, Vec{static_cast<int>(r)});
  sim.run();
  Vec got = coll.result();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (Vec{0, 1, 2}));
}

TEST(FenceCollective, ActsAsBarrier) {
  Simulator sim;
  Network net(sim, 4, {.alpha = us(1), .ns_per_byte = 0.0, .local_latency = ns(50)});
  std::vector<NodeId> nodes{NodeId(0), NodeId(1), NodeId(2), NodeId(3)};
  FenceCollective fence(sim, net, nodes);
  std::vector<Event> done(4);
  done[0] = fence.arrive(0);
  done[1] = fence.arrive(1);
  done[2] = fence.arrive(2);
  sim.schedule(ms(2), [&] { done[3] = fence.arrive(3); });
  sim.run();
  for (auto& e : done) {
    EXPECT_TRUE(e.has_triggered());
    EXPECT_GE(e.trigger_time(), ms(2));  // nobody passes before the straggler
  }
}

// ----------------------------------------------------------------- processor

TEST(Processor, RunsTasksFifo) {
  Simulator sim;
  Processor proc(sim, ProcId(0), NodeId(0), ProcKind::Compute);
  Event e1 = proc.enqueue(100);
  Event e2 = proc.enqueue(50);
  sim.run();
  EXPECT_EQ(e1.trigger_time(), 100u);
  EXPECT_EQ(e2.trigger_time(), 150u);
  EXPECT_EQ(proc.tasks_run(), 2u);
  EXPECT_EQ(proc.busy_time(), 150u);
}

TEST(Processor, PreconditionGatesStart) {
  Simulator sim;
  Processor proc(sim, ProcId(0), NodeId(0), ProcKind::Compute);
  Event t = sim.timer(500);
  Event e = proc.enqueue(100, t);
  sim.run();
  EXPECT_EQ(e.trigger_time(), 600u);
}

TEST(Processor, BodyRunsAtCompletion) {
  Simulator sim;
  Processor proc(sim, ProcId(0), NodeId(0), ProcKind::Compute);
  SimTime body_at = kTimeNever;
  proc.enqueue(70, Event::no_event(), [&] { body_at = sim.now(); });
  sim.run();
  EXPECT_EQ(body_at, 70u);
}

TEST(Processor, IndependentTasksOverlapAcrossProcessors) {
  Simulator sim;
  Processor p0(sim, ProcId(0), NodeId(0), ProcKind::Compute);
  Processor p1(sim, ProcId(1), NodeId(0), ProcKind::Compute);
  Event a = p0.enqueue(100);
  Event b = p1.enqueue(100);
  EXPECT_EQ(sim.run(), 100u);
  EXPECT_TRUE(a.has_triggered() && b.has_triggered());
}

// ------------------------------------------------------------------- machine

TEST(Machine, Topology) {
  Machine m({.num_nodes = 4, .compute_procs_per_node = 2, .network = {}});
  EXPECT_EQ(m.num_nodes(), 4u);
  EXPECT_EQ(m.total_compute_procs(), 8u);
  EXPECT_EQ(m.analysis_proc(NodeId(2)).kind(), ProcKind::Analysis);
  EXPECT_EQ(m.compute_proc(NodeId(3), 1).node(), NodeId(3));
  // Global indexing covers every processor exactly once.
  std::set<std::uint32_t> ids;
  for (std::size_t i = 0; i < m.total_compute_procs(); ++i) {
    ids.insert(m.global_compute_proc(i).id().value);
  }
  EXPECT_EQ(ids.size(), 8u);
}

TEST(Processor, StatsResetClearsCounters) {
  Simulator sim;
  Processor proc(sim, ProcId(0), NodeId(0), ProcKind::Compute);
  proc.enqueue(100);
  sim.run();
  EXPECT_EQ(proc.tasks_run(), 1u);
  proc.reset_stats();
  EXPECT_EQ(proc.tasks_run(), 0u);
  EXPECT_EQ(proc.busy_time(), 0u);
}

TEST(Network, StatsReset) {
  Simulator sim;
  Network net(sim, 2, {});
  net.send(NodeId(0), NodeId(1), 100);
  sim.run();
  EXPECT_EQ(net.stats().messages, 1u);
  net.reset_stats();
  EXPECT_EQ(net.stats().messages, 0u);
  EXPECT_EQ(net.stats().bytes, 0u);
}

TEST(Simulator, IdenticalRunsAreBitIdentical) {
  auto run = [] {
    Simulator sim;
    Network net(sim, 4, {.alpha = us(1), .ns_per_byte = 0.5, .local_latency = ns(50)});
    std::vector<SimTime> deliveries;
    for (int i = 0; i < 20; ++i) {
      net.send(NodeId(static_cast<std::uint32_t>(i % 4)),
               NodeId(static_cast<std::uint32_t>((i + 1) % 4)),
               static_cast<std::uint64_t>(100 + i * 37))
          .on_trigger([&deliveries, &sim] { deliveries.push_back(sim.now()); });
    }
    sim.run();
    return deliveries;
  };
  EXPECT_EQ(run(), run());
}

TEST(Machine, TotalComputeBusyAggregates) {
  Machine m({.num_nodes = 2, .compute_procs_per_node = 1, .network = {}});
  m.compute_proc(NodeId(0), 0).enqueue(100);
  m.compute_proc(NodeId(1), 0).enqueue(250);
  m.sim().run();
  EXPECT_EQ(m.total_compute_busy(), 350u);
}

}  // namespace
}  // namespace dcr::sim
