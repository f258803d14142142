#include "exec/thread_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/hash128.hpp"
#include "dcr/sig.hpp"
#include "spy/verify.hpp"

namespace dcr::exec {

using core::AttachPayload;
using core::CoarseDecision;
using core::DeletePayload;
using core::FillPayload;
using core::IndexPayload;
using core::OpRecord;
using core::ReducePayload;
using core::TaskPayload;
using core::TemplateManager;

// ===========================================================================
// ThreadShardContext: the threads backend's hooks under the shared front end
// (dcr/front_end.hpp).  Every shard replays creations on its own forest
// replica; the handles agree across shards by control determinism.
// ===========================================================================
class ThreadShardContext final : public core::ShardFrontEnd {
 public:
  ThreadShardContext(ThreadRuntime& rt, ThreadRuntime::ThreadShard& st)
      : ShardFrontEnd(rt.front_end_env_, st), rt_(rt), st_(st) {}

  void destroy_region_deferred(RegionTreeId tree) override {
    (void)tree;
    DCR_CHECK(false) << "destroy_region_deferred is not supported on the threads backend "
                        "(no deferred-deletion consensus poller); use destroy_region";
  }

  SimTime now() const override { return rt_.clock_.now(); }

 private:
  // Instead of the simulator's per-call collective check, each thread folds
  // its hash stream into a running 128-bit digest compared across shards at
  // join — same detection guarantee, no cross-thread traffic on the hot path.
  bool check_call(const char* /*name*/, const Hash128& h) override {
    if (rt_.config_.determinism_checks) {
      rt_.determinism_checks_.fetch_add(1, std::memory_order_relaxed);
      Hasher128 fold;
      fold.value(st_.call_fold.lo).value(st_.call_fold.hi).value(h.lo).value(h.hi);
      st_.call_fold = fold.finish();
    }
    return true;
  }

  void submit(const OpRecord& op) override { rt_.submit_op(st_, op); }

  double wait_future(const core::Future& f, dcr::scope::TraceCtx& releaser) override {
    ThreadRuntime::FutureEntry entry;
    {
      std::lock_guard<std::mutex> lk(rt_.futures_mu_);
      auto it = rt_.futures_.find(f.id);
      DCR_CHECK(it != rt_.futures_.end()) << "future " << f.id << " has no producer";
      entry = it->second;
    }
    if (entry.reduce) {
      const double v = entry.coll->wait();
      // Merged context of the fan-in: the globally last contributor.
      if (rt_.scope_) releaser = entry.coll->result_ctx();
      return v;
    }
    const ThreadRuntime::CachedFuture cf = rt_.wait_broadcast(st_, f.id);
    releaser = cf.ctx;
    return cf.value;
  }

  // The answer races real thread progress here, where the simulator's
  // depends on virtual time.
  bool poll_future(const core::Future& f) override {
    ThreadRuntime::FutureEntry entry;
    {
      std::lock_guard<std::mutex> lk(rt_.futures_mu_);
      auto it = rt_.futures_.find(f.id);
      if (it == rt_.futures_.end()) return false;
      entry = it->second;
    }
    if (entry.reduce) return entry.coll->ready();
    rt_.drain_inbox(st_);
    return st_.future_cache.count(f.id) != 0;
  }

  // drain_execution and window_epochs keep the front end's defaults.  The
  // fence op's coarse decision is a pipeline barrier (it fences on the
  // previous op) and ops execute inline, so once the fence op is submitted
  // every shard has executed every prior op's owned points.  No recovery or
  // deferred-deletion epochs exist on this backend, so a template window
  // keys on the forest mutation epoch alone.

  ThreadRuntime& rt_;
  ThreadRuntime::ThreadShard& st_;
};

// ===========================================================================
// ThreadRuntime
// ===========================================================================

namespace {
// record_trace needs the realized graph's edges, so it implies
// record_task_graph; normalized before any member (tracker_) consumes it.
ThreadConfig normalize_config(ThreadConfig config) {
  if (config.record_trace) config.record_task_graph = true;
  if (config.num_shards == 0) config.num_shards = 1;
  return config;
}
}  // namespace

ThreadRuntime::ThreadRuntime(core::FunctionRegistry& functions, ThreadConfig config)
    : functions_(functions),
      config_(normalize_config(std::move(config))),
      profiler_(config_.num_shards, config_.profile),
      tracker_(/*keep_completed=*/config_.record_task_graph) {
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    auto st = std::make_unique<ThreadShard>();
    st->id = ShardId(static_cast<std::uint32_t>(s));
    st->forest = &st->own_forest;
    st->shardings = &st->own_shardings;
    st->prover = std::make_unique<statics::InterferenceProver>(st->own_forest, projections_,
                                                               config_.statics_check);
    st->inbox.reserve(config_.num_shards);
    for (std::size_t p = 0; p < config_.num_shards; ++p) {
      st->inbox.push_back(p == s ? nullptr
                                 : std::make_unique<SpscQueue<FutureMsg>>(
                                       config_.mailbox_capacity));
    }
    shards_.push_back(std::move(st));
  }
  if (config_.record_trace) {
    trace_ = std::make_unique<spy::Trace>();
    trace_->num_shards = config_.num_shards;
    trace_->calls.resize(config_.num_shards);
  }
  if (config_.scope) {
    scope_ = std::make_unique<dcr::scope::Recorder>(config_.num_shards);
    if (config_.flight_capacity > 0) {
      flight_ = std::make_unique<dcr::scope::FlightRecorder>(
          config_.num_shards, config_.flight_capacity);
      scope_->set_flight(flight_.get());
      // Fatal-signal hook: a wedged or crashing fleet (SIGSEGV/SIGABRT/
      // SIGBUS/SIGFPE on any shard thread) still leaves a post-mortem dump.
      if (!config_.flight_path.empty()) {
        dcr::scope::FlightRecorder::arm_signal_dump(
            flight_.get(), config_.flight_path, &profiler_);
      }
    }
  }
  front_end_env_ = {.profiler = &profiler_,
                    .clock = &clock_,
                    .projections = &projections_,
                    .trace = trace_.get(),
                    .scope = scope_.get(),
                    .mapper = config_.mapper,
                    .num_shards = config_.num_shards,
                    .tracing_enabled = config_.tracing_enabled,
                    .template_validation = config_.template_validation,
                    .auto_trace = config_.auto_trace.enabled};
}

ThreadRuntime::~ThreadRuntime() {
  if (flight_ && !config_.flight_path.empty()) {
    dcr::scope::FlightRecorder::arm_signal_dump(nullptr, {}, nullptr);
  }
}

ShardingId ThreadRuntime::register_sharding(core::ShardingRegistry::ShardingFn fn) {
  DCR_CHECK(!executed_) << "register shardings before execute()";
  ShardingId id = ShardingId::invalid();
  for (auto& st : shards_) {
    const ShardingId got = st->own_shardings.register_sharding(fn);
    if (!id.valid()) id = got;
    DCR_CHECK(got.value == id.value) << "sharding registries diverged";
  }
  return id;
}

core::TemplateManager& ThreadRuntime::shard_templates(ShardId s) {
  return shard(s).templates;
}

const core::TraceIdentifier& ThreadRuntime::shard_auto_tracer(ShardId s) {
  return shard(s).auto_tracer;
}

// ----------------------------------------------------------- coarse stage

CoarseDecision ThreadRuntime::coarse_decision(ThreadShard& st, const OpRecord& op) {
  std::lock_guard<std::mutex> lk(analysis_mu_);
  bool fresh = false;
  // The calling shard's forest/prover stand in for the simulator's shared
  // ones: every replica is at the same program point when its shard first
  // reaches this op, so whichever shard computes the decision sees identical
  // region state (control determinism).  Later shards hit the cache.
  const CoarseDecision& dec = coarse_.decide(op, *st.forest, *st.prover, statics_ledger_,
                                             single_op_owner(op.id), &fresh);
  if (fresh) core::emit_coarse_decision(op, dec, analysis_stats_, trace_.get());
  return dec;  // copy: the cache must not be read outside the lock
}

CoarseDecision ThreadRuntime::install_replayed_decision(const OpRecord& op) {
  std::lock_guard<std::mutex> lk(analysis_mu_);
  bool fresh = false;
  const CoarseDecision& dec = coarse_.install_replayed(op, statics_ledger_, &fresh);
  if (fresh) core::emit_coarse_decision(op, dec, analysis_stats_, trace_.get());
  return dec;
}

// ------------------------------------------------------------- collectives

std::shared_ptr<FenceCollective> ThreadRuntime::fence_for(OpId dependent) {
  std::lock_guard<std::mutex> lk(fences_mu_);
  auto it = fences_.find(dependent.value);
  if (it == fences_.end()) {
    it = fences_
             .emplace(dependent.value, std::make_shared<FenceCollective>(
                                           static_cast<std::uint32_t>(num_shards())))
             .first;
    profiler_.global().add(prof::GlobalCounter::FenceCollectives);
    profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  }
  return it->second;
}

void ThreadRuntime::ensure_future(std::uint64_t id, OpId producer) {
  std::lock_guard<std::mutex> lk(futures_mu_);
  auto [it, inserted] = futures_.try_emplace(id);
  if (!inserted) return;
  profiler_.global().add(prof::GlobalCounter::FutureCollectives);
  profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  // Single-task futures broadcast from the owner shard (§4.2); delivery is
  // the SPSC mailbox fabric, so no collective object is needed.
  it->second.reduce = false;
  it->second.owner = single_op_owner(producer);
}

void ThreadRuntime::ensure_reduce_future(std::uint64_t id, core::ReduceOp rop) {
  std::lock_guard<std::mutex> lk(futures_mu_);
  auto [it, inserted] = futures_.try_emplace(id);
  if (!inserted) return;
  profiler_.global().add(prof::GlobalCounter::FutureCollectives);
  profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  double init = 0.0;
  switch (rop) {
    case core::ReduceOp::Sum: init = 0.0; break;
    case core::ReduceOp::Min: init = std::numeric_limits<double>::infinity(); break;
    case core::ReduceOp::Max: init = -std::numeric_limits<double>::infinity(); break;
  }
  it->second.reduce = true;
  it->second.owner = ShardId(0);
  it->second.coll = std::make_shared<ValueCollective>(
      static_cast<std::uint32_t>(num_shards()), init,
      [rop](double a, double b) { return core::apply_reduce(rop, a, b); });
}

dcr::scope::TraceCtx ThreadRuntime::scope_ctx(const ThreadShard& st) const {
  if (!scope_) return {};
  return scope_->current_ctx(st.id.value, clock_.now());
}

void ThreadRuntime::publish_future(ThreadShard& st, std::uint64_t id, double value) {
  // The producer's current span rides the mailbox payload so a waiter can
  // name the span that released it (the threads analogue of the simulator's
  // network-carried TraceCtx).
  const dcr::scope::TraceCtx ctx = scope_ctx(st);
  st.future_cache[id] = CachedFuture{value, ctx};
  for (auto& tp : shards_) {
    ThreadShard& peer = *tp;
    if (peer.id.value == st.id.value) continue;
    // try_push then overflow: the producer must never block on a slow
    // consumer — the consumer may be parked at a fence that needs this
    // producer's arrival to complete.
    if (!peer.inbox[st.id.value]->try_push(FutureMsg{id, value, ctx})) {
      std::lock_guard<std::mutex> lk(peer.overflow_mu);
      peer.overflow.push_back(FutureMsg{id, value, ctx});
    }
    peer.doorbell.fetch_add(1, std::memory_order_release);
    peer.doorbell.notify_all();
    // One logical message per peer delivery, counted against the origin.
    if (scope_) scope_->on_message(ctx, sizeof(FutureMsg));
  }
}

void ThreadRuntime::drain_inbox(ThreadShard& st) {
  for (auto& q : st.inbox) {
    if (!q) continue;
    while (auto m = q->try_pop()) st.future_cache[m->id] = CachedFuture{m->value, m->ctx};
  }
  std::vector<FutureMsg> spill;
  {
    std::lock_guard<std::mutex> lk(st.overflow_mu);
    spill.swap(st.overflow);
  }
  for (const FutureMsg& m : spill) st.future_cache[m.id] = CachedFuture{m.value, m.ctx};
}

ThreadRuntime::CachedFuture ThreadRuntime::wait_broadcast(ThreadShard& st,
                                                          std::uint64_t id) {
  for (;;) {
    auto it = st.future_cache.find(id);
    if (it != st.future_cache.end()) return it->second;
    // Doorbell generation loaded BEFORE the drain: a publish racing with the
    // drain bumps the generation, so the wait below returns immediately.
    const std::uint64_t gen = st.doorbell.load(std::memory_order_acquire);
    drain_inbox(st);
    auto it2 = st.future_cache.find(id);
    if (it2 != st.future_cache.end()) return it2->second;
    st.doorbell.wait(gen, std::memory_order_acquire);
  }
}

// ----------------------------------------------------------------- issuing

void ThreadRuntime::submit_op(ThreadShard& st, const OpRecord& op) {
  // Futures are created eagerly at issue so the control program can wait on
  // them before any shard's execution has reached the producing op.
  if (const auto* task = std::get_if<TaskPayload>(&op.payload)) {
    if (task->future_id != ~0ull) ensure_future(task->future_id, op.id);
  } else if (const auto* red = std::get_if<ReducePayload>(&op.payload)) {
    ensure_reduce_future(red->future_id, red->op);
  }
  if (op.traced) traced_ops_.fetch_add(1, std::memory_order_relaxed);
  if (op.tmode == TemplateManager::Mode::Replay && op.trec != nullptr) {
    install_replayed_decision(op);
  }
  process_op(st, op);
}

void ThreadRuntime::process_op(ThreadShard& st, const OpRecord& op) {
  // ---- coarse stage: the shared analyzer; replayed ops hit the cache ----
  const SimTime c0 = clock_.now();
  const CoarseDecision dec = coarse_decision(st, op);
  st.record_template_op(op, dec);

  const std::uint64_t prof_iter = st.prof_iter();
  prof::Counters& pc = profiler_.shard(st.id.value);
  const SimTime c1 = clock_.now();
  pc.add(op.traced ? prof::Counter::TracedCoarseOps : prof::Counter::CoarseOps);
  pc.add(prof::Counter::CoarseAnalysisNs, c1 - c0);  // real wall ns here
  pc.observe(prof::Hist::CoarseStageNs, c1 - c0);
  profiler_.emit({op.traced ? prof::SpanKind::CoarseReplay : prof::SpanKind::CoarseAnalysis,
                  prof::Lane::Analysis, st.id.value, c0, c1, op.id.value, prof_iter});

  // ---- fence gating: every shard processes every op, so every shard
  //      arrives; identical decision streams make the barrier order safe ----
  if (!dec.fence_sources.empty()) {
    pc.add(prof::Counter::FenceWaits);
    std::shared_ptr<FenceCollective> coll = fence_for(op.id);
    const SimTime w0 = clock_.now();
    if (scope_) {
      // Blame stamping: the SAME w0/w1 clock reads feed both the prof
      // FenceWaitNs charge below and the collective's per-rank blame slots,
      // so the two ledgers reconcile exactly by construction.
      const dcr::scope::TraceCtx ctx =
          scope_->fence_arrival(op.id.value, st.id.value, prof_iter, w0);
      coll->arrive_and_wait(st.id.value, w0, ctx);
    } else {
      coll->arrive_and_wait();
    }
    const SimTime w1 = clock_.now();
    if (scope_) {
      coll->complete_rank(st.id.value, w1);
      scope_->on_fence_wait(st.id.value, op.id.value, w0, w1);
    }
    pc.add(prof::Counter::FenceWaitNs, w1 - w0);
    pc.observe(prof::Hist::FenceWaitNs, w1 - w0);
    profiler_.emit({prof::SpanKind::FenceWait, prof::Lane::Fence, st.id.value, w0, w1,
                    op.id.value, prof_iter});
  }

  // ---- fine stage: the same owned-point accounting as the simulator ----
  const std::uint64_t owned = st.owned_points(op, num_shards());
  const bool static_skip = dec.static_skip && !op.traced;
  const SimTime f0 = clock_.now();
  pc.add(op.traced ? prof::Counter::TracedFineOps : prof::Counter::FineOps);
  pc.add(prof::Counter::FinePoints, owned);
  if (static_skip) {
    pc.add(prof::Counter::StaticSkipOps);
    pc.add(prof::Counter::StaticSkipPoints, owned);
    // No virtual cost model here, so no SavedNs estimate is charged.
  }
  execute_points(st, op, dec);
  const SimTime f1 = clock_.now();
  pc.add(prof::Counter::FineAnalysisNs, f1 - f0);
  pc.observe(prof::Hist::FineStageNs, f1 - f0);
  pc.observe(prof::Hist::FinePointsPerOp, owned);
  profiler_.emit({op.traced ? prof::SpanKind::FineReplay : prof::SpanKind::FineAnalysis,
                  prof::Lane::Analysis, st.id.value, f0, f1, op.id.value, prof_iter});
  if (scope_) {
    // The completed fine stage becomes this shard's current span — the
    // causal parent of every launch/arrival/publish it does next.
    scope_->on_fine_stage(st.id.value, op.id.value, op.traced, f0, f1);
  }
}

// --------------------------------------------------------------- execution

void ThreadRuntime::execute_points(ThreadShard& st, const OpRecord& op,
                                   const CoarseDecision& dec) {
  (void)dec;

  if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    const core::IndexLaunch& launch = index->launch;
    if (index->future_map_id != ~0ull) {
      st.fm_partials.try_emplace(index->future_map_id);  // identity partials
    }
    st.for_each_owned_point(launch, op.plan.get(), projections_, num_shards(),
                            [&](const rt::Point& p, std::uint64_t point_index,
                                const std::vector<rt::Requirement>& reqs) {
                              launch_point_task(st, op, p, point_index, reqs, launch.args,
                                                launch.fn, index->future_map_id);
                            });
    return;
  }

  if (const auto* task = std::get_if<TaskPayload>(&op.payload)) {
    if (single_op_owner(op.id) == st.id) {
      rt::Point p;
      p.dim = 1;
      launch_point_task(st, op, p, 0, task->launch.requirements, task->launch.args,
                        task->launch.fn, ~0ull, task->future_id);
    }
    return;
  }

  if (const auto* fill = std::get_if<FillPayload>(&op.payload)) {
    if (single_op_owner(op.id) != st.id) return;
    const rt::Rect rect = st.forest->bounds(fill->region);
    const RegionTreeId tree = st.forest->tree_of(fill->region);
    const TaskId tid(op.id.value * core::kPointsPerOp);
    if (config_.record_task_graph) {
      std::lock_guard<std::mutex> lk(graph_mu_);
      for (FieldId f : fill->fields) {
        auto conflicts = tracker_.record_use(tree, f, rect, rt::Privilege::WriteDiscard,
                                             rt::kNoRedop, tid, sim::Event::no_event());
        record_realized_locked(tid, op.id, 0, conflicts.tasks);
      }
      if (trace_) {
        trace_->tasks.push_back(
            {tid, op.id, 0, st.id,
             {{tree, rect, fill->fields, rt::Privilege::WriteDiscard, rt::kNoRedop}}});
      }
    }
    return;
  }

  if (const auto* attach = std::get_if<AttachPayload>(&op.payload)) {
    const auto priv =
        attach->detach ? rt::Privilege::ReadOnly : rt::Privilege::WriteDiscard;
    if (attach->partition.valid()) {
      // Parallel file I/O: every shard attaches/flushes the pieces it owns.
      const RegionTreeId tree = st.forest->tree_of_partition(attach->partition);
      const rt::Rect dom = rt::Rect::r1(
          0, static_cast<std::int64_t>(st.forest->num_subregions(attach->partition)) - 1);
      const auto& points =
          st.shardings->owned_points(core::ShardingRegistry::blocked(), dom, num_shards(),
                                    st.id);
      for (const rt::Point& p : points) {
        const std::uint64_t color = rt::linearize(dom, p);
        const rt::Rect rect = st.forest->bounds(st.forest->subregion(attach->partition, color));
        const TaskId tid(op.id.value * core::kPointsPerOp + color);
        if (config_.record_task_graph) {
          std::lock_guard<std::mutex> lk(graph_mu_);
          std::vector<TaskId> preds;
          for (FieldId f : attach->fields) {
            auto conflicts = tracker_.record_use(tree, f, rect, priv, rt::kNoRedop, tid,
                                                 sim::Event::no_event());
            preds.insert(preds.end(), conflicts.tasks.begin(), conflicts.tasks.end());
          }
          record_realized_locked(tid, op.id, color, preds);
          if (trace_) {
            trace_->tasks.push_back(
                {tid, op.id, color, st.id, {{tree, rect, attach->fields, priv, rt::kNoRedop}}});
          }
        }
      }
      return;
    }
    if (single_op_owner(op.id) != st.id) return;
    const rt::Rect rect = st.forest->bounds(attach->region);
    const RegionTreeId tree = st.forest->tree_of(attach->region);
    const TaskId tid(op.id.value * core::kPointsPerOp);
    if (config_.record_task_graph) {
      std::lock_guard<std::mutex> lk(graph_mu_);
      for (FieldId f : attach->fields) {
        auto conflicts = tracker_.record_use(tree, f, rect, priv, rt::kNoRedop, tid,
                                             sim::Event::no_event());
        record_realized_locked(tid, op.id, 0, conflicts.tasks);
      }
      if (trace_) {
        trace_->tasks.push_back(
            {tid, op.id, 0, st.id, {{tree, rect, attach->fields, priv, rt::kNoRedop}}});
      }
    }
    return;
  }

  if (const auto* red = std::get_if<ReducePayload>(&op.payload)) {
    auto fit = st.fm_partials.find(red->fm_id);
    DCR_CHECK(fit != st.fm_partials.end()) << "reduce of unknown future map";
    double partial = 0.0;
    switch (red->op) {
      case core::ReduceOp::Sum: partial = fit->second.sum; break;
      case core::ReduceOp::Min: partial = fit->second.min; break;
      case core::ReduceOp::Max: partial = fit->second.max; break;
    }
    std::shared_ptr<ValueCollective> coll;
    {
      std::lock_guard<std::mutex> lk(futures_mu_);
      coll = futures_.at(red->future_id).coll;  // created at issue
    }
    // Inline execution: this shard's owned points of the producing launch
    // completed during that op's process_op, so the partial is final.
    coll->arrive(st.id.value, partial, scope_ctx(st));
    return;
  }

  if (const auto* del = std::get_if<DeletePayload>(&op.payload)) {
    // Each shard destroys its own replica at the same program point, so the
    // forests (and their mutation epochs) stay in lockstep.
    if (!st.forest->tree_destroyed(del->tree)) st.forest->destroy_tree(del->tree);
    return;
  }
}

void ThreadRuntime::launch_point_task(ThreadShard& st, const OpRecord& op,
                                      const rt::Point& point, std::uint64_t point_index,
                                      const std::vector<rt::Requirement>& reqs,
                                      const std::vector<std::int64_t>& args, FunctionId fn,
                                      std::uint64_t future_map_id, std::uint64_t future_id) {
  const TaskId tid(op.id.value * core::kPointsPerOp + point_index);

  core::PointTaskInfo info;
  info.fn = fn;
  info.point = point;
  if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    info.domain = index->launch.domain;
  }
  info.requirements = reqs;
  info.args = args;
  for (const rt::Requirement& r : reqs) {
    info.volume += st.forest->bounds(r.region).volume();
  }

  if (config_.record_task_graph) {
    // One point task's dependence recording is atomic under graph_mu_.  The
    // edge set is still deterministic across interleavings: cross-shard
    // conflicting uses are ordered by a fence (their coarse dependence was
    // not elided), and elided dependences are provably same-shard.
    std::lock_guard<std::mutex> lk(graph_mu_);
    std::vector<TaskId> conflict_tasks;
    for (const rt::Requirement& r : reqs) {
      const rt::Rect rect = st.forest->bounds(r.region);
      const RegionTreeId tree = st.forest->tree_of(r.region);
      for (FieldId f : r.fields) {
        auto conflicts = tracker_.record_use(tree, f, rect, r.privilege, r.redop, tid,
                                             sim::Event::no_event());
        conflict_tasks.insert(conflict_tasks.end(), conflicts.tasks.begin(),
                              conflicts.tasks.end());
      }
    }
    record_realized_locked(tid, op.id, point_index, conflict_tasks);
    if (trace_) {
      std::vector<spy::AccessRecord> accesses;
      accesses.reserve(reqs.size());
      for (const rt::Requirement& r : reqs) {
        accesses.push_back({st.forest->tree_of(r.region), st.forest->bounds(r.region),
                            r.fields, r.privilege, r.redop});
      }
      trace_->tasks.push_back({tid, op.id, point_index, st.id, std::move(accesses)});
    }
  }

  const SimTime duration = functions_.at(fn).duration(info);
  FunctionProfile& fp = st.profile[fn];
  fp.tasks++;
  fp.total_time += duration;

  // Work model (benchmarks): occupy a compute slot in proportion to the
  // task's modeled duration — spinning (host compute) or sleeping (host
  // blocked on an offloaded kernel; overlaps regardless of core count).
  if (config_.work_scale > 0.0) {
    const auto wall_ns =
        static_cast<SimTime>(static_cast<double>(duration) * config_.work_scale);
    gate_.acquire();
    if (config_.work_sleep) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wall_ns));
    } else {
      busy_spin(wall_ns);
    }
    gate_.release();
  }

  const bool wants_value = future_map_id != ~0ull || future_id != ~0ull;
  double value = 0.0;
  if (wants_value) {
    const core::TaskFunction& f = functions_.at(fn);
    DCR_CHECK(f.future_value != nullptr)
        << "task '" << f.name << "' launched for a future but has no value model";
    value = f.future_value(info);
  }
  if (future_map_id != ~0ull) {
    FmPartial& p = st.fm_partials.at(future_map_id);
    p.sum += value;
    p.min = std::min(p.min, value);
    p.max = std::max(p.max, value);
  }
  if (future_id != ~0ull) {
    // Only the owner shard executes a single task; it is the broadcast root.
    publish_future(st, future_id, value);
  }
  point_tasks_launched_.fetch_add(1, std::memory_order_relaxed);
  if (scope_) {
    scope_->on_task_launch(st.id.value, op.id.value, point_index, clock_.now());
  }
}

void ThreadRuntime::record_realized_locked(TaskId tid, OpId op, std::uint64_t point_index,
                                           const std::vector<TaskId>& preds) {
  if (!config_.record_task_graph) return;
  if (!realized_graph_.has_task(tid)) {
    realized_graph_.add_task(tid);
    realized_tasks_.push_back(RealizedTask{tid, op, point_index});
  }
  for (TaskId p : preds) {
    if (!realized_graph_.has_edge(p, tid)) {
      realized_graph_.add_edge(p, tid);
      if (trace_) trace_->edges.push_back({p, tid});
    }
  }
}

void ThreadRuntime::busy_spin(SimTime wall_ns) {
  const SimTime until = clock_.now() + wall_ns;
  while (clock_.now() < until) {
    // Busy wait: this models compute occupancy, so yielding would defeat it.
  }
}

// ----------------------------------------------------------------- execute

void ThreadRuntime::shard_main(ThreadShard& st, const core::ApplicationMain& main) {
  try {
    ThreadShardContext ctx(*this, st);
    main(ctx);
    ctx.end_program();
    // Final barrier so the call/op streams match the simulator's
    // finalize_shard, and every shard's work is done before join.
    ctx.execution_fence();
  } catch (const std::exception& e) {
    st.error = core::shard_failure_message(st.id, e.what());
  } catch (...) {
    st.error = core::shard_failure_message(st.id, "unknown exception in control program");
  }
}

core::DcrStats ThreadRuntime::execute(const core::ApplicationMain& main) {
  DCR_CHECK(!executed_) << "ThreadRuntime::execute may only run once";
  executed_ = true;
  const SimTime started = clock_.now();

  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (auto& st : shards_) {
    threads.emplace_back([this, &main, sp = st.get()] { shard_main(*sp, main); });
  }
  for (std::thread& t : threads) t.join();

  core::DcrStats stats;
  stats.makespan = clock_.now() - started;  // real wall-clock nanoseconds
  stats.completed = true;
  for (const auto& st : shards_) {
    if (!st->error.empty()) {
      stats.completed = false;
      stats.aborted = true;
      if (stats.abort_message.empty()) stats.abort_message = st->error;
    }
  }

  for (const auto& st : shards_) {
    stats.ops_issued = std::max(stats.ops_issued, st->next_op);
  }
  stats.point_tasks_launched = point_tasks_launched_.load(std::memory_order_relaxed);
  stats.fences_inserted = analysis_stats_.fences_inserted;
  stats.fences_elided = analysis_stats_.fences_elided;
  stats.coarse_deps = analysis_stats_.coarse_deps;
  stats.determinism_checks = determinism_checks_.load(std::memory_order_relaxed);
  stats.traced_ops = traced_ops_.load(std::memory_order_relaxed);

  // Join-time control-determinism verification: the per-shard folded call
  // digests must agree (paper §3; the simulator checks per call instead).
  if (config_.determinism_checks) {
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      if (shards_[s]->api_calls != shards_[0]->api_calls ||
          !(shards_[s]->call_fold == shards_[0]->call_fold)) {
        stats.determinism_violation = true;
        stats.violation_message = "control determinism violation: shard " +
                                  std::to_string(s) +
                                  " call stream diverged from shard 0";
        break;
      }
    }
    if (trace_ && stats.determinism_violation) {
      // With a spy trace on hand, upgrade to the linter's argument-level
      // report: which call diverged and which argument differed.
      const spy::LintResult lint = spy::lint_control_determinism(*trace_);
      if (lint.divergent) stats.violation_message = lint.message;
    }
    if (stats.determinism_violation) stats.completed = false;
  }

  for (const auto& st : shards_) {
    st->roll_up(stats, profiler_);
    for (const auto& [fn, fp] : st->profile) {
      FunctionProfile& merged = profile_[fn];
      merged.tasks += fp.tasks;
      merged.total_time += fp.total_time;
    }
  }

  // Static interference analysis: resolved/unresolved were charged online by
  // the shared analyzer; cache hits come from the per-shard prover replicas
  // (their sum depends on which shard analyzed first, unlike the simulator's
  // single prover — excluded from differential parity for that reason).
  {
    std::uint64_t cache_hits = 0;
    for (const auto& st : shards_) cache_hits += st->prover->stats().cache_hits;
    stats.statics_cache_hits = cache_hits;
    profiler_.global().add(prof::GlobalCounter::StaticProofCacheHits, cache_hits);
    stats.statics_resolved_ops =
        profiler_.global().get(prof::GlobalCounter::StaticLaunchesResolved);
    stats.statics_unresolved_ops =
        profiler_.global().get(prof::GlobalCounter::StaticLaunchesUnresolved);
    for (std::size_t sh = 0; sh < num_shards(); ++sh) {
      stats.statics_skipped_points +=
          profiler_.shard(static_cast<std::uint32_t>(sh)).get(prof::Counter::StaticSkipPoints);
    }
  }

  // dcr-scope: the shards have quiesced (joined), so harvest every fence's
  // per-rank wall-clock timestamps + merged releaser into the blame ledger,
  // in dependent-op order (fences_ is an ordered map) — same drain point as
  // the simulator backend's end of execute.
  if (scope_) {
    std::lock_guard<std::mutex> lk(fences_mu_);
    for (const auto& [op, coll] : fences_) {
      if (coll) scope_->harvest_fence(op, *coll);
    }
    scope_->set_run_info(stats.makespan, /*recovery_epochs=*/0);
  }

  // Crash flight recorder: a determinism violation (or a shard thread dying
  // on an exception) aborts post-mortem triage to the ring dump — no re-run
  // needed to see what each shard was doing last.
  if (flight_ && !config_.flight_path.empty() &&
      (stats.determinism_violation || stats.aborted)) {
    const std::string& why = stats.determinism_violation
                                 ? stats.violation_message
                                 : stats.abort_message;
    flight_->dump(config_.flight_path, why.c_str(), &profiler_);
  }

  return stats;
}

}  // namespace dcr::exec
