#include "dcr/runtime.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "common/hash128.hpp"
#include "dcr/sig.hpp"
#include "spy/verify.hpp"

namespace dcr::core {

// SigBuilder and the per-API sig_* encoders live in dcr/sig.hpp, the op
// model (kPointsPerOp, payloads, CoarseDecision) in dcr/ops.hpp, and the
// per-shard application API in dcr/front_end.hpp — shared with the
// real-threads backend so both produce identical §3 hash streams.

// ===========================================================================
// ShardContext: the simulator's hooks under the shared front end.
// ===========================================================================
class ShardContext final : public ShardFrontEnd {
 public:
  ShardContext(DcrRuntime& rt, ShardId shard, sim::ProcessContext& pctx)
      : ShardFrontEnd(rt.front_end_env_, rt.shard(shard)),
        rt_(rt),
        pctx_(pctx),
        st_(rt.shard(shard)) {}

  void destroy_region_deferred(RegionTreeId tree) override {
    // GC-finalizer path: deliberately NOT hashed/checked — shards may call it
    // at different control points; the runtime reaches consensus by polling
    // (paper §4.3) before inserting the deletion into the analysis stream.
    st_.deferred_requests.push_back(tree);
    rt_.start_deferred_poller();
  }

  SimTime now() const override { return pctx_.now(); }

  sim::ProcessContext& process() { return pctx_; }

 private:
  // Each API call charges control-program time and feeds the determinism
  // checker (paper §3).
  //
  // A replacement shard re-executes the control program from the top; calls
  // below replay_calls_end were already contributed by the dead incarnation
  // (they are in its commit log, with their spy trace records), so the
  // replay charges only a fast-forward cost and does NOT re-arrive at the
  // determinism collectives.  The front end still feeds the call to the
  // template manager, so a replacement shard re-captures templates while
  // fast-forwarding through trace windows.
  bool check_call(const char* name, const Hash128& h) override {
    if (st_.api_calls < st_.replay_calls_end) {
      pctx_.delay(rt_.config_.replay_call_cost);
      return false;
    }
    SimTime cost = rt_.config_.issue_cost;
    if (rt_.checker_.enabled()) cost += rt_.config_.hash_cost;
    pctx_.delay(cost);
    rt_.checker_.record(st_.id, st_.api_calls, h, name);
    if (rt_.checker_.enabled()) rt_.stats_.determinism_checks++;
    st_.commit.record_call(st_.api_calls);
    st_.last_heard = pctx_.now();  // lease refresh, piggybacked on API traffic
    if (st_.pending_report >= 0) {
      // First live (non-replayed) call: the replacement has caught up to the
      // failure frontier.
      FailureReport& rep = rt_.failures_[static_cast<std::size_t>(st_.pending_report)];
      rep.recovered = true;
      rep.recovered_at = pctx_.now();
      // Recovery lane rather than Control: the fast-forward may straddle
      // trace-window boundaries, which would break Control-lane nesting.
      rt_.front_end_env_.record_span({prof::SpanKind::RecoveryFastForward,
                                      prof::Lane::Recovery, st_.id.value,
                                      rep.replay_started, rt_.clock_.now()});
      st_.pending_report = -1;
    }
    return true;
  }

  // Replicated heap: the first shard to reach a creation makes it in the
  // shared forest; the others read its handle.
  const CreatedHandle* prior_creation() override {
    if (st_.next_creation < rt_.creations_.size()) return &rt_.creations_[st_.next_creation++];
    DCR_CHECK(st_.next_creation == rt_.creations_.size())
        << "shard " << st_.id.value << " creation stream ran ahead";
    return nullptr;
  }
  void record_creation(const CreatedHandle& handle) override {
    rt_.creations_.push_back(handle);
    st_.next_creation++;
  }

  void before_issue() override { rt_.insert_agreed_deletions(st_); }
  void submit(const OpRecord& op) override { rt_.submit_op(st_, op); }

  double wait_future(const Future& f, dcr::scope::TraceCtx& releaser) override {
    // Control-taint (dcr/replicate.hpp): this value is about to flow into a
    // control decision; mark the producing ops SDC-critical.
    rt_.note_control_future(f.id);
    auto it = rt_.futures_.find(f.id);
    DCR_CHECK(it != rt_.futures_.end()) << "future " << f.id << " has no producer";
    pctx_.wait(it->second.per_shard_event[st_.id.value]);
    if (rt_.scope_) releaser = it->second.coll->result_ctx();
    return it->second.coll->result();
  }

  bool poll_future(const Future& f) override {
    // Polling is a control observation too: the (timing-dependent) readiness
    // bit can steer launch counts, so the producing ops are SDC-critical.
    rt_.note_control_future(f.id);
    auto it = rt_.futures_.find(f.id);
    if (it == rt_.futures_.end()) return false;
    return it->second.per_shard_event[st_.id.value].has_triggered();
  }

  // Once our fine tail drains, every shard's launches for prior ops are
  // registered with the quiescence tracker; then wait for all of them.
  void drain_execution() override {
    pctx_.wait(st_.fine_tail);
    while (!rt_.quiescence_.idle()) pctx_.wait(rt_.quiescence_.idle_event());
  }

  // Consensus deletions shift later op ids, breaking relative dep offsets,
  // so their count joins the recovery epoch in the window key.
  WindowEpochs window_epochs() const override {
    return {rt_.recovery_epoch_, st_.deletions_processed};
  }

  DcrRuntime& rt_;
  sim::ProcessContext& pctx_;
  DcrRuntime::ShardState& st_;
};

// ===========================================================================
// DcrRuntime
// ===========================================================================

namespace {
// record_trace needs the realized graph's edges, so it implies
// record_task_graph; normalized before any member (tracker_) consumes it.
DcrConfig normalize_config(DcrConfig config) {
  if (config.record_trace) config.record_task_graph = true;
  return config;
}

std::vector<NodeId> make_placement(const sim::Machine& machine, const DcrConfig& config) {
  DCR_CHECK(config.shards_per_node >= 1);
  const std::size_t shards = machine.num_nodes() * config.shards_per_node;
  std::vector<NodeId> placement;
  placement.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    placement.push_back(NodeId(static_cast<std::uint32_t>(s / config.shards_per_node)));
  }
  return placement;
}
}  // namespace

DcrRuntime::DcrRuntime(sim::Machine& machine, FunctionRegistry& functions, DcrConfig config)
    : machine_(machine),
      functions_(functions),
      config_(normalize_config(config)),
      placement_(make_placement(machine, config_)),
      profiler_(placement_.size()),
      physical_(forest_, machine.network()),
      tracker_(/*keep_completed=*/config_.record_task_graph),
      checker_(machine.sim(), machine.network(), placement_, config.determinism_checks),
      quiescence_(machine.sim()) {
  const std::size_t shards = placement_.size();
  for (std::size_t s = 0; s < shards; ++s) {
    auto st = std::make_unique<ShardState>();
    st->id = ShardId(static_cast<std::uint32_t>(s));
    st->forest = &forest_;
    st->shardings = &shardings_;
    st->node = placement_[s];
    shards_.push_back(std::move(st));
  }
  if (config_.record_trace) {
    trace_ = std::make_unique<spy::Trace>();
    trace_->num_shards = shards;
    trace_->calls.resize(shards);
  }
  if (config_.profile || config_.scope) {
    ledger_ = std::make_unique<dcr::scope::Recorder>(shards, config_.profile);
  }
  if (config_.scope) {
    scope_ = ledger_.get();
    if (config_.flight_capacity > 0) {
      flight_ = std::make_unique<dcr::scope::FlightRecorder>(
          shards, config_.flight_capacity);
      scope_->set_flight(flight_.get());
      // Fatal-signal hook, mirroring the threads backend: crashes that never
      // reach abort_execution still leave a post-mortem dump.
      if (!config_.flight_path.empty()) {
        dcr::scope::FlightRecorder::arm_signal_dump(
            flight_.get(), config_.flight_path, &profiler_);
      }
    }
    // Count causal traffic per origin shard (host-side; one call per logical
    // message, retransmissions excluded).
    machine_.network().set_send_tap(
        [rec = scope_](NodeId, NodeId, std::uint64_t bytes, const dcr::scope::TraceCtx& ctx) {
          rec->on_message(ctx, bytes);
        });
  }
  if (config_.sdc_replication) {
    ReplicationConfig rc;
    rc.replicas = config_.sdc_replicas;
    rc.quorum = config_.sdc_quorum;
    rc.retry_budget = config_.sdc_retry_budget;
    rc.digest_bytes = config_.sdc_digest_bytes;
    ReplicationExecutor::Hooks hooks;
    hooks.proc_for = [this](std::uint32_t s, std::uint64_t point_index) -> sim::Processor& {
      return compute_proc_for(ShardId(s), point_index);
    };
    hooks.node_of = [this](std::uint32_t s) { return placement_[s]; };
    hooks.shard_usable = [this](std::uint32_t s) {
      const ShardState& st = *shards_[s];
      if (st.dead || st.crashed) return false;
      if (const sim::FaultPlan* plan = machine_.faults()) {
        if (plan->node_dark(st.node, machine_.sim().now())) return false;
      }
      return true;
    };
    hooks.abort = [this](std::string reason) { abort_execution(std::move(reason)); };
    replicator_ = std::make_unique<ReplicationExecutor>(
        machine_, profiler_, rc, static_cast<std::uint32_t>(shards), std::move(hooks));
    sdc_suspect_counts_.assign(shards, 0);
  }
  front_end_env_ = {.profiler = &profiler_,
                    .clock = &clock_,
                    .projections = &projections_,
                    .trace = trace_.get(),
                    .ledger = ledger_.get(),
                    .scope = scope_,
                    .mapper = config_.mapper,
                    .num_shards = shards,
                    .tracing_enabled = config_.tracing_enabled,
                    .template_validation = config_.template_validation,
                    .auto_trace = config_.auto_trace};
  for (auto& st : shards_) st->configure_auto_trace(front_end_env_);
}

DcrRuntime::~DcrRuntime() {
  // The send tap captures the recorder; detach it before the recorder dies.
  if (scope_) machine_.network().set_send_tap(nullptr);
  if (flight_ && !config_.flight_path.empty()) {
    dcr::scope::FlightRecorder::arm_signal_dump(nullptr, {}, nullptr);
  }
}

dcr::scope::TraceCtx DcrRuntime::scope_ctx(ShardId s) const {
  if (!scope_) return {};
  return scope_->current_ctx(s.value, clock_.now());
}

bool DcrRuntime::finished() const {
  if (aborted_) return true;
  if (shards_.empty()) return false;
  for (const auto& st : shards_) {
    if (!st->done) return false;
  }
  return true;
}

// ----------------------------------------------------------- coarse stage
//
// The analysis itself lives in dcr/coarse.hpp (shared with the threads
// backend); these wrappers mirror DcrStats and emit the spy trace records
// exactly once per op — gated on the analyzer's `fresh` out-param.

const CoarseDecision& DcrRuntime::coarse_decision(const OpRecord& op) {
  bool fresh = false;
  const CoarseDecision& dec = coarse_.decide(op, forest_, statics_prover_, statics_ledger_,
                                             single_op_owner(op.id), &fresh);
  if (fresh) emit_coarse_decision(op, dec, stats_, trace_.get());
  return dec;
}

const CoarseDecision& DcrRuntime::install_replayed_decision(const OpRecord& op) {
  bool fresh = false;
  const CoarseDecision& dec = coarse_.install_replayed(op, statics_ledger_, &fresh);
  if (fresh) emit_coarse_decision(op, dec, stats_, trace_.get());
  return dec;
}

bool DcrRuntime::all_fences_complete() const {
  for (const auto& [id, rec] : fences_) {
    if (!rec.coll->complete()) return false;
  }
  return true;
}

DcrRuntime::FutureRecord& DcrRuntime::ensure_future(std::uint64_t id, OpId producer,
                                                    bool /*broadcast*/) {
  auto [it, inserted] = futures_.try_emplace(id);
  FutureRecord& fut = it->second;
  if (!inserted) return fut;
  profiler_.global().add(prof::GlobalCounter::FutureCollectives);
  profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  // Single-task futures broadcast from the owner shard to all shards (§4.2):
  // the placement is rotated so the owner is the broadcast root.
  const ShardId owner = single_op_owner(producer);
  std::vector<NodeId> rotated(num_shards());
  for (std::size_t r = 0; r < num_shards(); ++r) {
    rotated[r] = placement_[(owner.value + r) % num_shards()];
  }
  fut.coll = std::make_shared<sim::Collective<double>>(
      machine_.sim(), machine_.network(), std::move(rotated), sim::CollectiveKind::Broadcast,
      sizeof(double), [](double a, double) { return a; });
  fut.per_shard_event.resize(num_shards());
  for (std::size_t sh = 0; sh < num_shards(); ++sh) {
    // Non-root ranks arrive immediately; the root (owner) arrives with the
    // value when its task completes (see finish_point_task).
    const std::size_t rank = (sh + num_shards() - owner.value) % num_shards();
    if (rank != 0) {
      const sim::UserEvent gate = fut.per_shard_event[sh];
      fut.coll->arrive(rank, 0.0).on_trigger(
          [this, gate] { gate.trigger(machine_.sim().now()); });
    }
  }
  return fut;
}

DcrRuntime::FutureRecord& DcrRuntime::ensure_reduce_future(std::uint64_t id, ReduceOp rop) {
  auto [it, inserted] = futures_.try_emplace(id);
  FutureRecord& fut = it->second;
  if (!inserted) return fut;
  profiler_.global().add(prof::GlobalCounter::FutureCollectives);
  profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  fut.coll = std::make_shared<sim::Collective<double>>(
      machine_.sim(), machine_.network(), placement_, sim::CollectiveKind::AllReduce,
      sizeof(double), [rop](double a, double b) { return apply_reduce(rop, a, b); });
  fut.per_shard_event.resize(num_shards());
  return fut;
}

DcrRuntime::FenceRecord& DcrRuntime::fence_for(OpId dependent) {
  auto it = fences_.find(dependent);
  if (it == fences_.end()) {
    FenceRecord rec;
    rec.coll = std::make_unique<sim::FenceCollective>(machine_.sim(), machine_.network(),
                                                      placement_);
    it = fences_.emplace(dependent, std::move(rec)).first;
    profiler_.global().add(prof::GlobalCounter::FenceCollectives);
    profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  }
  return it->second;
}

// ----------------------------------------------------------------- issuing

// Consensus-agreed deferred deletions scheduled at this shard's next op
// index run before the op the front end is about to issue.
void DcrRuntime::insert_agreed_deletions(ShardState& st) {
  while (true) {
    auto it = agreed_insertions_.find(st.next_op);
    if (it == agreed_insertions_.end()) break;
    // An insertion shifts every later op id, breaking a template's relative
    // dependence offsets: drop any window in flight (deletions_processed is
    // part of the template validity key, so stored templates also invalidate
    // at their next begin).
    st.templates.abort_window("consensus deletion inserted inside a trace window");
    OpRecord del{OpId(st.next_op), OpPayload(it->second), false};
    st.next_op++;
    st.deletions_processed++;
    commit_op(st.id, del);
  }
}

void DcrRuntime::submit_op(ShardState& st, const OpRecord& op) {
  stats_.ops_issued = std::max(stats_.ops_issued, st.next_op);
  // Futures are created eagerly at issue so the control program can wait on
  // them before any shard's fine stage has reached the producing op.
  if (const auto* task = std::get_if<TaskPayload>(&op.payload)) {
    if (task->future_id != ~0ull) ensure_future(task->future_id, op.id, /*broadcast=*/true);
  } else if (const auto* red = std::get_if<ReducePayload>(&op.payload)) {
    ensure_reduce_future(red->future_id, red->op);
  }

  // Control-taint registration (dcr/replicate.hpp): every future and future
  // map remembers its producing op, so a later control observation can taint
  // the producers.  try_emplace semantics make the N replicated issuers of
  // the same op idempotent.
  if (const auto* task = std::get_if<TaskPayload>(&op.payload)) {
    if (task->future_id != ~0ull) taint_.note_future(task->future_id, op.id.value);
  } else if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    if (index->future_map_id != ~0ull) {
      taint_.note_future_map(index->future_map_id, op.id.value);
    }
  } else if (const auto* red = std::get_if<ReducePayload>(&op.payload)) {
    taint_.note_reduce(red->future_id, op.id.value, red->fm_id);
  }

  // A replayed (recovery) op re-derives template state without re-counting.
  if (op.traced && op.id.value >= st.replay_ops_end) stats_.traced_ops++;
  commit_op(st.id, op);
}

// Replay-aware dispatch: the dead incarnation's committed ops already did
// their externally visible work (coarse analysis folded in, fence arrivals
// registered, fine stage enqueued — all of which survive the process kill),
// so a replacement skips them entirely; fresh ops process normally and are
// appended to the commit log.  Commit happens in the same non-blocking region
// as the op's api_call hash, so a crash never splits a call from its op.
void DcrRuntime::commit_op(ShardId s, const OpRecord& op) {
  ShardState& st = shard(s);
  if (op.id.value < st.replay_ops_end) {
    // The op's external work is already done, but a replacement shard
    // fast-forwarding through a trace window still re-captures the template:
    // the decision is in the shared cache (the dead incarnation processed it).
    if (op.tmode == TemplateManager::Mode::Capture ||
        op.tmode == TemplateManager::Mode::Validate) {
      if (const CoarseDecision* dec = coarse_.find(op.id)) {
        st.record_template_op(op, *dec);
      } else {
        st.templates.abort_window("committed op has no cached coarse decision");
      }
    }
    return;
  }
  if (op.tmode == TemplateManager::Mode::Replay && op.trec != nullptr) {
    install_replayed_decision(op);
  }
  process_op(s, op);
  st.commit.record_op(op.id.value);
  if (std::holds_alternative<FencePayload>(op.payload)) {
    st.commit.record_epoch(op.id.value);
  }
}

void DcrRuntime::process_op(ShardId s, const OpRecord& op) {
  ShardState& st = shard(s);
  // Replayed ops had their recorded decision installed by commit_op, so this
  // lookup hits the cache and skips the conflict scans entirely.
  const CoarseDecision& dec = coarse_decision(op);
  st.record_template_op(op, dec);

  // Iteration tag for spans: the trace window this op falls into, if any.
  const std::uint64_t prof_iter = st.prof_iter();
  prof::Counters& pc = profiler_.shard(s.value);
  const OpStageCount count = fine_.count_op(st, op, dec);

  // ---- coarse stage cost (Figure 9 top): independent of group size ----
  const SimTime coarse_cost =
      (op.traced ? config_.traced_coarse_cost_per_req : config_.coarse_cost_per_req) *
      std::max<std::size_t>(1, dec.num_reqs);
  const sim::Event coarse_done = analysis_proc(s).enqueue(coarse_cost);
  pc.add(prof::Counter::CoarseAnalysisNs, coarse_cost);
  pc.observe(prof::Hist::CoarseStageNs, coarse_cost);
  {
    // The coarse item has no precondition, so it is already scheduled: its
    // end is the processor's busy_until.  The analysis processor is a serial
    // FIFO, so [end - cost, end] always lies inside the true busy interval
    // even when a straggler fault stretched the nominal cost; Analysis-lane
    // spans stay disjoint.
    const SimTime end = analysis_proc(s).busy_until();
    front_end_env_.record_span(
        {op.traced ? prof::SpanKind::CoarseReplay : prof::SpanKind::CoarseAnalysis,
         prof::Lane::Analysis, s.value, end - coarse_cost, end, op.id.value, prof_iter});
  }

  // ---- fence gating: arrive once our fine pipeline reaches this op ----
  std::vector<sim::Event> pre{coarse_done, st.fine_tail};
  if (!dec.fence_sources.empty()) {
    FenceRecord* fence = &fence_for(op.id);
    sim::UserEvent gate;
    pc.add(prof::Counter::FenceWaits);
    const std::uint64_t opid = op.id.value;
    auto arrive = [this, fence, s, gate, opid, prof_iter] {
      // Fence-wait span: from this shard's arrival to the round completing at
      // this shard.  Waits on the Fence lane are ordered by the fine_tail
      // chain, so per-shard spans nest trivially (they are disjoint).
      const SimTime wait_start = clock_.now();
      // dcr-scope: stamp this arrival with the shard's current span, so the
      // collective's latest-merge yields the fence's releasing shard + span.
      dcr::scope::TraceCtx ctx;
      if (scope_) ctx = scope_->fence_arrival(opid, s.value, prof_iter, wait_start);
      fence->coll->arrive(s.value, ctx).on_trigger([this, gate, s, wait_start, opid, prof_iter] {
        const SimTime now = clock_.now();
        prof::Counters& c = profiler_.shard(s.value);
        c.add(prof::Counter::FenceWaitNs, now - wait_start);
        c.observe(prof::Hist::FenceWaitNs, now - wait_start);
        front_end_env_.record_span({prof::SpanKind::FenceWait, prof::Lane::Fence, s.value,
                                    wait_start, now, opid, prof_iter});
        gate.trigger(now);
      });
    };
    if (st.fine_tail.has_triggered()) {
      arrive();
    } else {
      st.fine_tail.on_trigger(arrive);
    }
    pre.push_back(gate);
  }

  // ---- fine stage cost (Figure 9 bottom): proportional to owned points ----
  // A statically skipped launch needs no per-point discrimination — the
  // affine forms predetermine every point's outcome — so the per-point
  // charge collapses to zero and the fine stage is O(1).
  const SimTime per_point_cost =
      op.traced ? config_.traced_fine_cost_per_point : config_.fine_cost_per_point;
  const SimTime fine_cost =
      (op.traced ? config_.traced_fine_cost_per_op : config_.fine_cost_per_op) +
      (count.static_skip ? 0 : per_point_cost * count.owned);
  pc.add(prof::Counter::FineAnalysisNs, fine_cost);
  if (count.static_skip) pc.add(prof::Counter::StaticSkipSavedNs, per_point_cost * count.owned);
  pc.observe(prof::Hist::FineStageNs, fine_cost);

  OpRecord op_copy = op;
  // The template record may be dropped (window abort, invalidation) before
  // the fine stage runs; the shared_ptr plan is all the fine stage needs.
  op_copy.trec = nullptr;
  const bool traced = op.traced;
  const std::uint64_t opid = op.id.value;
  const sim::Event fine_done = analysis_proc(s).enqueue(
      fine_cost, sim::merge_events(std::span<const sim::Event>(pre)),
      [this, s, fine_cost, traced, opid, prof_iter, op_copy = std::move(op_copy)] {
        const SimTime end = clock_.now();
        // This completed fine stage becomes the shard's current span — the
        // causal parent of the task launches and collective contributions
        // issued by the fine stage below, and of any fence arrival chained
        // behind this op via fine_tail.
        front_end_env_.record_span(
            {traced ? prof::SpanKind::FineReplay : prof::SpanKind::FineAnalysis,
             prof::Lane::Analysis, s.value, end - fine_cost, end, opid, prof_iter});
        fine_.execute(shard(s), op_copy, *this);
      });
  st.fine_tail = fine_done;
}

// ------------------------------------------------------- fine-stage hooks

void DcrRuntime::begin(FineWork& w) { w.done.emplace(); }

// A point task's readers gather valid data to its node before it runs.
void DcrRuntime::before_use(FineWork& w, const TrackedUse& u) {
  if (w.kind != WorkKind::Point || !rt::is_reader(u.priv)) return;
  const sim::Event copied = physical_.acquire(u.tree, u.field, u.rect, shard(w.shard.id).node);
  if (!copied.has_triggered()) w.pre.push_back(copied);
}

void DcrRuntime::after_use(FineWork& w, const TrackedUse& u) {
  const NodeId node = shard(w.shard.id).node;
  switch (w.kind) {
    case WorkKind::Point:
      if (rt::is_writer(u.priv)) physical_.record_write(u.tree, u.field, u.rect, node, *w.done);
      break;
    case WorkKind::Fill:
      physical_.record_fill(u.tree, u.field, u.rect);
      break;
    case WorkKind::Attach:
      physical_.record_write(u.tree, u.field, u.rect, node, *w.done);
      break;
    case WorkKind::Detach:
      // Flush: gather valid data to the owner node before writing back.
      w.pre.push_back(physical_.acquire(u.tree, u.field, u.rect, node));
      break;
  }
}

void DcrRuntime::run_point(FineWork& w, PointTaskInfo info, SimTime duration) {
  const ShardId s = w.shard.id;
  const OpId op = w.op.id;
  const std::uint64_t future_map_id = w.future_map_id;
  const std::uint64_t future_id = w.future_id;
  const sim::UserEvent done = *w.done;
  sim::Processor& proc = compute_proc_for(s, w.point_index);
  const sim::Event pre_merged = sim::merge_events(std::span<const sim::Event>(w.pre));
  const bool wants_value = w.wants_value();

  if (replicator_ && wants_value && num_shards() > 1 && taint_.op_tainted(op.value)) {
    // SDC-critical point (dcr/replicate.hpp): the primary runs in place but
    // its completion event and value contribution are gated on the quorum
    // verdict over the duplicate executions the ticket launches.  The voted
    // value — never the primary's raw result — reaches the future collective.
    const std::uint64_t ticket = replicator_->open(
        op.value, s.value, w.point_index, duration, pre_merged,
        /*value_of=*/
        [this, info, tid = w.tid](std::uint32_t exec) { return task_result(info, tid, exec); },
        /*on_resolved=*/
        [this, s, done, future_map_id, future_id, point_index = w.point_index, op,
         traced = w.op.traced](const QuorumOutcome& out) {
          finish_point_task(s, future_map_id, future_id, out.value);
          done.trigger(machine_.sim().now());
          if (scope_) {
            scope_->on_quorum({op.value, point_index, s.value, out.rounds, out.ballots,
                               out.mismatches, out.primary_corrupted, out.corrupted_shards,
                               out.opened, out.resolved_at});
          }
          if (out.mismatches > 0) on_corruption_healed(op, traced, out);
        },
        functions_.at(info.fn).name);
    proc.enqueue(duration, pre_merged, [this, ticket] { replicator_->primary_complete(ticket); });
  } else {
    // Unverified path.  A taint that arrives after this launch cannot
    // retroactively replicate the point; record the op so the race is
    // visible (stats_.sdc_late_taints).
    if (replicator_ && wants_value) value_ops_launched_.insert(op.value);
    proc.enqueue(duration, pre_merged,
                 [this, s, done, info = std::move(info), future_map_id, future_id, tid = w.tid,
                  wants_value] {
                   const double v = wants_value ? task_result(info, tid, 0) : 0.0;
                   finish_point_task(s, future_map_id, future_id, v);
                   done.trigger(machine_.sim().now());
                 });
  }
  quiescence_.add(done);
}

// Fills are cheap metadata operations materialized lazily; attach/detach
// pieces pay file I/O at the configured bandwidth.
void DcrRuntime::charge_piece(FineWork& w, const rt::Requirement& piece) {
  SimTime cost = us(1);
  if (w.kind != WorkKind::Fill) {
    const rt::Rect rect = forest_.bounds(piece.region);
    std::uint64_t bytes = 0;
    for (FieldId f : piece.fields) bytes += rect.volume() * forest_.field_size(f);
    cost = static_cast<SimTime>(static_cast<double>(bytes) * config_.file_ns_per_byte);
  }
  const sim::UserEvent done = *w.done;
  analysis_proc(w.shard.id)
      .enqueue(cost, sim::merge_events(std::span<const sim::Event>(w.pre)),
               [this, done] { done.trigger(machine_.sim().now()); });
  quiescence_.add(done);
}

// Arrive with this shard's partial once its point values are known.
void DcrRuntime::contribute_reduce(const FrontEndState& st, const ReducePayload& red,
                                   const FmPartial& partial) {
  const ShardId s = st.id;
  FutureRecord& fut = futures_.at(red.future_id);  // created at issue
  const sim::UserEvent gate = fut.per_shard_event[s.value];
  auto arrive = [this, p = &partial, futp = &fut, s, gate, rop = red.op] {
    // dcr-scope: this contribution is caused by the shard's current span
    // (the fine stage that produced its partial values).
    futp->coll->arrive(s.value, p->pick(rop), scope_ctx(s)).on_trigger([this, gate] {
      gate.trigger(machine_.sim().now());
    });
  };
  if (partial.ready.has_triggered()) {
    arrive();
  } else {
    partial.ready.on_trigger(arrive);
  }
  quiescence_.add(gate);
}

// One execution instance's result: the registered value model plus this
// instance's silent-corruption fate.  The instance key packs (task, exec) so
// the primary (exec 0) of a replicated run corrupts exactly as an
// unreplicated run does, and every replica draws an independent fate.
double DcrRuntime::task_result(const PointTaskInfo& info, TaskId tid, std::uint32_t exec) {
  double v = point_value(functions_.at(info.fn), info);
  if (sim::FaultPlan* plan = machine_.faults()) {
    double weight = 1.0;
    const auto it = config_.sdc_class_weights.find(info.fn.value);
    if (it != config_.sdc_class_weights.end()) weight = it->second;
    v = plan->corrupt_value(tid.value * 64 + exec, v, weight).value;
  }
  return v;
}

void DcrRuntime::note_control_future(std::uint64_t future_id) {
  const std::vector<std::uint64_t> newly = taint_.taint_future(future_id);
  if (newly.empty()) return;
  profiler_.global().add(prof::GlobalCounter::TaintedOps, newly.size());
  if (!replicator_) return;
  for (std::uint64_t opv : newly) {
    if (value_ops_launched_.count(opv) != 0) stats_.sdc_late_taints++;
  }
}

void DcrRuntime::on_corruption_healed(OpId op, bool traced, const QuorumOutcome& out) {
  if (config_.sdc_invalidate_templates) {
    // The corrupted value may have been observed by control before the heal
    // (future_is_ready) or captured alongside cached analysis: bump the
    // recovery epoch so every shard drops its templates at the next window
    // begin — the same invalidation a failover uses.
    recovery_epoch_++;
    // The epoch bump only takes effect at the NEXT window begin; a window
    // that is open right now was keyed on the stale epoch.  A mid-capture
    // window may have folded the corrupt value into its recording (and a
    // mid-replay window is serving decisions derived from it), so abort it
    // here — otherwise the half-recorded trace reaches Recorded state and a
    // later occurrence (explicit or auto-promoted) could validate against
    // poisoned decisions.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      ShardState& st = *shards_[i];
      if (st.auto_open) {
        st.retire_auto_window(front_end_env_,
                              "SDC heal invalidated the template epoch mid-window");
      } else if (st.templates.active()) {
        // Explicit window: the abort leaves the slot for its end_trace.
        st.templates.abort_window("SDC heal invalidated the template epoch mid-window");
      }
    }
    if (traced) {
      // The healed op was itself replayed from a template: re-validate its
      // cached fence decisions by re-issuing them into the prof global
      // ledger.  Spy records are NOT re-appended (the decision stream is
      // unchanged), so the dcr-prof cross-check subtracts the SdcReissued*
      // counters before comparing against the trace.
      if (const CoarseDecision* found = coarse_.find(op)) {
        const CoarseDecision& dec = *found;
        prof::Counters& g = profiler_.global();
        g.add(prof::GlobalCounter::FenceDecisions, dec.deps);
        g.add(prof::GlobalCounter::FencesElided, dec.elided);
        g.add(prof::GlobalCounter::FencesIssued, dec.deps - dec.elided);
        g.add(prof::GlobalCounter::SdcReissuedDecisions, dec.deps);
        g.add(prof::GlobalCounter::SdcReissuedElisions, dec.elided);
        g.add(prof::GlobalCounter::SdcReissuedFences, dec.deps - dec.elided);
      }
    }
  }
  if (config_.sdc_suspect_threshold == 0 || machine_.faults() == nullptr) return;
  for (const std::uint32_t bad : out.corrupted_shards) {
    if (++sdc_suspect_counts_[bad] != config_.sdc_suspect_threshold) continue;
    ShardState& st = shard(ShardId(bad));
    if (st.dead || st.done) continue;
    stats_.sdc_failovers++;
    // Corruption-aware failover: the shard's node is presumed compromised;
    // push it through the PR-1 declare-dead -> tail-re-replay path.  Deferred
    // to a fresh calendar item — declare_dead kills a control process, which
    // must not happen inside the trigger cascade delivering the ballot.
    machine_.sim().schedule(0, [this, sp = &st] {
      if (!aborted_ && !sp->dead && !sp->done) declare_dead(*sp);
    });
  }
}

void DcrRuntime::finish_point_task(ShardId s, std::uint64_t future_map_id,
                                   std::uint64_t future_id, double value) {
  if (future_map_id != ~0ull) fine_.partial(s, future_map_id).fold(value);
  if (future_id != ~0ull) {
    FutureRecord& fut = futures_.at(future_id);
    // Only the owner shard executes a single task; it is the broadcast root.
    const sim::UserEvent gate = fut.per_shard_event[s.value];
    fut.coll->arrive(/*rank=*/0, value, scope_ctx(s)).on_trigger(
        [this, gate] { gate.trigger(machine_.sim().now()); });
  }
}

sim::Processor& DcrRuntime::compute_proc_for(ShardId s, std::uint64_t point_index) {
  const NodeId node = placement_[s.value];
  const std::size_t per_node = machine_.config().compute_procs_per_node;
  std::size_t slot;
  if (config_.mapper) {
    slot = config_.mapper->select_processor(FunctionId::invalid(), point_index, per_node) %
           per_node;
  } else if (config_.shards_per_node == per_node) {
    slot = s.value % config_.shards_per_node;  // one shard drives one processor
  } else {
    slot = point_index % per_node;
  }
  return machine_.compute_proc(node, slot);
}

// ------------------------------------------------------ deferred deletions

void DcrRuntime::start_deferred_poller() {
  if (poller_active_) return;
  poller_active_ = true;
  deferred_poll_interval_ = config_.deferred_poll_initial;
  machine_.sim().spawn("deferred-poller", [this](sim::ProcessContext& pctx) {
    for (;;) {
      pctx.delay(deferred_poll_interval_);
      if (aborted_) {
        poller_active_ = false;
        return;
      }
      const bool progressed = check_deferred_consensus();
      profiler_.global().add(prof::GlobalCounter::DeferredPolls);
      profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
      // One consensus poll costs a small collective among the shards.
      auto poll = std::make_shared<sim::Collective<int>>(
          machine_.sim(), machine_.network(), placement_, sim::CollectiveKind::AllReduce,
          sizeof(std::uint64_t), [](int a, int) { return a; });
      sim::Event done;
      for (std::size_t sh = 0; sh < num_shards(); ++sh) {
        done = poll->arrive(sh, 0);
      }
      pctx.wait(done);
      if (progressed) {
        deferred_poll_interval_ = config_.deferred_poll_initial;  // GC active: poll fast
      } else {
        deferred_poll_interval_ =
            std::min(deferred_poll_interval_ * 2, config_.deferred_poll_max);
      }
      bool all_done = true;
      for (const auto& st : shards_) all_done = all_done && st->main_returned;
      if (all_done) {
        check_deferred_consensus();
        deferred_drained_ = true;
        poller_active_ = false;
        return;
      }
    }
  });
}

bool DcrRuntime::check_deferred_consensus() {
  std::size_t min_count = std::numeric_limits<std::size_t>::max();
  std::uint64_t max_next_op = 0;
  for (const auto& st : shards_) {
    min_count = std::min(min_count, st->deferred_requests.size());
    max_next_op = std::max(max_next_op, st->next_op);
  }
  bool progressed = false;
  while (deferred_consensus_ < min_count) {
    const RegionTreeId tree = shards_[0]->deferred_requests[deferred_consensus_];
    for (const auto& st : shards_) {
      if (st->deferred_requests[deferred_consensus_] != tree) {
        stats_.determinism_violation = true;
        stats_.violation_message = "deferred deletions diverged across shards";
        return progressed;
      }
    }
    // Insert at an index no shard has passed yet, after prior insertions.
    std::uint64_t idx = max_next_op;
    if (!agreed_insertions_.empty()) {
      idx = std::max(idx, agreed_insertions_.rbegin()->first + 1);
    }
    agreed_insertions_.emplace(idx, DeletePayload{tree});
    deferred_consensus_++;
    progressed = true;
  }
  return progressed;
}

void DcrRuntime::finalize_shard(ShardContext& ctx) {
  ShardState& st = shard(ctx.shard_id());
  st.main_returned = true;
  ctx.end_program();
  // Drain: wait until deferred consensus settles (poller observes all shards
  // done), then process any agreed insertions this shard has not reached.
  while (poller_active_ && !deferred_drained_) {
    ctx.process().delay(config_.deferred_poll_initial);
  }
  for (auto& [idx, payload] : agreed_insertions_) {
    if (idx >= st.next_op) {
      OpRecord del{OpId(idx), OpPayload(payload), false};
      st.next_op = idx + 1;
      st.deletions_processed++;
      process_op(st.id, del);
    }
  }
  ctx.execution_fence();
  st.done = true;
}

// ----------------------------------------------------------------- execute

DcrStats DcrRuntime::execute(const ApplicationMain& main) {
  main_ = main;  // kept so replacement shards can re-execute the program
  for (auto& st : shards_) spawn_shard(*st);
  if (sim::FaultPlan* plan = machine_.faults()) {
    DCR_CHECK(machine_.reliable() != nullptr)
        << "fault plan attached without Machine::install_faults";
    plan->on_crash([this](NodeId n, SimTime t) { on_node_crash(n, t); });
    start_monitor();
  }
  if (config_.halt_on_violation && checker_.enabled()) {
    checker_.set_violation_handler(
        [this](const std::string& msg) { abort_execution(msg); });
  }
  stats_.makespan = machine_.sim().run();

  stats_.completed = true;
  for (const auto& st : shards_) stats_.completed = stats_.completed && st->done;
  if (checker_.has_violation()) {
    stats_.determinism_violation = true;
    stats_.violation_message = checker_.violation_message();
  }
  if (const auto unresolved = checker_.first_unresolved()) {
    stats_.completed = false;
    // Equal hashes over the common prefix, but a shorter call stream on some
    // shard: name the shards that stopped before the first unresolved call.
    if (!stats_.determinism_violation && !aborted_) {
      std::string ids;
      std::size_t count = 0;
      for (const auto& st : shards_) {
        if (st->api_calls > unresolved->call_index) continue;
        ids += (count++ ? ", " : "") + std::to_string(st->id.value);
      }
      stats_.determinism_violation = true;
      stats_.violation_message = std::string("control determinism violation: ") +
                                 (count == 1 ? "shard " : "shards ") + ids +
                                 " stopped before API call " +
                                 std::to_string(unresolved->call_index) + " (" +
                                 unresolved->what + ")";
    }
  }
  stats_.bytes_moved = physical_.bytes_moved();
  stats_.messages = machine_.network().stats().messages;
  for (std::size_t n = 0; n < machine_.num_nodes(); ++n) {
    stats_.analysis_busy += machine_.analysis_proc(NodeId(static_cast<std::uint32_t>(n))).busy_time();
  }
  stats_.compute_busy = machine_.total_compute_busy();
  for (const auto& st : shards_) st->roll_up(stats_, profiler_);
  fine_.finish();
  stats_.point_tasks_launched = fine_.points_launched();

  stats_.aborted = aborted_;
  stats_.abort_message = abort_message_;
  if (aborted_) stats_.completed = false;
  // With a spy trace on hand, upgrade the hash-only determinism-violation
  // message to the linter's argument-level report: which call diverged, which
  // shards disagree, and which argument differed.
  if (trace_ && stats_.determinism_violation) {
    const spy::LintResult lint = spy::lint_control_determinism(*trace_);
    if (lint.divergent) {
      stats_.violation_message = lint.message;
      if (stats_.aborted) stats_.abort_message = lint.message;
    }
  }
  // A determinism violation without halt_on_violation never reached
  // abort_execution; the flight rings are just as useful there.
  if (flight_ && !flight_dumped_ && !config_.flight_path.empty() &&
      stats_.determinism_violation) {
    flight_dumped_ = true;
    flight_->dump(config_.flight_path, stats_.violation_message.c_str(),
                  &profiler_);
  }
  stats_.failures = failures_;
  stats_.failures_detected = failures_.size();
  if (const sim::FaultPlan* plan = machine_.faults()) {
    stats_.messages_dropped = plan->stats().drops + plan->stats().blackouts;
    stats_.sdc_corruptions_injected = plan->stats().sdc_injected;
  }
  if (const sim::ReliableDelivery* rel = machine_.reliable()) {
    stats_.retransmits = rel->stats().retransmits;
  }

  // SDC replication: mirror the taint set and the quorum executor's ledger.
  stats_.sdc_tainted_ops = taint_.tainted_ops();
  stats_.sdc_tainted_futures = taint_.tainted_futures();
  if (replicator_) {
    const ReplicationExecutor::Stats& rs = replicator_->stats();
    stats_.sdc_tickets = rs.tickets;
    stats_.sdc_replicas_issued = rs.replicas_issued;
    stats_.sdc_replicas_compared = rs.replicas_compared;
    stats_.sdc_replicas_lost = rs.replicas_lost;
    stats_.sdc_corruptions_detected = rs.mismatched_ballots;
    stats_.sdc_corruptions_healed = rs.healed;
    stats_.sdc_quorum_rounds = rs.rounds;
    stats_.sdc_stale_votes = rs.stale_votes;
  }

  // Static interference analysis: mirror the prover's verdict ledger.  The
  // resolved/unresolved split was charged online in coarse_decision; cache
  // hits come from the prover itself.
  {
    const statics::InterferenceProver::Stats& ps = statics_prover_.stats();
    stats_.statics_cache_hits = ps.cache_hits;
    profiler_.global().add(prof::GlobalCounter::StaticProofCacheHits, ps.cache_hits);
    stats_.statics_resolved_ops =
        profiler_.global().get(prof::GlobalCounter::StaticLaunchesResolved);
    stats_.statics_unresolved_ops =
        profiler_.global().get(prof::GlobalCounter::StaticLaunchesUnresolved);
    for (std::size_t sh = 0; sh < num_shards(); ++sh) {
      stats_.statics_skipped_points +=
          profiler_.shard(static_cast<std::uint32_t>(sh)).get(prof::Counter::StaticSkipPoints);
    }
  }

  // Mirror the end-of-run totals into the profiler's global counter bank so a
  // snapshot (tools/dcr-prof, golden traces) is self-contained: template
  // health (rolled up per shard above), transport retries, and fault/recovery
  // history all live beside the fence/elision ledger that was maintained
  // online.
  prof::Counters& g = profiler_.global();
  g.add(prof::GlobalCounter::Retransmits, stats_.retransmits);
  g.add(prof::GlobalCounter::MessagesDropped, stats_.messages_dropped);
  g.add(prof::GlobalCounter::FailuresDetected, stats_.failures_detected);
  g.add(prof::GlobalCounter::Recoveries, stats_.recoveries);
  g.add(prof::GlobalCounter::RecoveryEpochs, recovery_epoch_);
  for (const auto& [op, rec] : fences_) {
    (void)op;
    if (rec.coll && rec.coll->complete()) {
      g.add(prof::GlobalCounter::CollectiveLatencyNs, rec.coll->latency());
    }
  }

  // dcr-scope: harvest every fence's per-rank timestamps + merged releaser
  // into the blame ledger, in dependent-op order (fences_ is an ordered map).
  if (scope_) {
    for (const auto& [op, rec] : fences_) {
      if (rec.coll) scope_->harvest_fence(op.value, *rec.coll);
    }
    scope_->set_run_info(stats_.makespan, recovery_epoch_);
  }
  return stats_;
}

// ------------------------------------------------ failure detection/recovery

void DcrRuntime::spawn_shard(ShardState& st) {
  std::string name = "shard-" + std::to_string(st.id.value);
  if (st.incarnation > 0) name += "#" + std::to_string(st.incarnation);
  st.process = &machine_.sim().spawn(
      std::move(name), [this, sp = &st](sim::ProcessContext& pctx) {
        ShardContext ctx(*this, sp->id, pctx);
        // Fail-stop: a control program that throws aborts the run instead of
        // unwinding out of Simulator::run().  sim::ProcessKilled is not a
        // std::exception, so a killed shard still unwinds.
        try {
          main_(ctx);
          finalize_shard(ctx);
        } catch (const std::exception& e) {
          abort_execution(shard_failure_message(sp->id, e.what()));
        }
      });
}

// Fired by the fault plan at crash time: the node is fail-stop, so every
// control process hosted there dies mid-flight.  Detection is NOT free here —
// peers only learn of the death through the lease monitor below.
void DcrRuntime::on_node_crash(NodeId node, SimTime t) {
  for (auto& stp : shards_) {
    ShardState& st = *stp;
    if (st.node != node || st.crashed) continue;
    st.crashed = true;
    st.crashed_at = t;
    if (st.process && !st.process->finished()) st.process->kill();
  }
}

void DcrRuntime::start_monitor() {
  machine_.sim().spawn("failure-monitor", [this](sim::ProcessContext& pctx) {
    for (;;) {
      pctx.delay(config_.lease_interval);
      if (aborted_) return;
      bool all_done = true;
      for (const auto& st : shards_) all_done = all_done && st->done && !st->crashed;
      if (all_done) return;
      const SimTime now = pctx.now();
      for (auto& stp : shards_) {
        ShardState& st = *stp;
        if (st.dead || st.probe_inflight) continue;
        // A finished shard stops refreshing its lease by construction; only
        // chase it if its node actually died (it may still owe collective
        // relay hops to its peers).
        if (st.done && !st.crashed) continue;
        if (now - st.last_heard < config_.lease_timeout) continue;
        probe_shard(st);
      }
    }
  });
}

std::optional<NodeId> DcrRuntime::probe_source(NodeId target) const {
  for (const auto& st : shards_) {
    if (st->dead || st->crashed || st->node == target) continue;
    if (machine_.faults()->node_dark(st->node, machine_.sim().now())) continue;
    return st->node;
  }
  return std::nullopt;
}

// A stale lease alone is not proof of death — the shard may simply be blocked
// waiting on a future.  The monitor pings the suspect's node over the
// reliable transport (with a tight retry budget); an ack refreshes the lease,
// exhaustion of the budget is the declaration of death.
void DcrRuntime::probe_shard(ShardState& st) {
  const std::optional<NodeId> src = probe_source(st.node);
  if (!src) return;  // no live peer to probe from; try again next scan
  st.probe_inflight = true;
  sim::ReliableParams probe_params = machine_.reliable()->params();
  probe_params.max_attempts = config_.probe_attempts;
  auto t = machine_.reliable()->transfer(*src, st.node, /*bytes=*/64, &probe_params);
  t.acked.on_trigger([this, sp = &st] {
    sp->probe_inflight = false;
    sp->last_heard = machine_.sim().now();
  });
  t.failed.on_trigger([this, sp = &st] {
    sp->probe_inflight = false;
    if (!sp->dead) declare_dead(*sp);
  });
}

void DcrRuntime::declare_dead(ShardState& st) {
  if (st.dead) return;
  st.dead = true;
  // Fence the old incarnation even if the node is merely unreachable (a long
  // outage, not a crash): a zombie control program issuing ops concurrently
  // with its replacement would corrupt the replicated state.
  if (st.process && !st.process->finished()) st.process->kill();

  FailureReport rep;
  rep.shard = st.id;
  rep.node = st.node;
  rep.crashed_at = st.crashed ? st.crashed_at : machine_.sim().now();
  rep.detected_at = machine_.sim().now();
  rep.committed_ops = st.commit.committed_ops();
  rep.committed_api_calls = st.commit.committed_calls();
  rep.committed_epochs = st.commit.epochs();
  rep.outstanding_ops = quiescence_.outstanding();
  failures_.push_back(rep);

  if (!config_.auto_recover) {
    abort_execution("shard failure detected: " + rep.describe());
    return;
  }
  start_recovery(st);
}

// Control-deterministic recovery: bring the node back, reset the replayable
// cursors, and re-run the control program from the top.  The replicated-
// creation heap, futures map, shared coarse state, and fence collectives all
// survive in the runtime, so the replay is pure fast-forwarding: it re-derives
// shard-local state (cursors, trace signatures, RNG position) and skips every
// externally visible side effect below the committed frontier.
void DcrRuntime::start_recovery(ShardState& st) {
  const std::size_t report_idx = failures_.size() - 1;
  machine_.sim().schedule(config_.restart_delay, [this, sp = &st, report_idx] {
    if (aborted_) return;
    ShardState& st = *sp;
    machine_.faults()->restart_node(st.node, machine_.sim().now());
    st.crashed = false;
    st.dead = false;
    st.last_heard = machine_.sim().now();
    stats_.recoveries++;
    if (st.done) {
      // The shard had already finished; restarting the node just restores its
      // relay duties in still-pending collectives.  Nothing to replay.
      failures_[report_idx].recovered = true;
      failures_[report_idx].recovered_at = machine_.sim().now();
      return;
    }
    st.incarnation++;
    st.replay_ops_end = st.commit.committed_ops();
    st.replay_calls_end = st.commit.committed_calls();
    // Reset everything the control program re-derives.  fine_tail and the
    // commit log survive: the fine pipeline keeps draining under the
    // replacement, and the committed frontier must never move backwards.
    st.next_creation = 0;
    st.next_future = 0;
    st.next_future_map = 0;
    st.next_op = 0;
    st.api_calls = 0;
    st.rng = Philox4x32(/*seed=*/0x5eed, /*stream=*/0);
    // Failover drops every cached dependence template (ISSUE: templates are
    // rebuilt from scratch by the replacement) and bumps the runtime-wide
    // recovery epoch so live shards drop theirs at the next window begin.
    failures_[report_idx].templates_dropped = st.templates.size();
    st.templates.reset();
    // The replayed call stream deterministically rebuilds the auto tracer's
    // state from the top; starting from anything else would diverge from what
    // the dead incarnation did at the same call indices.
    st.auto_tracer.reset();
    st.auto_open = false;
    st.auto_stop = false;
    recovery_epoch_++;
    st.deferred_requests.clear();
    st.deletions_processed = 0;
    st.main_returned = false;
    st.pending_report = static_cast<std::int64_t>(report_idx);
    failures_[report_idx].replay_started = machine_.sim().now();
    if (st.replay_calls_end == 0) {
      // Crashed before the first API call: nothing to fast-forward through.
      failures_[report_idx].recovered = true;
      failures_[report_idx].recovered_at = machine_.sim().now();
      st.pending_report = -1;
    }
    spawn_shard(st);
  });
}

// Graceful abort: record the reason, then kill every shard's control process
// so the simulation drains instead of hanging on collectives that can never
// complete.  The kill is deferred to a fresh calendar item because an abort
// can be requested from inside a trigger cascade while a process is running
// (e.g. a determinism check resolving during another shard's API call).
void DcrRuntime::abort_execution(std::string reason) {
  if (aborted_) return;
  aborted_ = true;
  abort_message_ = std::move(reason);
  // Crash flight recorder: dump the per-shard rings at the abort point —
  // determinism violations, "SDC quorum unresolved", shard-failure aborts —
  // so post-mortem triage needs no re-run.
  if (flight_ && !flight_dumped_ && !config_.flight_path.empty()) {
    flight_dumped_ = true;
    flight_->dump(config_.flight_path, abort_message_.c_str(), &profiler_);
  }
  machine_.sim().schedule(0, [this] {
    for (auto& st : shards_) {
      if (st->process && !st->process->finished()) st->process->kill();
    }
  });
}

}  // namespace dcr::core
