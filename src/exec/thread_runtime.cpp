#include "exec/thread_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/hash128.hpp"
#include "dcr/sig.hpp"
#include "spy/verify.hpp"

namespace dcr::exec {

using core::CoarseDecision;
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
    const std::shared_ptr<ValueCollective> coll = rt_.future(f.id);
    DCR_CHECK(coll) << "future " << f.id << " has no producer";
    const double v = coll->wait();
    // Merged context of the arrivals: the globally last contributor.
    releaser = coll->result_ctx();
    return v;
  }

  // The answer races real thread progress here, where the simulator's
  // depends on virtual time.
  bool poll_future(const core::Future& f) override {
    const std::shared_ptr<ValueCollective> coll = rt_.future(f.id);
    return coll && coll->ready();
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
      profiler_(config_.num_shards),
      tracker_(config_.record_task_graph
                   ? std::make_optional<core::UserTracker>(/*keep_completed=*/true)
                   : std::nullopt) {
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    auto st = std::make_unique<ThreadShard>();
    st->id = ShardId(static_cast<std::uint32_t>(s));
    st->forest = &st->own_forest;
    st->shardings = &st->own_shardings;
    st->prover = std::make_unique<statics::InterferenceProver>(st->own_forest, projections_,
                                                               config_.statics_check);
    shards_.push_back(std::move(st));
  }
  if (config_.record_trace) {
    trace_ = std::make_unique<spy::Trace>();
    trace_->num_shards = config_.num_shards;
    trace_->calls.resize(config_.num_shards);
  }
  if (config_.profile || config_.scope) {
    ledger_ = std::make_unique<dcr::scope::Recorder>(config_.num_shards, config_.profile);
  }
  if (config_.scope) {
    scope_ = ledger_.get();
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
                    .ledger = ledger_.get(),
                    .scope = scope_,
                    .mapper = config_.mapper,
                    .num_shards = config_.num_shards,
                    .tracing_enabled = config_.tracing_enabled,
                    .template_validation = config_.template_validation,
                    .auto_trace = config_.auto_trace};
  for (auto& st : shards_) st->configure_auto_trace(front_end_env_);
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

void ThreadRuntime::ensure_future(std::uint64_t id, std::uint32_t ranks, double init,
                                  ValueCollective::CombineFn combine) {
  std::lock_guard<std::mutex> lk(futures_mu_);
  auto [it, inserted] = futures_.try_emplace(id);
  if (!inserted) return;
  profiler_.global().add(prof::GlobalCounter::FutureCollectives);
  profiler_.global().add(prof::GlobalCounter::CollectiveRounds);
  it->second = std::make_shared<ValueCollective>(ranks, init, std::move(combine));
}

std::shared_ptr<ValueCollective> ThreadRuntime::future(std::uint64_t id) {
  std::lock_guard<std::mutex> lk(futures_mu_);
  auto it = futures_.find(id);
  return it == futures_.end() ? nullptr : it->second;
}

dcr::scope::TraceCtx ThreadRuntime::scope_ctx(const ThreadShard& st) const {
  if (!scope_) return {};
  return scope_->current_ctx(st.id.value, clock_.now());
}

void ThreadRuntime::publish_future(ThreadShard& st, std::uint64_t id, double value) {
  // The producer's current span is the releaser every waiter names (the
  // threads analogue of the simulator's network-carried TraceCtx).
  const dcr::scope::TraceCtx ctx = scope_ctx(st);
  future(id)->arrive(0, value, ctx);
  if (!scope_) return;
  // dcr-scope counts the broadcast as one logical message per peer, charged
  // to the origin, each the (future id, value, context) record a message-
  // passing transport would carry.
  constexpr std::uint64_t kBroadcastMsgBytes =
      sizeof(std::uint64_t) + sizeof(double) + sizeof(dcr::scope::TraceCtx);
  for (std::size_t peer = 1; peer < num_shards(); ++peer) {
    scope_->on_message(ctx, kBroadcastMsgBytes);
  }
}

// ----------------------------------------------------------------- issuing

void ThreadRuntime::submit_op(ThreadShard& st, const OpRecord& op) {
  // Futures are created eagerly at issue so the control program can wait on
  // them before any shard's execution has reached the producing op.
  if (const auto* task = std::get_if<TaskPayload>(&op.payload)) {
    // Single-task futures broadcast from the owner shard (§4.2).
    if (task->future_id != ~0ull) {
      ensure_future(task->future_id, 1, 0.0, [](double, double v) { return v; });
    }
  } else if (const auto* red = std::get_if<ReducePayload>(&op.payload)) {
    // An empty partial holds each ReduceOp's identity.
    const core::ReduceOp rop = red->op;
    ensure_future(red->future_id, static_cast<std::uint32_t>(num_shards()),
                  core::FmPartial{}.pick(rop),
                  [rop](double a, double b) { return core::apply_reduce(rop, a, b); });
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
  pc.add(prof::Counter::CoarseAnalysisNs, c1 - c0);  // real wall ns here
  pc.observe(prof::Hist::CoarseStageNs, c1 - c0);
  front_end_env_.record_span(
      {op.traced ? prof::SpanKind::CoarseReplay : prof::SpanKind::CoarseAnalysis,
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
    if (scope_) coll->complete_rank(st.id.value, w1);
    pc.add(prof::Counter::FenceWaitNs, w1 - w0);
    pc.observe(prof::Hist::FenceWaitNs, w1 - w0);
    front_end_env_.record_span({prof::SpanKind::FenceWait, prof::Lane::Fence, st.id.value,
                                w0, w1, op.id.value, prof_iter});
  }

  // ---- fine stage: the shared code, with every point run inline ----
  // No virtual cost model here, so no StaticSkipSavedNs estimate is charged.
  fine_.count_op(st, op, dec);
  const SimTime f0 = clock_.now();
  fine_.execute(st, op, *this);
  const SimTime f1 = clock_.now();
  pc.add(prof::Counter::FineAnalysisNs, f1 - f0);
  pc.observe(prof::Hist::FineStageNs, f1 - f0);
  // The completed fine stage becomes this shard's current span — the causal
  // parent of every launch/arrival/publish it does next.
  front_end_env_.record_span(
      {op.traced ? prof::SpanKind::FineReplay : prof::SpanKind::FineAnalysis,
       prof::Lane::Analysis, st.id.value, f0, f1, op.id.value, prof_iter});
}

// ------------------------------------------------------- fine-stage hooks

void ThreadRuntime::run_point(core::FineWork& w, core::PointTaskInfo info, SimTime duration) {
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
  if (!w.wants_value()) return;
  const double value = core::point_value(functions_.at(info.fn), info);
  if (w.future_map_id != ~0ull) fine_.partial(w.shard.id, w.future_map_id).fold(value);
  // Only the owner shard executes a single task; it is the broadcast root.
  if (w.future_id != ~0ull) publish_future(shard(w.shard.id), w.future_id, value);
}

// Inline execution: this shard's owned points of the producing launch
// completed during that op's process_op, so the partial is final.
void ThreadRuntime::contribute_reduce(const core::FrontEndState& st,
                                      const core::ReducePayload& red,
                                      const core::FmPartial& partial) {
  // The collective was created when this shard issued the reduce.
  future(red.future_id)->arrive(st.id.value, partial.pick(red.op), scope_ctx(shard(st.id)));
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
  fine_.finish();
  stats.point_tasks_launched = fine_.points_launched();
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

  for (const auto& st : shards_) st->roll_up(stats, profiler_);

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
