// Real-threads execution backend: every shard of the control-replicated
// program runs as an OS thread, behind the same application API (Context) and
// observable surface (DcrStats, spy::Trace, prof::Profiler, realized task
// graph) as the discrete-event simulator backend (dcr/runtime.hpp).
//
// The load-bearing property is differential determinism: the same program
// produces a spy-identical task graph — identical §3 call-hash streams,
// identical op/coarse-dependence/elision records, identical realized tasks
// and edges, identical template window hits and statics verdicts — on both
// backends.  That is not an accident of testing but of construction:
//
//  * the whole shard front end (dcr/front_end.hpp: §3 call hashing,
//    creations, op issue with the template dispatch, the auto-trace tap and
//    window accounting), the op model (dcr/ops.hpp), the coarse dependence
//    stage (dcr/coarse.hpp) and the fine stage (dcr/fine_stage.hpp: point
//    ownership, task numbering, user tracking, realized graph, spy task
//    records, future-map partials) are the *same code* on both backends;
//    this backend implements only the front end's and the fine stage's
//    hooks, and calls the shared CoarseAnalyzer under a mutex where the
//    simulator calls it from its event loop;
//  * per-shard state that the simulator replicates logically (region forest,
//    sharding memoization, template store, RNG) is replicated physically —
//    one instance per thread, no sharing, no locks;
//  * cross-shard coordination uses wall-clock primitives with the same
//    semantics as the simulated collectives: FenceCollective (sense-
//    reversing barrier) for pipeline fences, and ValueCollective (one slot
//    per rank, rank-ordered combine, one write-once result) for every
//    future — an all-reduce over all shards, or a one-rank broadcast from
//    the shard that owns the producing single task.
//
// tests/test_exec.cpp enforces the property by running every fuzz program
// through both backends and diffing with spy::graph_equivalent.
//
// dcr-scope on threads (ThreadConfig::scope): the full causal-tracing stack
// runs on wall-clock time — TraceCtx rides every collective arrival (a
// future's merged result context names its releaser), the fence collectives
// stamp per-rank arrival/completion blame timestamps, and the thread-safe
// Recorder ledgers (per-shard single-writer appends, merged at join)
// reconcile exactly against prof FenceWaitNs because the *same two clock
// reads* feed both ledgers.  A bounded per-shard flight-recorder ring
// (scope/flight.hpp) is dumped on determinism-violation aborts for
// post-mortem triage without a re-run.
//
// Deliberate non-goals (simulator-only features): fault injection and
// recovery, SDC replication, the physical data-movement model (bytes_moved
// reports 0; messages counts broadcast-future deliveries only under scope),
// and deferred deletions (destroy_region_deferred aborts — there is no
// consensus poller).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dcr/api.hpp"
#include "dcr/coarse.hpp"
#include "dcr/fine_stage.hpp"
#include "dcr/front_end.hpp"
#include "dcr/mapper.hpp"
#include "dcr/ops.hpp"
#include "dcr/runtime.hpp"
#include "dcr/sharding.hpp"
#include "dcr/template.hpp"
#include "dcr/trace_id.hpp"
#include "dcr/user_tracker.hpp"
#include "exec/clock.hpp"
#include "exec/collective.hpp"
#include "exec/gate.hpp"
#include "prof/profiler.hpp"
#include "scope/recorder.hpp"
#include "runtime/region.hpp"
#include "runtime/requirement.hpp"
#include "runtime/task_graph.hpp"
#include "spy/trace.hpp"
#include "statics/lint.hpp"
#include "statics/prover.hpp"

namespace dcr::exec {

struct ThreadConfig {
  std::size_t num_shards = 2;

  // Concurrency cap for point-task execution (the stand-in for "P compute
  // cores"); 0 = uncapped.  Analysis always runs one thread per shard.
  std::uint32_t compute_slots = 0;

  // Each point task occupies a compute slot for (virtual duration ×
  // work_scale) wall nanoseconds, so the ConcurrencyGate yields measurable
  // strong scaling (bench/bench_exec.cpp).  0 = tasks are pure bookkeeping
  // (the differential tests).
  double work_scale = 0.0;

  // How the slot is occupied: busy-spin (models host-side compute — needs as
  // many cores as slots to actually scale) or a timed sleep (models the host
  // thread blocked on an offloaded accelerator kernel — sleeps overlap even
  // on a single core, so this is what bench_exec uses).
  bool work_sleep = false;

  // Analysis knobs, mirroring DcrConfig (dcr/runtime.hpp).
  bool determinism_checks = true;
  bool tracing_enabled = true;
  bool template_validation = true;
  // Automatic repeated-trace identification (dcr/trace_id.hpp): same detector
  // as the simulator backend, one instance per shard thread.
  core::TraceIdConfig auto_trace;
  bool disable_fence_elision = false;
  bool static_analysis = true;
  bool statics_check = false;
  bool record_task_graph = false;
  bool record_trace = false;  // implies record_task_graph
  bool profile = false;       // every span kind, on exec::WallClock, in ledger()

  // dcr-scope causal tracing (scope/recorder.hpp): thread-safe per-shard
  // ledgers on wall-clock time.  TraceCtx rides the future and fence
  // collective arrivals; blame reports reconcile exactly against prof
  // FenceWaitNs (the same clock reads feed both).
  bool scope = false;
  // Crash flight recorder (scope/flight.hpp): ring of the most recent scope
  // events per shard, dumped to flight_path as Perfetto-loadable JSON when a
  // determinism violation aborts the run.  Requires scope; "" = keep the ring
  // in memory only (still dumpable via flight()).
  std::size_t flight_capacity = 256;
  std::string flight_path;

  // Deterministic mapping policy; must also be thread-safe (it is queried
  // concurrently from every shard thread).  nullptr = default policies.
  core::Mapper* mapper = nullptr;
};

class ThreadRuntime : private core::FineHooks {
 public:
  ThreadRuntime(core::FunctionRegistry& functions, ThreadConfig config = {});
  ~ThreadRuntime();

  ThreadRuntime(const ThreadRuntime&) = delete;
  ThreadRuntime& operator=(const ThreadRuntime&) = delete;

  // Runs `main` replicated across num_shards OS threads; returns once every
  // thread joins.  DcrStats::makespan is wall-clock nanoseconds; the
  // simulator-only fields (bytes_moved, messages, analysis_busy,
  // compute_busy, fault/SDC counters) are 0.
  core::DcrStats execute(const core::ApplicationMain& main);

  std::size_t num_shards() const { return config_.num_shards; }

  // Registration (before execute only): shardings are replicated into every
  // shard's registry; the projection registry is shared and read-only during
  // execution.
  ShardingId register_sharding(core::ShardingRegistry::ShardingFn fn);
  rt::ProjectionRegistry& projections() { return projections_; }

  // Observability, mirroring DcrRuntime.
  const spy::Trace* trace() const { return trace_.get(); }
  prof::Profiler& profiler() { return profiler_; }
  const prof::Profiler& profiler() const { return profiler_; }
  const rt::TaskGraph& realized_graph() const { return fine_.realized_graph(); }
  using RealizedTask = core::RealizedTask;
  const std::vector<RealizedTask>& realized_tasks() const { return fine_.realized_tasks(); }
  const statics::LaunchLedger& statics_ledger() const { return statics_ledger_; }
  // Summed virtual durations (cost model, not wall); complete at join.
  const std::map<FunctionId, core::FunctionProfile>& profile() const { return fine_.profile(); }
  core::TemplateManager& shard_templates(ShardId s);
  const core::TraceIdentifier& shard_auto_tracer(ShardId s);
  const Clock& clock() const { return clock_; }
  // The span store; non-null iff config.profile or config.scope (name
  // shadows the namespace inside this class, hence the qualified type — same
  // convention as DcrRuntime::ledger()).
  const dcr::scope::Recorder* ledger() const { return ledger_.get(); }
  // The same ledger as the dcr-scope causal ledger; null unless config.scope.
  const dcr::scope::Recorder* scope() const { return scope_; }
  const dcr::scope::FlightRecorder* flight() const { return flight_.get(); }

 private:
  friend class ThreadShardContext;

  // State owned by exactly one shard thread: the front end's cursors,
  // templates and auto tracer (dcr/front_end.hpp), plus the physical replica
  // of what the simulator backend replicates logically — the front end's
  // forest and shardings point at this shard's own copies.
  struct ThreadShard : core::FrontEndState {
    rt::RegionForest own_forest;
    core::ShardingRegistry own_shardings;
    std::unique_ptr<statics::InterferenceProver> prover;  // over own_forest
    Hash128 call_fold{};  // running fold of §3 call hashes, compared at join
    std::string error;  // first failure on this thread, surfaced at join
  };

  ThreadShard& shard(ShardId s) { return *shards_[s.value]; }
  ShardId single_op_owner(OpId op) const {
    return ShardId(static_cast<std::uint32_t>(op.value % config_.num_shards));
  }

  // Coarse-stage front door: the shared analyzer under analysis_mu_, stats
  // mirroring + spy emission gated on `fresh` (exactly once, program order).
  // Returns a copy so callers never touch the cache without the lock.
  core::CoarseDecision coarse_decision(ThreadShard& st, const core::OpRecord& op);
  core::CoarseDecision install_replayed_decision(const core::OpRecord& op);

  std::shared_ptr<FenceCollective> fence_for(OpId dependent);
  // Create a future's collective at issue (the first issuing shard wins);
  // future() is null for an id no shard has issued yet.
  void ensure_future(std::uint64_t id, std::uint32_t ranks, double init,
                     ValueCollective::CombineFn combine);
  std::shared_ptr<ValueCollective> future(std::uint64_t id);
  void publish_future(ThreadShard& st, std::uint64_t id, double value);
  // The calling shard's current causal context; invalid when scope is off.
  dcr::scope::TraceCtx scope_ctx(const ThreadShard& st) const;

  // The front end's submit hook: create the op's future, then analyse and
  // execute it inline.
  void submit_op(ThreadShard& st, const core::OpRecord& op);
  void process_op(ThreadShard& st, const core::OpRecord& op);

  // ---- fine-stage hooks (dcr/fine_stage.hpp): run each point inline ----
  void run_point(core::FineWork& w, core::PointTaskInfo info, SimTime duration) override;
  void contribute_reduce(const core::FrontEndState& st, const core::ReducePayload& red,
                         const core::FmPartial& partial) override;
  void shard_main(ThreadShard& st, const core::ApplicationMain& main);
  void busy_spin(SimTime wall_ns);

  core::FunctionRegistry& functions_;
  ThreadConfig config_;
  prof::Profiler profiler_;
  WallClock clock_;
  rt::ProjectionRegistry projections_;
  statics::LaunchLedger statics_ledger_;
  // Point-level user tracking feeds only the realized graph here, so the
  // tracker exists only under record_task_graph.
  std::optional<core::UserTracker> tracker_;
  core::CoarseAnalyzer coarse_{
      core::CoarseAnalyzer::Options{config_.disable_fence_elision, config_.static_analysis,
                                    config_.statics_check},
      profiler_};
  ConcurrencyGate gate_{config_.compute_slots};

  std::vector<std::unique_ptr<ThreadShard>> shards_;

  // analysis_mu_ guards the shared analyzer, the statics ledger, the
  // coarse-stage DcrStats mirror below (coarse_deps, fences_elided,
  // fences_inserted), and spy op/coarse-dep emission (program-order streams).
  std::mutex analysis_mu_;
  core::DcrStats analysis_stats_;

  // Every future by id: a single-task future is a one-rank collective its
  // owner shard arrives at (§4.2 broadcast), a future-map reduce has one rank
  // per shard (all-reduce).
  std::mutex futures_mu_;
  std::map<std::uint64_t, std::shared_ptr<ValueCollective>> futures_;
  std::mutex fences_mu_;
  std::map<std::uint64_t, std::shared_ptr<FenceCollective>> fences_;

  std::atomic<std::uint64_t> determinism_checks_{0};
  std::atomic<std::uint64_t> traced_ops_{0};

  std::unique_ptr<spy::Trace> trace_;  // non-null iff config_.record_trace
  // Span ledger; non-null iff config_.profile || config_.scope.  scope_ (the
  // same object) and the crash flight recorder are non-null iff config_.scope.
  std::unique_ptr<dcr::scope::Recorder> ledger_;
  dcr::scope::Recorder* scope_ = nullptr;
  std::unique_ptr<dcr::scope::FlightRecorder> flight_;
  // What the shards' front ends read from this runtime (set in the ctor).
  core::FrontEndEnv front_end_env_;
  core::FineStage fine_{front_end_env_, functions_, tracker_ ? &*tracker_ : nullptr,
                        config_.num_shards, config_.record_task_graph, /*concurrent=*/true};
  bool executed_ = false;
};

}  // namespace dcr::exec
