// The dynamic-control-replication executor (paper §4).
//
// DcrRuntime runs an application's control program replicated across N
// shards (one SimProcess per shard).  Each shard:
//
//  * re-executes the full control program (creations are replication-safe:
//    the k-th creation call returns the same handle on every shard),
//  * runs the two-stage dependence analysis of Figure 9 on its node's
//    analysis processor: a coarse stage at task-group granularity whose cost
//    is independent of machine size, and a fine stage that analyzes and
//    launches only the points its sharding function assigns to it,
//  * coordinates cross-shard dependences with fences implemented as
//    zero-payload all-gather collectives (§4.1/§4.2), eliding them when the
//    symbolic same-(sharding, domain, partition, projection) proof shows all
//    point-level dependences are shard-local,
//  * hashes every API call and cross-checks shards for control determinism
//    (§3), and handles deferred deletions from GC finalizers by consensus
//    polling with exponential back-off (§4.3).
//
// Analysis executes *for real* (actual region-tree queries, actual fence
// decisions, actual point enumeration); the simulator only accounts time and
// message traffic, per the substitution argument in DESIGN.md.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dcr/api.hpp"
#include "dcr/coarse.hpp"
#include "dcr/determinism.hpp"
#include "dcr/fine_stage.hpp"
#include "dcr/front_end.hpp"
#include "dcr/ops.hpp"
#include "dcr/mapper.hpp"
#include "dcr/recovery.hpp"
#include "dcr/replicate.hpp"
#include "dcr/sharding.hpp"
#include "dcr/template.hpp"
#include "dcr/trace_id.hpp"
#include "dcr/user_tracker.hpp"
#include "prof/profiler.hpp"
#include "runtime/physical.hpp"
#include "scope/recorder.hpp"
#include "statics/lint.hpp"
#include "statics/prover.hpp"
#include "runtime/region.hpp"
#include "runtime/task_graph.hpp"
#include "spy/trace.hpp"
#include "sim/clock.hpp"
#include "sim/collective.hpp"
#include "sim/machine.hpp"
#include "sim/quiescence.hpp"

namespace dcr::core {

struct DcrConfig {
  // Shards: one per node by default.  With shards_per_node > 1, shard s runs
  // on node s / shards_per_node (the paper's "one shard per GPU" setups).
  std::size_t shards_per_node = 1;

  // Control-program and analysis cost model (virtual time).
  SimTime issue_cost = ns(200);            // per API call in the control program
  SimTime coarse_cost_per_req = us(1);     // coarse stage, per requirement
  SimTime fine_cost_per_point = us(1);     // fine stage, per owned point
  SimTime fine_cost_per_op = ns(500);      // fine stage, fixed per op
  SimTime hash_cost = ns(100);             // determinism hash per API call

  // Dependence templates (dcr/template.hpp): ops replayed from a validated
  // template skip re-analysis and charge these reduced costs instead.
  SimTime traced_coarse_cost_per_req = ns(100);
  SimTime traced_fine_cost_per_point = ns(60);
  SimTime traced_fine_cost_per_op = ns(100);

  bool determinism_checks = true;
  bool tracing_enabled = true;
  // Require the capture -> validate -> replay lifecycle: a captured template
  // is shadow-compared against one full fresh analysis (and audited against
  // the DEPseq sequential semantics) before its first replay.  Disabling
  // replays templates on their first recurrence, unvalidated.
  bool template_validation = true;
  // Automatic repeated-trace identification (dcr/trace_id.hpp): detect
  // repeating task-launch windows online and open template windows for them
  // without explicit begin/end_trace calls.  Off by default; requires
  // tracing_enabled.
  TraceIdConfig auto_trace;
  // Ablation: insert a cross-shard fence for every coarse dependence instead
  // of eliding provably shard-local ones (paper §4.1, observation 2).
  bool disable_fence_elision = false;

  // Static interference analysis (src/statics): an index launch whose
  // requirements all carry affine symbolic projections, and whose coarse
  // dependences all classify above Unknown, charges O(1) fine-stage cost
  // instead of enumerating owned points — the dependence decisions themselves
  // are untouched, so runs are decision- and graph-identical on/off.
  bool static_analysis = true;
  // Debug oracle: cross-check every static verdict against the enumerated
  // per-point computation (DCR_CHECK aborts on disagreement).  Host-side
  // only; used by tests and the fuzz sweeps.
  bool statics_check = false;

  // Deferred-deletion consensus polling (paper §4.3).
  SimTime deferred_poll_initial = us(10);
  SimTime deferred_poll_max = ms(1);

  double file_ns_per_byte = 0.25;  // attach/detach I/O bandwidth (4 GB/s)

  // Record the realized point-task dependence graph (tests/validation only;
  // adds host-side cost, no virtual-time cost).
  bool record_task_graph = false;

  // Record a full dcr-spy execution trace (spy/trace.hpp): every hashed API
  // call with named arguments, every op, coarse dependence + elision
  // decision, realized task with its concrete region accesses, and realized
  // dependence edge.  Implies record_task_graph.  Host-side cost only; no
  // virtual-time cost.  Read back with DcrRuntime::trace() or serialize with
  // spy::Trace::write_jsonl for the tools/dcr-spy CLI.
  bool record_trace = false;

  // dcr-prof span timeline (prof/profiler.hpp).  The per-shard counter
  // registry is always on — every run can report fence/elision/template/
  // recovery metrics — but structured spans (analysis stages, replay, fence
  // and future waits, trace windows) are only recorded into the span ledger
  // (DcrRuntime::ledger()) under this knob.
  // Host-side cost only; no virtual-time cost, so profiling never perturbs
  // the analysis or the realized task graph.
  bool profile = false;

  // dcr-scope causal tracing (scope/recorder.hpp): stamp a TraceCtx onto
  // every fence arrival, future contribution, and collective hop; record the
  // per-fence blame ledger (per-rank arrival/completion, last-releasing
  // shard + span) and the task-launch ledger.  Host-side cost only; no
  // virtual-time cost, so a scope-on run is makespan-identical to scope-off.
  bool scope = false;

  // Crash flight recorder (scope/flight.hpp): with scope on, keep a bounded
  // per-shard ring of recent scope events and dump it to flight_path as
  // Perfetto-loadable JSON (plus a blame summary) when the run aborts — a
  // determinism violation, an "SDC quorum unresolved" abort, or any other
  // abort_execution.  "" = ring stays in memory only (readable via
  // DcrRuntime::flight()).
  std::size_t flight_capacity = 256;
  std::string flight_path;

  // Mapping policy (paper §4): per-launch sharding selection and point-task
  // processor placement.  Must be deterministic; not owned.  nullptr = the
  // default policies.
  Mapper* mapper = nullptr;

  // ---- fault tolerance (active when Machine::install_faults was called) ----
  bool auto_recover = true;          // respawn dead shards vs graceful abort
  SimTime lease_interval = us(100);  // failure-monitor scan period
  SimTime lease_timeout = us(500);   // stale lease age that triggers a probe
  SimTime restart_delay = us(200);   // node reboot / failover latency
  SimTime replay_call_cost = ns(20); // fast-forward cost per replayed API call
  // Monitor probes use a tight retry budget so detection outruns the
  // (much larger) give-up budget of ordinary data transfers.
  std::uint32_t probe_attempts = 4;
  // Upgrade a failed determinism check from a flag to a graceful abort that
  // names the first divergent API call (paper §3 semantics).
  bool halt_on_violation = true;

  // ---- SDC-resilient selective replication (dcr/replicate.hpp) ----
  // Duplicate-execute only control-tainted tasks — those whose future values
  // flow (directly or via a reduced future map) into control decisions — and
  // gate their value contributions on a digest quorum.  Off: execution is
  // bit-identical to a build without the replication layer.
  bool sdc_replication = false;
  std::uint32_t sdc_replicas = 2;       // executions per tainted point, incl. primary
  std::uint32_t sdc_quorum = 2;         // matching digests that settle a disagreement
  std::uint32_t sdc_retry_budget = 4;   // extra re-executions before graceful abort
  std::uint64_t sdc_digest_bytes = 12;  // CRC32C ballot size on the wire
  // A healed corruption invalidates the template epoch: the corrupt value may
  // have been captured into analysis decisions, so cached windows re-record.
  bool sdc_invalidate_templates = true;
  // Corruption-aware failover: a shard whose ballots lose this many quorums
  // is declared dead and tail-re-replayed through the PR-1 lease/replay
  // machinery (requires an installed fault plan).  0 disables.
  std::uint32_t sdc_suspect_threshold = 0;
  // Per-function SDC injection weight (FunctionId value -> weight, default 1):
  // lets the injector target task classes (sim/fault.hpp SdcConfig.rate is
  // the base rate).
  std::map<std::uint32_t, double> sdc_class_weights;
};

struct DcrStats {
  SimTime makespan = 0;
  std::uint64_t ops_issued = 0;          // per shard (identical across shards)
  std::uint64_t point_tasks_launched = 0;
  std::uint64_t fences_inserted = 0;     // cross-shard fences
  std::uint64_t fences_elided = 0;       // coarse deps proven shard-local
  std::uint64_t coarse_deps = 0;
  std::uint64_t determinism_checks = 0;
  std::uint64_t traced_ops = 0;  // ops replayed from a dependence template

  // Dependence templates, summed over shards (each shard captures its own).
  std::uint64_t templates_captured = 0;
  std::uint64_t templates_validated = 0;
  std::uint64_t template_replays = 0;              // whole windows replayed
  std::uint64_t template_invalidations = 0;        // epoch/shape invalidations
  std::uint64_t template_validation_failures = 0;  // shadow-compare re-records

  // Automatic trace identification (dcr/trace_id.hpp), summed over shards.
  std::uint64_t auto_trace_detections = 0;  // verified repeats found
  std::uint64_t auto_trace_promotions = 0;  // candidates promoted to traces
  std::uint64_t auto_trace_demotions = 0;   // traces dropped by hysteresis
  std::uint64_t auto_trace_windows = 0;     // auto template windows opened
  std::uint64_t auto_trace_aborts = 0;      // auto windows aborted mid-period
  std::uint64_t auto_trace_collisions = 0;  // fingerprint hits failing verify
  std::uint64_t bytes_moved = 0;
  std::uint64_t messages = 0;
  SimTime analysis_busy = 0;
  SimTime compute_busy = 0;
  bool completed = false;                // every shard ran to completion
  bool determinism_violation = false;
  std::string violation_message;

  // Fault tolerance.
  std::uint64_t failures_detected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t messages_dropped = 0;  // fault-plan drops + blackouts
  std::uint64_t retransmits = 0;       // reliable-transport resends
  bool aborted = false;                // graceful abort (violation / detection)
  std::string abort_message;
  std::vector<FailureReport> failures;

  // SDC replication (dcr/replicate.hpp), populated when sdc_replication.
  std::uint64_t sdc_tainted_ops = 0;       // ops feeding control decisions
  std::uint64_t sdc_tainted_futures = 0;   // futures observed by control
  std::uint64_t sdc_tickets = 0;           // tainted points quorum-verified
  std::uint64_t sdc_replicas_issued = 0;
  std::uint64_t sdc_replicas_compared = 0;
  std::uint64_t sdc_replicas_lost = 0;
  std::uint64_t sdc_corruptions_injected = 0;  // fault-plan injections (all execs)
  std::uint64_t sdc_corruptions_detected = 0;  // ballots out-voted by a quorum
  std::uint64_t sdc_corruptions_healed = 0;    // quorums resolved despite a mismatch
  std::uint64_t sdc_quorum_rounds = 0;         // re-execution rounds
  std::uint64_t sdc_stale_votes = 0;           // ballots ignored after resolution
  std::uint64_t sdc_failovers = 0;     // suspect shards pushed through recovery
  std::uint64_t sdc_late_taints = 0;   // taint arrived after unreplicated launch

  // Static interference analysis (src/statics), populated when static_analysis.
  std::uint64_t statics_resolved_ops = 0;    // index launches fully proven
  std::uint64_t statics_unresolved_ops = 0;  // launches with >= 1 Unknown verdict
  std::uint64_t statics_skipped_points = 0;  // owned points never enumerated (all shards)
  std::uint64_t statics_cache_hits = 0;      // prover verdicts served from cache
};

class DcrRuntime : private FineHooks {
 public:
  DcrRuntime(sim::Machine& machine, FunctionRegistry& functions, DcrConfig config = {});
  ~DcrRuntime();

  DcrRuntime(const DcrRuntime&) = delete;
  DcrRuntime& operator=(const DcrRuntime&) = delete;

  // Run `main` control-replicated; returns once the simulation quiesces.
  DcrStats execute(const ApplicationMain& main);

  std::size_t num_shards() const { return placement_.size(); }
  const rt::PhysicalState& physical_state() const { return physical_; }
  rt::RegionForest& forest() { return forest_; }
  ShardingRegistry& shardings() { return shardings_; }
  rt::ProjectionRegistry& projections() { return projections_; }
  // Static interference analysis observability (tests, dcr-spy statics).
  const statics::InterferenceProver& statics_prover() const { return statics_prover_; }
  const statics::LaunchLedger& statics_ledger() const { return statics_ledger_; }

  // Per-function execution profile: task count and total virtual busy time
  // (complete once execute returns).
  const std::map<FunctionId, FunctionProfile>& profile() const { return fine_.profile(); }

  // Realized point-task graph (only populated with config.record_task_graph).
  const rt::TaskGraph& realized_graph() const { return fine_.realized_graph(); }
  using RealizedTask = core::RealizedTask;
  const std::vector<RealizedTask>& realized_tasks() const { return fine_.realized_tasks(); }

  // dcr-spy execution trace (only populated with config.record_trace).
  const spy::Trace* trace() const { return trace_.get(); }

  // dcr-prof metrics: always-on counters per shard + global
  // (prof/profiler.hpp).
  prof::Profiler& profiler() { return profiler_; }
  const prof::Profiler& profiler() const { return profiler_; }
  const Clock& clock() const { return clock_; }

  // The span store (scope/recorder.hpp); non-null iff config.profile or
  // config.scope.  Holds every span kind under profile, else only fine
  // stages.  NB: fully qualified type — inside this class the name `scope` is
  // the member function below, not the namespace.
  const dcr::scope::Recorder* ledger() const { return ledger_.get(); }
  // The same ledger as the dcr-scope causal ledger; null unless config.scope.
  const dcr::scope::Recorder* scope() const { return scope_; }
  // Crash flight recorder; non-null iff config.scope with flight_capacity > 0.
  const dcr::scope::FlightRecorder* flight() const { return flight_.get(); }

  // SDC replication observability (tests / tools): the control-taint set and
  // the quorum executor's ledger (null when sdc_replication is off).
  const TaintTracker& taint() const { return taint_; }
  const ReplicationExecutor* replicator() const { return replicator_.get(); }

  // Dependence-template observability (tests): per-shard template store and
  // the runtime-wide recovery epoch that invalidates templates on failover.
  TemplateManager& shard_templates(ShardId s) { return shard(s).templates; }
  // Per-shard automatic trace detector (tests: promotion logs and counters).
  const TraceIdentifier& shard_auto_tracer(ShardId s) { return shard(s).auto_tracer; }
  std::uint64_t recovery_epoch() const { return recovery_epoch_; }
  // Fence observability (template/fence interaction tests): how many fence
  // collectives exist and whether every shard arrived at each of them — a
  // replayed window must drive exactly the fence traffic fresh analysis does,
  // or the run could not have quiesced.
  std::size_t num_fences() const { return fences_.size(); }
  bool all_fences_complete() const;
  // Whether every shard's control program ran to completion (or the run
  // aborted).  Safe to poll mid-run — the `dcr-scope watch` exposer uses it
  // as its stop predicate so a periodic tick cannot keep the calendar alive
  // after the run quiesces.
  bool finished() const;

 private:
  friend class ShardContext;

  // The op model (OpRecord, payloads, CoarseDecision) lives in dcr/ops.hpp,
  // the coarse dependence stage in dcr/coarse.hpp, the per-shard API front
  // end in dcr/front_end.hpp and the fine stage in dcr/fine_stage.hpp — all
  // shared with the real-threads backend (src/exec/).

  // ------------------------------------------------------------ shard state
  // The front end's cursors, templates and auto tracer (dcr/front_end.hpp)
  // plus the simulator-only state: replicated-heap cursor, fine pipeline,
  // deferred deletions and fault tolerance.
  struct ShardState : FrontEndState {
    NodeId node;
    std::uint64_t next_creation = 0;   // replicated-heap cursor
    sim::Event fine_tail;              // previous fine analysis on this shard
    // Deferred deletions this shard has requested (in request order).
    std::vector<RegionTreeId> deferred_requests;
    std::uint64_t deletions_processed = 0;
    bool main_returned = false;
    bool done = false;
    // ---- fault tolerance (dcr/recovery.hpp) ----
    sim::SimProcess* process = nullptr;  // current incarnation's control process
    bool crashed = false;                // node died while hosting this shard
    bool dead = false;                   // declared dead by the lease monitor
    bool probe_inflight = false;         // monitor ping outstanding
    std::uint32_t incarnation = 0;       // bumped per replacement
    std::uint64_t replay_ops_end = 0;    // replay skips ops below this index
    std::uint64_t replay_calls_end = 0;  // replay skips API calls below this
    SimTime last_heard = 0;              // lease, refreshed on every API call
    SimTime crashed_at = 0;
    std::int64_t pending_report = -1;    // failures_ index awaiting recovery
    CommitLog commit;
  };

  // Futures: broadcast/all-reduce collectives of doubles among shards.  The
  // per-shard gate triggers once the combined value is available at that
  // shard's node.
  struct FutureRecord {
    std::shared_ptr<sim::Collective<double>> coll;
    std::vector<sim::UserEvent> per_shard_event;
  };

  // Cross-shard fences keyed by the *dependent* op: each shard arrives once
  // its fine pipeline reaches that op (fine stages are serialized per shard,
  // so arrival implies every earlier op's fine analysis completed locally).
  struct FenceRecord {
    std::unique_ptr<sim::FenceCollective> coll;
  };

  // ---------------------------------------------------------------- helpers
  ShardState& shard(ShardId s) { return *shards_[s.value]; }
  sim::Processor& analysis_proc(ShardId s) {
    return machine_.analysis_proc(placement_[s.value]);
  }
  ShardId single_op_owner(OpId op) const {
    return ShardId(static_cast<std::uint32_t>(op.value % placement_.size()));
  }

  // Coarse-stage front door: runs coarse_.decide() / coarse_.install_replayed()
  // and, when this call computed the decision, mirrors DcrStats and emits the
  // spy trace records (dependences then the op record) exactly once.
  const CoarseDecision& coarse_decision(const OpRecord& op);
  const CoarseDecision& install_replayed_decision(const OpRecord& op);

  FenceRecord& fence_for(OpId dependent);
  FutureRecord& ensure_future(std::uint64_t id, OpId producer, bool broadcast);
  FutureRecord& ensure_reduce_future(std::uint64_t id, ReduceOp rop);

  // Issue path: called from the shard's control process (ShardContext's
  // before_issue/submit hooks).
  void insert_agreed_deletions(ShardState& st);
  void submit_op(ShardState& st, const OpRecord& op);
  void process_op(ShardId s, const OpRecord& op);

  // ---- fine-stage hooks (dcr/fine_stage.hpp): the physical data model,
  // the processors' cost model, SDC replication and quiescence ----
  void begin(FineWork& w) override;
  void before_use(FineWork& w, const TrackedUse& u) override;
  void after_use(FineWork& w, const TrackedUse& u) override;
  void run_point(FineWork& w, PointTaskInfo info, SimTime duration) override;
  void charge_piece(FineWork& w, const rt::Requirement& piece) override;
  void contribute_reduce(const FrontEndState& st, const ReducePayload& red,
                         const FmPartial& partial) override;
  void finish_point_task(ShardId s, std::uint64_t future_map_id, std::uint64_t future_id,
                         double value);
  sim::Processor& compute_proc_for(ShardId s, std::uint64_t point_index);

  // ---- SDC replication (dcr/replicate.hpp) ----
  // One execution instance's result: the function's value model plus this
  // instance's silent-corruption fate (instance key = task id * 64 + exec, so
  // the primary of a replicated run corrupts identically to an unreplicated
  // run and every replica draws independently).
  double task_result(const PointTaskInfo& info, TaskId tid, std::uint32_t exec);
  // Control observed future `id` (get_future / future_is_ready): propagate
  // taint to the producing ops and account late-taint races.
  void note_control_future(std::uint64_t future_id);
  // A quorum out-voted >= 1 corrupted ballot for a task of `op`: invalidate
  // the template epoch (the corruption may predate cached decisions), re-issue
  // the replayed op's fence decisions into the prof ledger, and track suspect
  // shards toward corruption-triggered failover.
  void on_corruption_healed(OpId op, bool traced, const QuorumOutcome& out);

  // The causal context shard `s` stamps onto a collective contribution right
  // now; invalid (default) when config_.scope is off.
  dcr::scope::TraceCtx scope_ctx(ShardId s) const;
  void finalize_shard(class ShardContext& ctx);

  void start_deferred_poller();
  bool check_deferred_consensus();

  // ---- fault tolerance: detection and control-deterministic recovery ----
  void spawn_shard(ShardState& st);
  // Replay-aware process_op: skips ops the dead incarnation already committed
  // and appends fresh ops to the commit log.
  void commit_op(ShardId s, const OpRecord& op);
  void on_node_crash(NodeId node, SimTime t);
  void start_monitor();
  void probe_shard(ShardState& st);
  std::optional<NodeId> probe_source(NodeId target) const;
  void declare_dead(ShardState& st);
  void start_recovery(ShardState& st);
  void abort_execution(std::string reason);

  sim::Machine& machine_;
  FunctionRegistry& functions_;
  DcrConfig config_;
  std::vector<NodeId> placement_;  // shard -> node
  prof::Profiler profiler_;
  // Time source for prof/scope span timestamps (common/clock.hpp): virtual
  // nanoseconds here, wall nanoseconds on the threads backend.  Timestamp
  // reads go through this; functional reads (event triggers, fault leases,
  // lease expiry) stay on the simulator calendar directly.
  sim::SimClock clock_{machine_.sim()};

  rt::RegionForest forest_;
  rt::ProjectionRegistry projections_;
  ShardingRegistry shardings_;
  // Verdict cache keys on forest_.mutation_epoch(), so static proofs survive
  // template/recovery epoch bumps (they depend only on region geometry).
  statics::InterferenceProver statics_prover_{forest_, projections_,
                                              config_.statics_check};
  statics::LaunchLedger statics_ledger_;
  rt::PhysicalState physical_;
  UserTracker tracker_;
  DeterminismChecker checker_;

  // Replicated heap: creation results in call order, shared by shards.
  std::vector<CreatedHandle> creations_;
  // What the shards' front ends read from this runtime (set in the ctor).
  FrontEndEnv front_end_env_;

  std::vector<std::unique_ptr<ShardState>> shards_;
  // Shared coarse dependence stage (dcr/coarse.hpp): decisions, epoch state,
  // program-order guard.  Also used verbatim by the threads backend.
  CoarseAnalyzer coarse_{
      CoarseAnalyzer::Options{config_.disable_fence_elision, config_.static_analysis,
                              config_.statics_check},
      profiler_};

  std::map<std::uint64_t, FutureRecord> futures_;
  std::map<OpId, FenceRecord> fences_;

  sim::QuiescenceTracker quiescence_;  // every op/task completion
  // Deferred-deletion consensus: number of requests agreed + insertion index.
  std::uint64_t deferred_consensus_ = 0;
  std::map<std::uint64_t, DeletePayload> agreed_insertions_;  // op index -> op
  SimTime deferred_poll_interval_ = 0;
  bool poller_active_ = false;
  bool deferred_drained_ = false;

  ApplicationMain main_;  // kept for respawning replacement shards
  std::vector<FailureReport> failures_;
  // Bumped once per shard failover: live shards drop their templates at the
  // next window begin (the failover may have rewound shared analysis state).
  std::uint64_t recovery_epoch_ = 0;
  bool aborted_ = false;
  std::string abort_message_;

  DcrStats stats_;
  std::unique_ptr<spy::Trace> trace_;  // non-null iff config_.record_trace
  // Span ledger; non-null iff config_.profile || config_.scope.  scope_ is
  // the same object iff config_.scope (causal stamping is gated on it).
  // Types qualified: the member function scope() shadows the namespace.
  std::unique_ptr<dcr::scope::Recorder> ledger_;
  dcr::scope::Recorder* scope_ = nullptr;
  std::unique_ptr<dcr::scope::FlightRecorder> flight_;
  bool flight_dumped_ = false;  // first abort wins; never dump twice
  // The shared fine stage; its tracker is always on here (the tracker's
  // conflicts are the point tasks' event preconditions).
  FineStage fine_{front_end_env_, functions_, &tracker_, placement_.size(),
                  config_.record_task_graph, /*concurrent=*/false};

  // ---- SDC replication (dcr/replicate.hpp) ----
  TaintTracker taint_;
  std::unique_ptr<ReplicationExecutor> replicator_;  // non-null iff sdc_replication
  // Ops with value-producing points already launched unreplicated; a taint
  // arriving afterwards is too late for those points (counted, not fatal —
  // the launch decision is made per point at launch time).
  std::set<std::uint64_t> value_ops_launched_;
  std::vector<std::uint32_t> sdc_suspect_counts_;  // lost ballots per shard
};

}  // namespace dcr::core
