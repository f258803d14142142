// The per-shard front end of the replicated control program, shared by both
// execution backends.
//
// Every shard re-runs the same control program against a Context.
// ShardFrontEnd is that Context.  It hashes each API call for the §3
// determinism check (dcr/sig.hpp), resolves creations through the replicated
// heap, builds one OpRecord per issued operation (op id, issuing call index,
// mapper sharding rewrite, dependence-template Capture/Validate/Replay
// dispatch), runs the automatic trace detector's tap (dcr/trace_id.hpp), and
// does the template window hit/miss accounting.  FrontEndState holds the
// per-shard cursors and caches all of that works on.
//
// The simulator (dcr/runtime.cpp) and the real-threads backend
// (exec/thread_runtime.cpp) each derive one context class from
// ShardFrontEnd and implement only the narrow hooks below: how a call is
// charged and checked, where the replicated heap lives, what happens to an
// issued op, how a future is waited on, how an execution fence drains, the
// template window's backend epochs, and the clock.  Because the front end is
// one piece of code, both backends produce the same call-hash stream, op
// stream and template windows by construction; tests/test_exec.cpp checks
// the result end to end.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "common/clock.hpp"
#include "common/hash128.hpp"
#include "common/philox.hpp"
#include "common/types.hpp"
#include "dcr/api.hpp"
#include "dcr/mapper.hpp"
#include "dcr/ops.hpp"
#include "dcr/sharding.hpp"
#include "dcr/sig.hpp"
#include "dcr/template.hpp"
#include "dcr/trace_id.hpp"
#include "prof/profiler.hpp"
#include "runtime/region.hpp"
#include "scope/recorder.hpp"
#include "spy/trace.hpp"

namespace dcr::core {

struct DcrStats;  // dcr/runtime.hpp

// What a creation call returns; the replicated heap stores these in call order.
using CreatedHandle = std::variant<FieldSpaceId, FieldId, RegionTreeId, PartitionId>;

// Per-runtime settings and sinks the front end and the fine stage
// (dcr/fine_stage.hpp) read.  One per runtime, shared by every shard; filled
// in by the runtime's constructor.
struct FrontEndEnv {
  prof::Profiler* profiler = nullptr;
  const Clock* clock = nullptr;  // prof span and trace-window timestamps
  const rt::ProjectionRegistry* projections = nullptr;
  spy::Trace* trace = nullptr;             // non-null iff record_trace
  dcr::scope::Recorder* ledger = nullptr;  // span store; non-null iff profile || scope
  dcr::scope::Recorder* scope = nullptr;   // the same ledger iff scope; gates causal hooks
  Mapper* mapper = nullptr;                // nullptr = default policies
  std::size_t num_shards = 1;
  bool tracing_enabled = true;
  bool template_validation = true;
  TraceIdConfig auto_trace;                // automatic trace detection

  // The one recording call for a timed interval (scope::Recorder::record).
  void record_span(const prof::Span& sp) const {
    if (ledger != nullptr) ledger->record(sp);
  }
};

// Per-shard state of the front end.  Each backend's shard record derives
// from it and points `forest`/`shardings` at the region forest and sharding
// registry this shard analyses against (shared on the simulator, one replica
// per thread on the threads backend).
struct FrontEndState {
  ShardId id;
  rt::RegionForest* forest = nullptr;
  ShardingRegistry* shardings = nullptr;
  Philox4x32 rng{/*seed=*/0x5eed, /*stream=*/0};  // same sequence on every shard
  std::uint64_t next_op = 0;          // program-order op counter
  std::uint64_t next_future = 0;      // future / future-map id cursors
  std::uint64_t next_future_map = 0;
  std::uint64_t api_calls = 0;        // determinism-check call index
  // Per-shard dependence templates (dcr/template.hpp): capture, validate,
  // and replay of trace windows' analysis decisions.
  TemplateManager templates;
  Hash128 last_template_hash{};  // template-identity hash of the latest call
  // Automatic trace identification (dcr/trace_id.hpp): the per-shard
  // repeated-trace detector (tuned by configure_auto_trace), whether the
  // open template window was opened by it (vs an explicit begin_trace), and
  // the end-of-program gate that stops it from opening windows during
  // finalization.
  TraceIdentifier auto_tracer;
  bool auto_open = false;
  bool auto_stop = false;
  // dcr-prof: trace windows opened by this shard (the span iteration tag)
  // and the start time of the one currently open.
  std::uint64_t windows_opened = 0;
  SimTime window_started = 0;

  // Iteration tag for prof spans: the trace window an op falls into, if any.
  std::uint64_t prof_iter() const {
    return templates.active().has_value() ? windows_opened - 1 : prof::kNoId;
  }

  // Fine-stage points of `op` this shard owns.  A captured or replayed op's
  // plan is its owned-point set; otherwise the sharding function decides.
  std::uint64_t owned_points(const OpRecord& op, std::size_t num_shards) const;
  // The pieces of `partition` this shard owns in a group attach/detach (its
  // block of the colors in `dom`, which is set to the color space).
  const std::vector<rt::Point>& owned_pieces(PartitionId partition, std::size_t num_shards,
                                             rt::Rect& dom) const;

  // Call fn(point, point_index, requirements) for every point of `launch`
  // this shard owns.  An op with a captured or replayed plan iterates the
  // plan, which touches neither the forest nor the projection registry;
  // otherwise each owned point's requirements are concretized here.
  template <typename Fn>
  void for_each_owned_point(const IndexLaunch& launch, const PointPlanList* plan,
                            const rt::ProjectionRegistry& projections,
                            std::size_t num_shards, Fn&& fn) const {
    if (plan) {
      for (const PointPlan& pp : *plan) fn(pp.point, pp.point_index, pp.reqs);
      return;
    }
    for (const rt::Point& p :
         shardings->owned_points(launch.sharding, launch.domain, num_shards, id)) {
      std::vector<rt::Requirement> reqs;
      reqs.reserve(launch.requirements.size());
      for (const rt::GroupRequirement& gr : launch.requirements) {
        reqs.push_back(gr.concretize(*forest, projections, p, launch.domain));
      }
      fn(p, rt::linearize(launch.domain, p), std::move(reqs));
    }
  }

  // Feed an analysed op to the open template window: Capture records its
  // decision and point plan; Validate shadow-compares them against the
  // recording and also feeds the shadow re-recording that replaces the
  // stored template on a mismatch (record_op routes by mode).
  void record_template_op(const OpRecord& op, const CoarseDecision& dec);

  // Template window close + hit/miss accounting, shared by explicit end_trace
  // and auto-detected windows.  Reads the mode before end() clears it: a
  // window still in Replay at close was served by a validated template;
  // anything else (capture, validation, mid-window abort) ran fresh analysis.
  // hits + misses == windows_closed by construction.
  void close_template_window(const FrontEndEnv& env);
  // Abort AND retire an auto-detected window.  An explicit window's abort
  // deliberately leaves the active slot occupied for its matching end_trace;
  // an auto window has no end_trace, so the close accounting must run here or
  // the stale slot blocks every later begin (explicit or auto).
  void retire_auto_window(const FrontEndEnv& env, const char* reason);

  // Tune the detector with the runtime's TraceIdConfig (once, before the
  // run; a disabled detector is never fed, so it keeps its defaults).
  void configure_auto_trace(const FrontEndEnv& env) {
    if (env.auto_trace.enabled) auto_tracer.configure(env.auto_trace);
  }

  // Add this shard's template and auto-trace counters to the run's DcrStats,
  // its prof counters and the global template ledger.
  void roll_up(DcrStats& stats, prof::Profiler& profiler) const;

 private:
  void capture_template_op(const OpRecord& op, const CoarseDecision& dec);
  void validate_template_op(const OpRecord& op, const CoarseDecision& dec);
};

// The abort message of a shard whose control program threw, on both backends.
inline std::string shard_failure_message(ShardId shard, const char* what) {
  return "shard " + std::to_string(shard.value) + ": " + what;
}

// Mirror a freshly computed coarse decision into DcrStats and emit its spy
// trace records (dependences, then the op).  Callers gate this on the
// analyzer's `fresh` out-param, so each op is emitted exactly once, in
// program order.
void emit_coarse_decision(const OpRecord& op, const CoarseDecision& dec, DcrStats& stats,
                          spy::Trace* trace);

class ShardFrontEnd : public Context {
 public:
  ShardFrontEnd(const FrontEndEnv& env, FrontEndState& fe) : env_(env), fe_(fe) {}

  // ---- data model (replication-safe creations) ----
  FieldSpaceId create_field_space() final;
  FieldId allocate_field(FieldSpaceId fs, std::size_t bytes, std::string name) final;
  RegionTreeId create_region(const rt::Rect& bounds, FieldSpaceId fs) final;
  IndexSpaceId root(RegionTreeId tree) final { return fe_.forest->root(tree); }
  PartitionId partition_equal(IndexSpaceId parent, std::size_t pieces, int axis) final;
  PartitionId partition_with_halo(IndexSpaceId parent, std::size_t pieces, std::int64_t halo,
                                  int axis) final;
  PartitionId create_partition(IndexSpaceId parent, std::vector<rt::Rect> pieces,
                               bool disjoint) final;
  PartitionId partition_grid(IndexSpaceId parent, std::size_t tiles_x, std::size_t tiles_y,
                             std::int64_t halo) final;
  void destroy_region(RegionTreeId tree) final;
  const rt::RegionForest& forest() const final { return *fe_.forest; }

  // ---- operations ----
  void fill(IndexSpaceId region, std::vector<FieldId> fields) final;
  Future launch(const TaskLaunch& launch) final;
  FutureMap index_launch(const IndexLaunch& launch) final;
  Future reduce_future_map(const FutureMap& fm, ReduceOp op) final;
  double get_future(const Future& f) final;
  bool future_is_ready(const Future& f) final;
  void execution_fence() final;

  // ---- side effects ----
  void attach_file(IndexSpaceId region, std::vector<FieldId> fields, std::string file) final;
  void detach_file(IndexSpaceId region, std::vector<FieldId> fields) final;
  void attach_file_group(PartitionId partition, std::vector<FieldId> fields,
                         std::string file_basename) final;
  void detach_file_group(PartitionId partition, std::vector<FieldId> fields) final;

  // ---- tracing (dependence templates, dcr/template.hpp) ----
  void begin_trace(TraceId id) final;
  void end_trace(TraceId id) final;

  // ---- environment ----
  std::size_t num_shards() const final { return env_.num_shards; }
  ShardId shard_id() const final { return fe_.id; }
  Philox4x32& rng() final { return fe_.rng; }

  // The control program returned: an open auto-detected window can never
  // complete its period, so discard its capture, and gate the detector off
  // so the backend's finalization fence cannot open a fresh window.
  void end_program();

 protected:
  // The epochs a template window keys its validity on besides the forest
  // mutation epoch (TemplateManager::begin).
  struct WindowEpochs {
    std::uint64_t recovery = 0;
    std::uint64_t deletions = 0;
  };

  // ---- backend hooks ----
  // Charge and check one hashed API call.  Returns false when the backend
  // only fast-forwards the call (a recovering shard replaying calls its dead
  // incarnation already contributed); such calls get no spy trace record.
  virtual bool check_call(const char* name, const Hash128& h) = 0;
  // Replicated heap: the handle an earlier shard created for this shard's
  // next creation call, or nullptr when this shard must create it (and then
  // hands it to record_creation).
  virtual const CreatedHandle* prior_creation() { return nullptr; }
  virtual void record_creation(const CreatedHandle& /*handle*/) {}
  // Runs before the next op id is allocated.
  virtual void before_issue() {}
  // Analyse and execute one issued op.
  virtual void submit(const OpRecord& op) = 0;
  // Block until `f` is available at this shard; `releaser` gets the causal
  // context of the contribution that released the wait (when scope is on).
  virtual double wait_future(const Future& f, dcr::scope::TraceCtx& releaser) = 0;
  virtual bool poll_future(const Future& f) = 0;
  // After an execution fence op is issued: wait until every op issued so far
  // has executed.
  virtual void drain_execution() {}
  virtual WindowEpochs window_epochs() const { return {}; }

 private:
  // Hash, charge and check one API call, then run the auto-trace tap and
  // feed the template window.
  void api_call(const char* name, SigBuilder& sig);
  // Whether sig_* encoders should capture named arguments for the spy trace.
  bool cap() const { return env_.trace != nullptr; }
  void issue(OpPayload payload);
  template <typename T, typename MakeFn>
  T create(MakeFn&& make);
  void dispatch_template(OpRecord& op);
  std::shared_ptr<const PointPlanList> make_point_plan(const IndexPayload& index);
  void auto_trace_observe();
  void open_window(TraceId id);
  void auto_close_window();

  const FrontEndEnv& env_;
  FrontEndState& fe_;
};

}  // namespace dcr::core
