#include "dcr/front_end.hpp"

#include <string>
#include <utility>

#include "dcr/runtime.hpp"

namespace dcr::core {

// ===========================================================================
// FrontEndState: template capture/validation, window accounting, roll-up.
// ===========================================================================

std::uint64_t FrontEndState::owned_points(const OpRecord& op, std::size_t num_shards) const {
  if (op.plan) return op.plan->size();
  if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    return shardings->owned_points(index->launch.sharding, index->launch.domain, num_shards, id)
        .size();
  }
  if (const auto* attach = std::get_if<AttachPayload>(&op.payload);
      attach && attach->partition.valid()) {
    rt::Rect dom;
    return owned_pieces(attach->partition, num_shards, dom).size();
  }
  if (std::holds_alternative<ReducePayload>(op.payload) ||
      std::holds_alternative<FencePayload>(op.payload)) {
    return 0;
  }
  return op.id.value % num_shards == id.value ? 1 : 0;  // the single-op owner
}

const std::vector<rt::Point>& FrontEndState::owned_pieces(PartitionId partition,
                                                          std::size_t num_shards,
                                                          rt::Rect& dom) const {
  dom = rt::Rect::r1(0, static_cast<std::int64_t>(forest->num_subregions(partition)) - 1);
  return shardings->owned_points(ShardingRegistry::blocked(), dom, num_shards, id);
}

void FrontEndState::record_template_op(const OpRecord& op, const CoarseDecision& dec) {
  if (op.tmode == TemplateManager::Mode::Validate) validate_template_op(op, dec);
  if (op.tmode == TemplateManager::Mode::Capture ||
      op.tmode == TemplateManager::Mode::Validate) {
    capture_template_op(op, dec);
  }
}

void FrontEndState::capture_template_op(const OpRecord& op, const CoarseDecision& dec) {
  TemplateOp rec;
  rec.payload_kind = op.payload.index();
  rec.call_hash = op.call_hash;
  rec.kind = dec.kind;
  rec.num_reqs = dec.num_reqs;
  rec.summaries = dec.summaries;
  rec.deps.reserve(dec.dep_records.size());
  for (const spy::CoarseDepRecord& d : dec.dep_records) {
    if (d.prev.value >= op.id.value) {
      templates.abort_window("non-causal coarse dependence during capture");
      return;
    }
    rec.deps.push_back({op.id.value - d.prev.value, d.prev.value, /*absolute=*/false,
                        d.tree, d.field, d.elided});
  }
  rec.fences.reserve(dec.fence_sources.size());
  for (OpId src : dec.fence_sources) {
    rec.fences.push_back({op.id.value - src.value, src.value, /*absolute=*/false});
  }
  rec.plan = op.plan;
  templates.record_op(std::move(rec));
}

void FrontEndState::validate_template_op(const OpRecord& op, const CoarseDecision& dec) {
  TemplateOp& rec = *op.trec;
  auto fail = [&](const char* what) {
    templates.validation_failed(std::string("shadow compare mismatch at op ") +
                                std::to_string(op.id.value) + ": " + what);
  };
  if (!(rec.call_hash == op.call_hash)) return fail("API-call identity");
  if (rec.kind != dec.kind) return fail("op kind");
  if (rec.num_reqs != dec.num_reqs) return fail("requirement count");
  if (rec.summaries != dec.summaries) return fail("requirement summaries");
  if (rec.deps.size() != dec.dep_records.size()) return fail("coarse dependence count");
  for (std::size_t i = 0; i < rec.deps.size(); ++i) {
    const spy::CoarseDepRecord& d = dec.dep_records[i];
    TemplateDep& rd = rec.deps[i];
    if (rd.tree != d.tree || rd.field != d.field || rd.elided != d.elided) {
      return fail("coarse dependences / elision verdicts");
    }
    // Resolve which source encoding survived an iteration: per-iteration
    // sources keep their relative offset; fixed ops (an init fill issued
    // before the loop) keep their absolute id.
    if (rd.prev_offset == op.id.value - d.prev.value) {
      rd.absolute = false;
    } else if (rd.abs_source == d.prev.value) {
      rd.absolute = true;
    } else {
      return fail("coarse dependence source");
    }
  }
  if (rec.fences.size() != dec.fence_sources.size()) return fail("fence count");
  for (std::size_t i = 0; i < rec.fences.size(); ++i) {
    const OpId src = dec.fence_sources[i];
    TemplateFence& rf = rec.fences[i];
    if (rf.prev_offset == op.id.value - src.value) {
      rf.absolute = false;
    } else if (rf.abs_source == src.value) {
      rf.absolute = true;
    } else {
      return fail("fence sources");
    }
  }
  const PointPlanList empty;
  const PointPlanList& fresh_plan = op.plan ? *op.plan : empty;
  const PointPlanList& stored_plan = rec.plan ? *rec.plan : empty;
  if (!(fresh_plan == stored_plan)) return fail("fine-stage point plan");
}

void FrontEndState::close_template_window(const FrontEndEnv& env) {
  prof::Counters& pc = env.profiler->shard(id.value);
  pc.add(prof::Counter::WindowsClosed);
  pc.add(templates.mode() == TemplateManager::Mode::Replay
             ? prof::Counter::TemplateWindowHits
             : prof::Counter::TemplateWindowMisses);
  templates.end(*forest);
  env.record_span({prof::SpanKind::TraceWindow, prof::Lane::Control, id.value,
                   window_started, env.clock->now(), prof::kNoId, windows_opened - 1});
}

void FrontEndState::retire_auto_window(const FrontEndEnv& env, const char* reason) {
  if (templates.active()) {
    templates.abort_window(reason);  // no-op if already aborted underneath
    close_template_window(env);
  }
  auto_open = false;
  auto_tracer.interrupt();
}

void FrontEndState::roll_up(DcrStats& stats, prof::Profiler& profiler) const {
  const TemplateManager::Counters& c = templates.counters();
  stats.templates_captured += c.captured;
  stats.templates_validated += c.validated;
  stats.template_replays += c.window_replays;
  stats.template_invalidations += c.invalidated;
  stats.template_validation_failures += c.validation_failures;
  prof::Counters& g = profiler.global();
  g.add(prof::GlobalCounter::TemplateShadowMismatches, c.validation_failures);
  g.add(prof::GlobalCounter::TemplateInvalidations, c.invalidated);
  const TraceIdentifier::Counters& a = auto_tracer.counters();
  stats.auto_trace_detections += a.detections;
  stats.auto_trace_promotions += a.promotions;
  stats.auto_trace_demotions += a.demotions;
  stats.auto_trace_windows += a.windows;
  stats.auto_trace_aborts += a.aborts;
  stats.auto_trace_collisions += a.collisions;
  prof::Counters& pc = profiler.shard(id.value);
  pc.add(prof::Counter::AutoTraceDetections, a.detections);
  pc.add(prof::Counter::AutoTracePromotions, a.promotions);
  pc.add(prof::Counter::AutoTraceDemotions, a.demotions);
  pc.add(prof::Counter::AutoTraceWindows, a.windows);
  pc.add(prof::Counter::AutoTraceAborts, a.aborts);
  pc.add(prof::Counter::AutoTraceCollisions, a.collisions);
}

void emit_coarse_decision(const OpRecord& op, const CoarseDecision& dec, DcrStats& stats,
                          spy::Trace* trace) {
  stats.coarse_deps += dec.deps;
  stats.fences_elided += dec.elided;
  if (!dec.fence_sources.empty()) stats.fences_inserted++;
  if (trace) {
    for (const spy::CoarseDepRecord& d : dec.dep_records) trace->coarse_deps.push_back(d);
    trace->ops.push_back({op.id, dec.kind, op.call_index, dec.fence_sources});
  }
}

// ===========================================================================
// ShardFrontEnd: the application API on top of the backend hooks.
// ===========================================================================

void ShardFrontEnd::api_call(const char* name, SigBuilder& sig) {
  const Hash128 h = sig.finish();
  fe_.last_template_hash = sig.tfinish();
  if (check_call(name, h) && env_.trace) {
    env_.trace->calls[fe_.id.value].push_back({fe_.api_calls, name, h, sig.take_args()});
  }
  fe_.api_calls++;
  auto_trace_observe();
  if (env_.tracing_enabled) fe_.templates.on_call(fe_.last_template_hash);
}

// The k-th creation call returns the same handle on every shard: either the
// backend's replicated heap already holds it, or this shard makes it.
template <typename T, typename MakeFn>
T ShardFrontEnd::create(MakeFn&& make) {
  if (const CreatedHandle* prior = prior_creation()) {
    DCR_CHECK(std::holds_alternative<T>(*prior))
        << "creation kind diverged across shards (control determinism violation)";
    return std::get<T>(*prior);
  }
  const T made = make();
  record_creation(made);
  return made;
}

FieldSpaceId ShardFrontEnd::create_field_space() {
  SigBuilder sb = sig_create_field_space(cap());
  api_call("create_field_space", sb);
  return create<FieldSpaceId>([&] { return fe_.forest->create_field_space(); });
}

FieldId ShardFrontEnd::allocate_field(FieldSpaceId fs, std::size_t bytes, std::string name) {
  SigBuilder sb = sig_allocate_field(cap(), fs, bytes, name);
  api_call("allocate_field", sb);
  return create<FieldId>([&] { return fe_.forest->allocate_field(fs, bytes, std::move(name)); });
}

RegionTreeId ShardFrontEnd::create_region(const rt::Rect& bounds, FieldSpaceId fs) {
  SigBuilder sb = sig_create_region(cap(), bounds, fs);
  api_call("create_region", sb);
  return create<RegionTreeId>([&] { return fe_.forest->create_tree(bounds, fs); });
}

PartitionId ShardFrontEnd::partition_equal(IndexSpaceId parent, std::size_t pieces, int axis) {
  SigBuilder sb = sig_partition_equal(cap(), parent, pieces, axis);
  api_call("partition_equal", sb);
  return create<PartitionId>([&] { return fe_.forest->partition_equal(parent, pieces, axis); });
}

PartitionId ShardFrontEnd::partition_with_halo(IndexSpaceId parent, std::size_t pieces,
                                               std::int64_t halo, int axis) {
  SigBuilder sb = sig_partition_with_halo(cap(), parent, pieces, halo, axis);
  api_call("partition_with_halo", sb);
  return create<PartitionId>(
      [&] { return fe_.forest->partition_with_halo(parent, pieces, halo, axis); });
}

PartitionId ShardFrontEnd::create_partition(IndexSpaceId parent, std::vector<rt::Rect> pieces,
                                            bool disjoint) {
  SigBuilder sb = sig_create_partition(cap(), parent, pieces, disjoint);
  api_call("create_partition", sb);
  return create<PartitionId>(
      [&] { return fe_.forest->create_partition(parent, std::move(pieces), disjoint); });
}

PartitionId ShardFrontEnd::partition_grid(IndexSpaceId parent, std::size_t tiles_x,
                                          std::size_t tiles_y, std::int64_t halo) {
  SigBuilder sb = sig_partition_grid(cap(), parent, tiles_x, tiles_y, halo);
  api_call("partition_grid", sb);
  return create<PartitionId>(
      [&] { return fe_.forest->partition_grid(parent, tiles_x, tiles_y, halo); });
}

void ShardFrontEnd::destroy_region(RegionTreeId tree) {
  SigBuilder sb = sig_destroy_region(cap(), tree);
  api_call("destroy_region", sb);
  issue(DeletePayload{tree});
}

void ShardFrontEnd::fill(IndexSpaceId region, std::vector<FieldId> fields) {
  SigBuilder sb = sig_fill(cap(), region, fields);
  api_call("fill", sb);
  issue(FillPayload{region, std::move(fields)});
}

Future ShardFrontEnd::launch(const TaskLaunch& launch) {
  SigBuilder sb = sig_launch(cap(), launch);
  api_call("launch", sb);
  TaskPayload p{launch, ~0ull};
  Future f;
  if (launch.wants_future) {
    f.id = fe_.next_future++;
    p.future_id = f.id;
  }
  issue(std::move(p));
  return f;
}

FutureMap ShardFrontEnd::index_launch(const IndexLaunch& launch) {
  SigBuilder sb = sig_index_launch(cap(), launch);
  api_call("index_launch", sb);
  IndexPayload p{launch, ~0ull};
  FutureMap fm;
  if (launch.wants_futures) {
    fm.id = fe_.next_future_map++;
    p.future_map_id = fm.id;
  }
  issue(std::move(p));
  return fm;
}

Future ShardFrontEnd::reduce_future_map(const FutureMap& fm, ReduceOp op) {
  SigBuilder sb = sig_reduce_future_map(cap(), fm, op);
  api_call("reduce_future_map", sb);
  DCR_CHECK(fm.valid()) << "reducing an invalid future map";
  Future f;
  f.id = fe_.next_future++;
  issue(ReducePayload{fm.id, op, f.id});
  return f;
}

double ShardFrontEnd::get_future(const Future& f) {
  SigBuilder sb = sig_get_future(cap(), f);
  api_call("get_future", sb);
  DCR_CHECK(f.valid()) << "waiting on an invalid future";
  const SimTime wait_start = env_.clock->now();
  dcr::scope::TraceCtx releaser;
  const double v = wait_future(f, releaser);
  // dcr-prof: always-on wait counters + histogram, plus a Control-lane span
  // when the timeline is enabled.  Control spans nest by construction — the
  // control program is sequential, so a wait is either disjoint from or
  // strictly inside an enclosing window span.  Under scope the ledger also
  // keeps the wait with its releaser: the contribution that released it last
  // (the producing shard + span).
  const SimTime now = env_.clock->now();
  prof::Counters& pc = env_.profiler->shard(fe_.id.value);
  pc.add(prof::Counter::FutureWaits);
  pc.add(prof::Counter::FutureWaitNs, now - wait_start);
  pc.observe(prof::Hist::FutureWaitNs, now - wait_start);
  const prof::Span sp{prof::SpanKind::FutureWait, prof::Lane::Control, fe_.id.value,
                      wait_start, now};
  if (env_.scope != nullptr) {
    env_.scope->on_future_wait(sp, f.id, releaser);
  } else {
    env_.record_span(sp);
  }
  return v;
}

bool ShardFrontEnd::future_is_ready(const Future& f) {
  // Timing-dependent by design (Figure 5): the *call* is still hashed, but
  // the returned value may differ across shards — branching on it is the
  // control-determinism violation the checker exists to catch.
  SigBuilder sb = sig_future_is_ready(cap(), f);
  api_call("future_is_ready", sb);
  return poll_future(f);
}

void ShardFrontEnd::execution_fence() {
  SigBuilder sb = sig_execution_fence(cap());
  api_call("execution_fence", sb);
  // A fence op forces a cross-shard pipeline barrier (its coarse decision
  // fences on the previous op); the backend then waits for execution.
  const SimTime wait_start = env_.clock->now();
  issue(FencePayload{});
  drain_execution();
  env_.profiler->shard(fe_.id.value).add(prof::Counter::ExecutionFences);
  env_.record_span({prof::SpanKind::ExecutionFence, prof::Lane::Control, fe_.id.value,
                    wait_start, env_.clock->now()});
}

void ShardFrontEnd::attach_file(IndexSpaceId region, std::vector<FieldId> fields,
                                std::string file) {
  SigBuilder sb = sig_attach_file(cap(), region, fields, file);
  api_call("attach_file", sb);
  AttachPayload p;
  p.region = region;
  p.fields = std::move(fields);
  p.file = std::move(file);
  issue(std::move(p));
}

void ShardFrontEnd::detach_file(IndexSpaceId region, std::vector<FieldId> fields) {
  SigBuilder sb = sig_detach_file(cap(), region, fields);
  api_call("detach_file", sb);
  AttachPayload p;
  p.region = region;
  p.fields = std::move(fields);
  p.detach = true;
  issue(std::move(p));
}

void ShardFrontEnd::attach_file_group(PartitionId partition, std::vector<FieldId> fields,
                                      std::string file_basename) {
  SigBuilder sb = sig_attach_file_group(cap(), partition, fields, file_basename);
  api_call("attach_file_group", sb);
  AttachPayload p;
  p.partition = partition;
  p.fields = std::move(fields);
  p.file = std::move(file_basename);
  issue(std::move(p));
}

void ShardFrontEnd::detach_file_group(PartitionId partition, std::vector<FieldId> fields) {
  SigBuilder sb = sig_detach_file_group(cap(), partition, fields);
  api_call("detach_file_group", sb);
  AttachPayload p;
  p.partition = partition;
  p.fields = std::move(fields);
  p.detach = true;
  issue(std::move(p));
}

void ShardFrontEnd::begin_trace(TraceId id) {
  SigBuilder sb = sig_begin_trace(cap(), id);
  api_call("begin_trace", sb);
  if (!env_.tracing_enabled) return;
  if (fe_.auto_open) {
    // An auto-detected window is open: the explicit window wins.  The tap in
    // api_call usually aborted it already (the begin_trace signature breaks
    // the repeat); this handles a begin_trace that happens to land on a
    // matching token.
    fe_.retire_auto_window(env_, "explicit begin_trace inside an auto window");
  }
  DCR_CHECK(!fe_.templates.active()) << "nested traces are not supported";
  open_window(id);
}

void ShardFrontEnd::end_trace(TraceId id) {
  SigBuilder sb = sig_end_trace(cap(), id);
  api_call("end_trace", sb);
  if (!env_.tracing_enabled) return;
  DCR_CHECK(fe_.templates.active() && *fe_.templates.active() == id)
      << "mismatched end_trace";
  fe_.close_template_window(env_);
}

void ShardFrontEnd::end_program() {
  if (fe_.auto_open) {
    fe_.retire_auto_window(env_, "control program ended inside an auto window");
  }
  fe_.auto_stop = true;
}

void ShardFrontEnd::open_window(TraceId id) {
  // The window keys its validity on the forest mutation epoch plus the
  // backend's epochs (the simulator's recovery epoch and the count of
  // consensus deletions this shard has folded in).
  const WindowEpochs e = window_epochs();
  fe_.templates.begin(id, fe_.forest->mutation_epoch(), e.recovery, e.deletions,
                      env_.template_validation);
  fe_.windows_opened++;  // iteration tag for dcr-prof spans
  fe_.window_started = env_.clock->now();
}

// ---- automatic trace identification (dcr/trace_id.hpp) ----
// Per-call tap, run BEFORE the template manager records the call: on Open
// the window must exist so this call becomes its first op, and on
// Close/CloseOpen the previous window must not absorb this call.  The tap
// issues no API calls of its own, so auto windows are invisible to the §3
// determinism checker — window placement only affects per-shard analysis
// caching, never the decision stream.  The detector is a pure function of
// the call-hash stream, so every shard on either backend promotes the same
// traces at the same call indices.
void ShardFrontEnd::auto_trace_observe() {
  if (!env_.auto_trace.enabled || !env_.tracing_enabled || fe_.auto_stop) return;
  // Suppress promotions while an explicit (app-keyed) window is active; the
  // detector keeps tracking so the auto trace resumes after end_trace.
  const bool explicit_open = fe_.templates.active() && !fe_.auto_open;
  const TraceIdentifier::Result r = fe_.auto_tracer.observe(fe_.last_template_hash,
                                                            explicit_open);
  if (explicit_open) return;  // suppressed: no actions can fire
  switch (r.action) {
    case TraceIdentifier::Action::None:
      break;
    case TraceIdentifier::Action::Open:
      if (!fe_.templates.active()) {
        open_window(r.trace);
        fe_.auto_open = true;
      }
      break;
    case TraceIdentifier::Action::Close:
      auto_close_window();
      break;
    case TraceIdentifier::Action::CloseOpen:
      auto_close_window();
      open_window(r.trace);
      fe_.auto_open = true;
      break;
    case TraceIdentifier::Action::AbortClose:
      // The repeat broke mid-period: discard the half-recorded capture so it
      // can never validate or replay.
      fe_.retire_auto_window(env_, "auto trace broke mid-period");
      break;
  }
}

void ShardFrontEnd::auto_close_window() {
  // The window can already be gone (a consensus deletion aborts underneath
  // us, SDC healing invalidates mid-window): skip the accounting then.
  if (fe_.templates.active()) fe_.close_template_window(env_);
  fe_.auto_open = false;
}

// ----------------------------------------------------------------- issuing

void ShardFrontEnd::issue(OpPayload payload) {
  before_issue();
  OpRecord op{OpId(fe_.next_op++), std::move(payload), false};
  // The API call that issued this op was hashed just before issue().
  if (fe_.api_calls > 0) op.call_index = fe_.api_calls - 1;
  // Mapper query: "Legion queries mappers to select a sharding function for
  // each subtask launch" (§4).  Deterministic, so every shard rewrites the
  // launch identically.
  if (env_.mapper) {
    if (auto* index = std::get_if<IndexPayload>(&op.payload)) {
      index->launch.sharding = env_.mapper->select_sharding(index->launch, env_.num_shards);
    }
  }
  if (fe_.templates.active()) dispatch_template(op);
  submit(op);
}

// Dependence templates (dcr/template.hpp): capture this op's decisions or
// replay the recorded ones, per the open window's mode.
void ShardFrontEnd::dispatch_template(OpRecord& op) {
  op.call_hash = fe_.last_template_hash;
  TemplateManager& t = fe_.templates;
  const auto* index = std::get_if<IndexPayload>(&op.payload);
  switch (t.mode()) {
    case TemplateManager::Mode::Capture:
      op.tmode = TemplateManager::Mode::Capture;
      if (index) op.plan = make_point_plan(*index);
      break;
    case TemplateManager::Mode::Validate: {
      // Fresh analysis still drives execution; decisions are shadow-compared
      // against the recording in FrontEndState::record_template_op().
      TemplateOp* rec = t.next_op();
      if (rec == nullptr) break;  // window just aborted
      if (rec->payload_kind != op.payload.index()) {
        t.abort_window("op payload kind diverged from the recording");
        break;
      }
      op.tmode = TemplateManager::Mode::Validate;
      op.trec = rec;
      if (index) op.plan = make_point_plan(*index);
      break;
    }
    case TemplateManager::Mode::Replay: {
      TemplateOp* rec = t.next_op();
      if (rec == nullptr) break;
      if (rec->payload_kind != op.payload.index() || !(rec->call_hash == op.call_hash)) {
        t.abort_window("op identity diverged from the recording");
        break;
      }
      op.tmode = TemplateManager::Mode::Replay;
      op.trec = rec;
      op.plan = rec->plan;
      op.traced = true;  // charge the reduced analysis costs
      break;
    }
    case TemplateManager::Mode::Inactive:
      break;
  }
}

// Fine-stage mapping for this shard's owned points of an index launch (what
// a replay skips recomputing).
std::shared_ptr<const PointPlanList> ShardFrontEnd::make_point_plan(const IndexPayload& index) {
  auto plan = std::make_shared<PointPlanList>();
  fe_.for_each_owned_point(index.launch, /*plan=*/nullptr, *env_.projections, env_.num_shards,
                           [&](const rt::Point& p, std::uint64_t point_index, auto&& reqs) {
                             plan->push_back(
                                 {p, point_index, std::forward<decltype(reqs)>(reqs)});
                           });
  return plan;
}

}  // namespace dcr::core
