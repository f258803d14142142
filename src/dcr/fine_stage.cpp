#include "dcr/fine_stage.hpp"

#include <utility>

namespace dcr::core {

double point_value(const TaskFunction& fn, const PointTaskInfo& info) {
  DCR_CHECK(fn.future_value != nullptr)
      << "task '" << fn.name << "' launched for a future but has no value model";
  return fn.future_value(info);
}

FineStage::FineStage(const FrontEndEnv& env, const FunctionRegistry& functions,
                     UserTracker* tracker, std::size_t num_shards, bool record_task_graph,
                     bool concurrent)
    : env_(env),
      functions_(functions),
      tracker_(tracker),
      record_task_graph_(record_task_graph),
      concurrent_(concurrent),
      shards_(num_shards) {}

OpStageCount FineStage::count_op(const FrontEndState& st, const OpRecord& op,
                                 const CoarseDecision& dec) const {
  prof::Counters& pc = env_.profiler->shard(st.id.value);
  OpStageCount c;
  c.owned = st.owned_points(op, env_.num_shards);
  // Static skip (src/statics): a launch whose interference the prover fully
  // resolved needs no per-point discrimination.  Replayed ops never carry it
  // (they already charge the reduced traced costs).
  c.static_skip = dec.static_skip && !op.traced;
  pc.add(op.traced ? prof::Counter::TracedCoarseOps : prof::Counter::CoarseOps);
  pc.add(op.traced ? prof::Counter::TracedFineOps : prof::Counter::FineOps);
  pc.add(prof::Counter::FinePoints, c.owned);
  if (c.static_skip) {
    pc.add(prof::Counter::StaticSkipOps);
    pc.add(prof::Counter::StaticSkipPoints, c.owned);
  }
  pc.observe(prof::Hist::FinePointsPerOp, c.owned);
  return c;
}

void FineStage::execute(FrontEndState& st, const OpRecord& op, FineHooks& hooks) {
  const std::size_t shards = env_.num_shards;
  const bool single_owner = op.id.value % shards == st.id.value;

  if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    const IndexLaunch& launch = index->launch;
    FmPartial* fm = nullptr;
    if (index->future_map_id != ~0ull) {
      fm = &shards_[st.id.value].fm.try_emplace(index->future_map_id).first->second;
    }
    std::vector<sim::Event> completions;
    st.for_each_owned_point(
        launch, op.plan.get(), *env_.projections, shards,
        [&](const rt::Point& p, std::uint64_t point_index,
            const std::vector<rt::Requirement>& reqs) {
          const sim::Event done = launch_point(st, op, p, point_index, reqs, launch.args,
                                               launch.fn, index->future_map_id, ~0ull, hooks);
          if (fm && done.exists()) completions.push_back(done);
        });
    if (fm && !completions.empty()) {
      fm->ready = sim::merge_events(std::span<const sim::Event>(completions));
    }
    return;
  }

  if (const auto* task = std::get_if<TaskPayload>(&op.payload)) {
    if (!single_owner) return;
    rt::Point p;
    p.dim = 1;
    launch_point(st, op, p, 0, task->launch.requirements, task->launch.args, task->launch.fn,
                 ~0ull, task->future_id, hooks);
    return;
  }

  if (const auto* fill = std::get_if<FillPayload>(&op.payload)) {
    if (!single_owner) return;
    FineWork w(st, op, WorkKind::Fill, 0);
    run_piece(w, fill->region, fill->fields, hooks);
    return;
  }

  if (const auto* attach = std::get_if<AttachPayload>(&op.payload)) {
    const WorkKind kind = attach->detach ? WorkKind::Detach : WorkKind::Attach;
    if (attach->partition.valid()) {
      // Parallel file I/O: every shard attaches/flushes the pieces it owns.
      rt::Rect dom;
      for (const rt::Point& p : st.owned_pieces(attach->partition, shards, dom)) {
        const std::uint64_t color = rt::linearize(dom, p);
        FineWork w(st, op, kind, color);
        run_piece(w, st.forest->subregion(attach->partition, color), attach->fields, hooks);
      }
      return;
    }
    if (!single_owner) return;
    FineWork w(st, op, kind, 0);
    run_piece(w, attach->region, attach->fields, hooks);
    return;
  }

  if (const auto* red = std::get_if<ReducePayload>(&op.payload)) {
    const auto& fm = shards_[st.id.value].fm;
    const auto it = fm.find(red->fm_id);
    DCR_CHECK(it != fm.end()) << "reduce of unknown future map";
    hooks.contribute_reduce(st, *red, it->second);
    return;
  }

  if (const auto* del = std::get_if<DeletePayload>(&op.payload)) {
    // The simulator's shards share one forest (the first to get here destroys
    // the tree); each threads-backend shard destroys its own replica at the
    // same program point, so the replicas' mutation epochs stay in lockstep.
    if (!st.forest->tree_destroyed(del->tree)) st.forest->destroy_tree(del->tree);
    return;
  }
}

sim::Event FineStage::launch_point(FrontEndState& st, const OpRecord& op,
                                   const rt::Point& point, std::uint64_t point_index,
                                   const std::vector<rt::Requirement>& reqs,
                                   const std::vector<std::int64_t>& args, FunctionId fn,
                                   std::uint64_t future_map_id, std::uint64_t future_id,
                                   FineHooks& hooks) {
  FineWork w(st, op, WorkKind::Point, point_index);
  w.future_map_id = future_map_id;
  w.future_id = future_id;

  PointTaskInfo info;
  info.fn = fn;
  info.point = point;
  if (const auto* index = std::get_if<IndexPayload>(&op.payload)) {
    info.domain = index->launch.domain;
  }
  info.requirements = reqs;
  info.args = args;
  for (const rt::Requirement& r : reqs) info.volume += st.forest->bounds(r.region).volume();

  record_unit(w, reqs, hooks);
  if (env_.scope) {
    // Task-launch ledger: tagged with the shard's current span.
    env_.scope->on_task_launch(st.id.value, op.id.value, point_index, env_.clock->now());
  }

  const SimTime duration = functions_.at(fn).duration(info);
  ShardFine& sf = shards_[st.id.value];
  FunctionProfile& fp = sf.profile[fn];
  fp.tasks++;
  fp.total_time += duration;
  sf.points_launched++;
  hooks.run_point(w, std::move(info), duration);
  return w.completion();
}

void FineStage::run_piece(FineWork& w, IndexSpaceId region, const std::vector<FieldId>& fields,
                          FineHooks& hooks) {
  const rt::Requirement piece{
      region, fields,
      w.kind == WorkKind::Detach ? rt::Privilege::ReadOnly : rt::Privilege::WriteDiscard};
  record_unit(w, std::span<const rt::Requirement>(&piece, 1), hooks);
  hooks.charge_piece(w, piece);
}

void FineStage::record_unit(FineWork& w, std::span<const rt::Requirement> reqs,
                            FineHooks& hooks) {
  hooks.begin(w);
  if (!tracker_) return;
  // One unit's uses are recorded atomically.  The edge set is the same under
  // any interleaving of shards: conflicting uses on different shards are
  // ordered by a fence (their coarse dependence was not elided), and elided
  // dependences are provably same-shard.
  const rt::RegionForest& forest = *w.shard.forest;
  const std::unique_lock<std::mutex> lk = lock_graph();
  std::vector<TaskId> preds;
  for (const rt::Requirement& r : reqs) {
    const RegionTreeId tree = forest.tree_of(r.region);
    const rt::Rect rect = forest.bounds(r.region);
    for (FieldId f : r.fields) {
      const TrackedUse u{tree, f, rect, r.privilege};
      hooks.before_use(w, u);
      UserTracker::Conflicts c =
          tracker_->record_use(tree, f, rect, r.privilege, r.redop, w.tid, w.completion());
      if (!c.precondition.has_triggered()) w.pre.push_back(std::move(c.precondition));
      preds.insert(preds.end(), c.tasks.begin(), c.tasks.end());
      hooks.after_use(w, u);
    }
  }
  record_realized(w, preds);
  if (env_.trace) {
    std::vector<spy::AccessRecord> accesses;
    accesses.reserve(reqs.size());
    for (const rt::Requirement& r : reqs) {
      accesses.push_back(
          {forest.tree_of(r.region), forest.bounds(r.region), r.fields, r.privilege, r.redop});
    }
    env_.trace->tasks.push_back({w.tid, w.op.id, w.point_index, w.shard.id, std::move(accesses)});
  }
}

void FineStage::record_realized(const FineWork& w, const std::vector<TaskId>& preds) {
  if (!record_task_graph_) return;
  if (!realized_graph_.has_task(w.tid)) {
    realized_graph_.add_task(w.tid);
    realized_tasks_.push_back(RealizedTask{w.tid, w.op.id, w.point_index});
  }
  for (TaskId p : preds) {
    if (!realized_graph_.has_edge(p, w.tid)) {
      realized_graph_.add_edge(p, w.tid);
      if (env_.trace) env_.trace->edges.push_back({p, w.tid});
    }
  }
}

std::unique_lock<std::mutex> FineStage::lock_graph() {
  return concurrent_ ? std::unique_lock<std::mutex>(graph_mu_) : std::unique_lock<std::mutex>();
}

void FineStage::finish() {
  for (const ShardFine& sf : shards_) {
    for (const auto& [fn, fp] : sf.profile) {
      FunctionProfile& merged = profile_[fn];
      merged.tasks += fp.tasks;
      merged.total_time += fp.total_time;
    }
    points_launched_ += sf.points_launched;
  }
}

}  // namespace dcr::core
