// The fine stage of the dependence analysis (paper Figure 9, bottom), shared
// by both execution backends.
//
// For each op a shard's pipeline reaches, the fine stage works out which
// points or pieces of it this shard owns, numbers their tasks, records every
// field use with the point-level UserTracker (the realized dependence edges,
// and on the simulator the event preconditions), writes the spy task records,
// counts the per-function profile, folds future-map values into this shard's
// partials and deletes regions.  FineStage is that code, written once.
//
// Each backend implements only the FineHooks below: what one point task does
// once its dependences are known, what a fill or attach/detach piece costs,
// when a reduce partial is contributed, and (the simulator) the physical data
// movement around each tracked use.  The simulator runs the fine stage as an
// analysis-processor callback; the threads backend calls it inline from each
// shard thread, so the run-wide sinks (tracker, realized graph, spy task
// records) are locked only when the backend says it is concurrent.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "dcr/api.hpp"
#include "dcr/front_end.hpp"
#include "dcr/ops.hpp"
#include "dcr/user_tracker.hpp"
#include "runtime/task_graph.hpp"
#include "sim/event.hpp"

namespace dcr::core {

// Per-function execution profile: task count and summed modeled duration
// (the cost model's virtual time on both backends).
struct FunctionProfile {
  std::uint64_t tasks = 0;
  SimTime total_time = 0;
};

// (op id, point index within op) for every realized task, program order.
struct RealizedTask {
  TaskId id;
  OpId op;
  std::uint64_t point_index;
};

// One shard's partial of a future map: its owned points' values folded under
// every ReduceOp, so a later reduce picks the one it needs.
struct FmPartial {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  // Merged completion of this shard's points (no_event on a backend that
  // runs them inline): the partial is final once it triggers.
  sim::Event ready = sim::Event::no_event();

  void fold(double v) {
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
  }
  double pick(ReduceOp op) const {
    switch (op) {
      case ReduceOp::Sum: return sum;
      case ReduceOp::Min: return min;
      case ReduceOp::Max: return max;
    }
    return sum;
  }
};

// The value a point task contributes to its future or future map.
double point_value(const TaskFunction& fn, const PointTaskInfo& info);

// What one unit of fine-stage work is: a point task, or one piece of a fill,
// an attach or a detach.
enum class WorkKind : std::uint8_t { Point, Fill, Attach, Detach };

// One (region, field) use of a unit, as the user tracker records it.
struct TrackedUse {
  RegionTreeId tree;
  FieldId field;
  rt::Rect rect;
  rt::Privilege priv;
};

// One unit of fine-stage work, handed to the backend hooks.  Its task is
// numbered op.id * kPointsPerOp + point_index (a piece's color).
struct FineWork {
  FineWork(const FrontEndState& shard, const OpRecord& op, WorkKind kind,
           std::uint64_t point_index)
      : shard(shard),
        op(op),
        kind(kind),
        tid(op.id.value * kPointsPerOp + point_index),
        point_index(point_index) {}

  const FrontEndState& shard;
  const OpRecord& op;
  WorkKind kind;
  TaskId tid;
  std::uint64_t point_index;
  std::uint64_t future_map_id = ~0ull;  // point tasks only
  std::uint64_t future_id = ~0ull;
  // Completion event the tracker records for this unit's uses; set by a
  // backend that orders work by events (FineHooks::begin).
  std::optional<sim::UserEvent> done;
  // Preconditions: the tracker's conflicting uses plus any data movement the
  // backend's use hooks add.
  std::vector<sim::Event> pre;

  sim::Event completion() const { return done ? sim::Event(*done) : sim::Event::no_event(); }
  bool wants_value() const { return future_map_id != ~0ull || future_id != ~0ull; }
};

// The backend half of the fine stage.
class FineHooks {
 public:
  // Prepare one unit before its uses are recorded (the simulator gives it a
  // completion event).
  virtual void begin(FineWork& /*w*/) {}
  // Physical data movement around each use the tracker records, called just
  // before and just after record_use.  They run only while a tracker is
  // present, which the simulator's always is.
  virtual void before_use(FineWork& /*w*/, const TrackedUse& /*u*/) {}
  virtual void after_use(FineWork& /*w*/, const TrackedUse& /*u*/) {}
  // Run one point task whose dependences are recorded.
  virtual void run_point(FineWork& w, PointTaskInfo info, SimTime duration) = 0;
  // Charge one fill or attach/detach piece.
  virtual void charge_piece(FineWork& /*w*/, const rt::Requirement& /*piece*/) {}
  // Contribute this shard's partial of the future map `red` reduces.
  virtual void contribute_reduce(const FrontEndState& st, const ReducePayload& red,
                                 const FmPartial& partial) = 0;

 protected:
  ~FineHooks() = default;
};

// What the op-stage counters saw of one op at one shard.
struct OpStageCount {
  std::uint64_t owned = 0;   // fine-stage points this shard owns
  bool static_skip = false;  // prover-resolved: O(1) fine stage
};

class FineStage {
 public:
  // `tracker` is the runtime's point-level user tracker, or nullptr when it
  // keeps none.  `concurrent`: shards call in from their own threads, so the
  // tracker, the realized graph and the spy task records are locked.
  FineStage(const FrontEndEnv& env, const FunctionRegistry& functions, UserTracker* tracker,
            std::size_t num_shards, bool record_task_graph, bool concurrent);

  // Add the op-stage counters of `op` to this shard's prof counters.
  OpStageCount count_op(const FrontEndState& st, const OpRecord& op,
                        const CoarseDecision& dec) const;

  // The fine stage of `op` at shard `st`.
  void execute(FrontEndState& st, const OpRecord& op, FineHooks& hooks);

  // This shard's partial of future map `id`.
  FmPartial& partial(ShardId s, std::uint64_t id) { return shards_[s.value].fm.at(id); }

  // Merge the per-shard profiles and launch counts; call once the run ends.
  void finish();
  const std::map<FunctionId, FunctionProfile>& profile() const { return profile_; }
  std::uint64_t points_launched() const { return points_launched_; }
  const rt::TaskGraph& realized_graph() const { return realized_graph_; }
  const std::vector<RealizedTask>& realized_tasks() const { return realized_tasks_; }

 private:
  // Written only by its own shard (its thread, on the threads backend).
  struct alignas(64) ShardFine {
    std::map<std::uint64_t, FmPartial> fm;
    std::map<FunctionId, FunctionProfile> profile;
    std::uint64_t points_launched = 0;
  };

  // Returns the point's completion event (no_event without one).
  sim::Event launch_point(FrontEndState& st, const OpRecord& op, const rt::Point& point,
                          std::uint64_t point_index, const std::vector<rt::Requirement>& reqs,
                          const std::vector<std::int64_t>& args, FunctionId fn,
                          std::uint64_t future_map_id, std::uint64_t future_id,
                          FineHooks& hooks);
  void run_piece(FineWork& w, IndexSpaceId region, const std::vector<FieldId>& fields,
                 FineHooks& hooks);
  // Begin a unit, then (with a tracker) record its uses, its realized task
  // and its spy task record.
  void record_unit(FineWork& w, std::span<const rt::Requirement> reqs, FineHooks& hooks);
  void record_realized(const FineWork& w, const std::vector<TaskId>& preds);
  std::unique_lock<std::mutex> lock_graph();

  const FrontEndEnv& env_;
  const FunctionRegistry& functions_;
  UserTracker* tracker_;
  const bool record_task_graph_;
  const bool concurrent_;
  std::vector<ShardFine> shards_;

  // graph_mu_ guards the tracker, the realized graph/tasks and the spy task
  // and edge records when concurrent_.
  std::mutex graph_mu_;
  rt::TaskGraph realized_graph_;
  std::vector<RealizedTask> realized_tasks_;
  std::map<FunctionId, FunctionProfile> profile_;  // merged by finish()
  std::uint64_t points_launched_ = 0;
};

}  // namespace dcr::core
