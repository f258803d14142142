// Point-level user tracking: the precise dependence bookkeeping of the fine
// analysis stage.
//
// For each (region tree, field) we keep the frontier of outstanding uses
// (rect, reader/writer, completion event).  Recording a new use returns the
// merged completion event of every conflicting prior use — the event
// precondition wired into the point task (paper Figure 9, fine stage lines
// 5-8).
//
// Frontier pruning keeps the list from growing across iterations:
//  * a conflicting writer that fully covers a prior use supersedes it (any
//    later conflict with the old use also conflicts with the writer and is
//    ordered transitively), and
//  * uses whose completion event has already triggered impose no further
//    waits and are dropped — unless `keep_completed` is set, which the
//    realized-task-graph recording mode uses so no edges are lost.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "runtime/geometry.hpp"
#include "runtime/interval_index.hpp"
#include "runtime/privilege.hpp"
#include "sim/event.hpp"

namespace dcr::core {

class UserTracker {
 public:
  explicit UserTracker(bool keep_completed = false) : keep_completed_(keep_completed) {}

  struct Conflicts {
    sim::Event precondition;     // merged completion of conflicting priors
    std::vector<TaskId> tasks;   // the conflicting tasks (for graph recording)
  };

  // Record that `task` uses `rect` of (tree, field) with `priv`, completing
  // at `done`.  Returns the conflicts with prior outstanding uses.
  Conflicts record_use(RegionTreeId tree, FieldId field, const rt::Rect& rect,
                       rt::Privilege priv, rt::ReductionOpId redop, TaskId task,
                       sim::Event done) {
    auto& uses = state_[{tree, field}];
    Conflicts out;
    std::vector<sim::Event> events;
    // Collect conflicts, and prune superseded / completed uses in one pass.
    const bool writer = rt::is_writer(priv);
    uses.erase_overlapping_if(rect, [&](const auto& item) {
      const Use& u = item.value;
      // A task never conflicts with itself: multiple requirements of one
      // task (e.g. RW owned + RO ghost of the same field) share a completion.
      const bool conflict = u.task != task && rt::overlaps(item.rect, rect) &&
                            rt::privileges_conflict(u.priv, u.redop, priv, redop);
      if (conflict) {
        events.push_back(u.done);
        out.tasks.push_back(u.task);
      }
      // Supersede only behind exclusive writers: pruning is sound only when
      // every future use that would conflict with the pruned entry also
      // conflicts with the pruner.  A Reduce does not conflict with later
      // same-operator reductions, so reductions never close an epoch —
      // pruning behind one would lose write->reducer orderings (found by the
      // DcrFuzz property tests).
      const bool superseded = conflict && writer && priv != rt::Privilege::Reduce &&
                              rect.contains(item.rect);
      const bool completed = !keep_completed_ && u.done.has_triggered();
      return superseded || completed;
    });
    uses.insert(rect, Use{priv, redop, task, std::move(done)});
    out.precondition = events.empty()
                           ? sim::Event::no_event()
                           : sim::merge_events(std::span<const sim::Event>(events));
    return out;
  }

  // Merged completion event of every outstanding use anywhere (for execution
  // fences).
  sim::Event all_outstanding() const {
    std::vector<sim::Event> events;
    for (const auto& [key, uses] : state_) {
      uses.for_each([&](const auto& item) {
        if (!item.value.done.has_triggered()) events.push_back(item.value.done);
      });
    }
    if (events.empty()) return sim::Event::no_event();
    return sim::merge_events(std::span<const sim::Event>(events));
  }

  std::size_t frontier_size(RegionTreeId tree, FieldId field) const {
    auto it = state_.find({tree, field});
    return it == state_.end() ? 0 : it->second.size();
  }

 private:
  struct Use {
    rt::Privilege priv;
    rt::ReductionOpId redop;
    TaskId task;
    sim::Event done;
  };

  bool keep_completed_;
  std::map<std::pair<RegionTreeId, FieldId>, rt::IntervalIndex<Use>> state_;
};

}  // namespace dcr::core
