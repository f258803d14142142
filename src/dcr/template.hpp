// Dependence templates: trace-and-replay of the control plane's analysis
// decisions for iterative programs.
//
// The paper's shards redo the full coarse + fine dependence analysis every
// loop iteration even when the program issues an identical API-call stream
// each time (stencil, circuit, pennant all do).  Following Execution
// Templates (Mashayekhi et al.) and automatic tracing in task-based runtimes
// (Yadav et al.), each shard captures, per trace window, the *outcome* of its
// analysis — coarse dependence edges with their fence/elide verdicts and the
// fine-stage per-owned-point mappings — keyed by the hashed window of API
// calls, and replays those decisions directly on a hash-identical recurrence,
// skipping region-tree traversal and re-analysis entirely.
//
// Lifecycle of a template (per shard, keyed by TraceId):
//
//   Capture   first occurrence of the window: run fresh analysis, record the
//             per-call template-identity hashes and per-op decisions.
//   Validate  second occurrence: fresh analysis still drives execution, but
//             every decision is shadow-compared against the recording, and at
//             window end the recording is audited against the executable
//             sequential semantics (analysis/semantics.hpp DEPseq) — the
//             spy-style idempotent-replay check.  A clean pass promotes the
//             template to Validated; a shadow-compare mismatch re-records the
//             window from the fresh decisions (the first occurrence was not
//             yet in steady state) and validation restarts next time; an
//             audit failure marks it Rejected (sticky: the recording matched
//             a fresh analysis yet contradicts the sequential semantics).
//   Replay    subsequent occurrences: per-call hashes are checked as the
//             window streams by; recorded decisions are installed and the
//             re-analysis is skipped.
//   Invalid   any region-forest mutation epoch change, recovery epoch bump,
//             deferred-deletion epoch change, or mid-window divergence drops
//             the template; the next occurrence re-captures.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash128.hpp"
#include "common/types.hpp"
#include "runtime/geometry.hpp"
#include "runtime/privilege.hpp"
#include "runtime/region.hpp"
#include "runtime/requirement.hpp"

namespace dcr::core {

// Coarse-stage requirement summary: the upper-bound view plus the launch
// identity needed for the fence-elision proof.  Recorded verbatim in
// templates so a replay can fold the same epoch updates into the shared
// coarse state that a fresh analysis would have.
struct ReqSummary {
  RegionTreeId tree;
  IndexSpaceId upper_bound;
  std::vector<FieldId> fields;
  rt::Privilege privilege = rt::Privilege::ReadOnly;
  rt::ReductionOpId redop = rt::kNoRedop;
  // Launch identity (index launches only; single ops leave these invalid).
  bool is_index = false;
  ShardingId sharding;
  rt::Rect domain;
  PartitionId partition;       // invalid when the requirement names a region
  ProjectionId projection;
  ShardId single_owner;        // owner shard for single (non-index) ops

  friend bool operator==(const ReqSummary&, const ReqSummary&) = default;
};

// Paper §4.1, observation 2 (Figures 10/11): a coarse dependence between
// these two summaries stays on one shard iff they share sharding function,
// launch domain, *disjoint* partition, and projection (index<->index), or the
// same owner shard (single<->single).  Shared by the live analysis and the
// template validation audit.
bool summaries_shard_local(const rt::RegionForest& forest, const ReqSummary& prev,
                           const ReqSummary& next);

// Fine-stage mapping of one owned point of an index launch: everything the
// fine stage (dcr/fine_stage.hpp) derives from the region forest + projection
// functions, so a replay can launch the point without touching either.
struct PointPlan {
  rt::Point point;
  std::uint64_t point_index = 0;       // linearized within the launch domain
  std::vector<rt::Requirement> reqs;   // concretized per-point requirements

  friend bool operator==(const PointPlan&, const PointPlan&) = default;
};
using PointPlanList = std::vector<PointPlan>;

// One recorded coarse dependence, with its source in two encodings: relative
// to the dependent op (dependent - source) and as the absolute op id at
// capture.  Sources inside the window or in the previous iteration shift with
// the window, so their relative offset is stable; sources that are fixed ops
// (an init fill issued before the loop) keep a stable absolute id while the
// offset drifts by one period per iteration.  The validation pass resolves
// which encoding is stable for each dependence; replay reconstructs the
// source from the resolved one.
struct TemplateDep {
  std::uint64_t prev_offset = 0;  // dependent.id - source.id at capture
  std::uint64_t abs_source = 0;   // source.id at capture
  bool absolute = false;          // resolved by validation
  RegionTreeId tree;
  FieldId field;
  bool elided = false;
};

// A non-elided fence source, dual-encoded like TemplateDep.
struct TemplateFence {
  std::uint64_t prev_offset = 0;
  std::uint64_t abs_source = 0;
  bool absolute = false;
};

// The recorded outcome of analyzing one op of the window.
struct TemplateOp {
  std::size_t payload_kind = 0;  // OpPayload variant index (shape check)
  Hash128 call_hash;             // template-identity hash of the issuing call
  std::string kind;              // spy op-kind string, re-emitted on replay
  std::size_t num_reqs = 0;      // coarse cost accounting
  std::vector<ReqSummary> summaries;
  std::vector<TemplateDep> deps;
  std::vector<TemplateFence> fences;          // non-elided fence sources
  std::shared_ptr<const PointPlanList> plan;  // index launches only
};

struct DependenceTemplate {
  enum class State {
    Recorded,   // captured, awaiting its validation pass
    Validated,  // shadow-compare + DEPseq audit passed: eligible for replay
    Rejected,   // DEPseq audit failed: never replay, never re-capture
  };
  State state = State::Recorded;
  // Validity keys checked at window begin; any mismatch drops the template.
  std::uint64_t region_epoch = 0;     // rt::RegionForest::mutation_epoch()
  std::uint64_t recovery_epoch = 0;   // bumped per shard failover
  std::uint64_t deletion_epoch = 0;   // consensus deletions shift op ids
  std::vector<Hash128> call_hashes;   // every API call in the window, in order
  std::vector<TemplateOp> ops;
  std::uint64_t replays = 0;
};

// Per-shard template store + the state machine for the window in flight.
class TemplateManager {
 public:
  enum class Mode { Inactive, Capture, Validate, Replay };

  struct Counters {
    std::uint64_t captured = 0;
    std::uint64_t validated = 0;
    std::uint64_t window_replays = 0;        // whole windows replayed
    std::uint64_t invalidated = 0;           // epoch/shape invalidations
    std::uint64_t validation_failures = 0;   // shadow-compare/audit rejects
  };

  // Opens a trace window.  Epoch mismatches invalidate any stored template
  // first; the resulting mode decides how the runtime treats the window.
  Mode begin(TraceId id, std::uint64_t region_epoch, std::uint64_t recovery_epoch,
             std::uint64_t deletion_epoch, bool validation_enabled);

  // Feeds the template-identity hash of one API call inside the window.
  // Capture appends; Validate/Replay compare against the recording and abort
  // the window (returning false) on divergence.
  bool on_call(const Hash128& h);

  // Validate/Replay: the recorded op at the cursor, or nullptr after an
  // abort or when the window issues more ops than were recorded (abort).
  // Mutable: the validation pass writes the resolved source encodings back
  // into the recording (TemplateDep::absolute).
  TemplateOp* next_op();

  // Capture: append one analyzed op's decisions.  During Validate the op is
  // appended to the shadow re-recording instead (adopted on mismatch).
  void record_op(TemplateOp op);

  // Shape divergence (call stream, payload kind, op count, mid-window
  // insertion): drop the template; the rest of the window runs fresh and the
  // next occurrence re-captures.
  void abort_window(std::string reason);

  // Validation shadow-compare mismatch: the recording disagrees with a fresh
  // analysis of an identical call stream.  The common cause is a first
  // occurrence that was not yet in steady state (iteration 0 depends on the
  // setup fills at different offsets than iteration k depends on iteration
  // k-1), so the window is re-recorded from the fresh decisions being built
  // alongside the compare, and validation restarts at the next occurrence.
  // An analysis that is genuinely not a pure function of the call stream
  // (e.g. single-op ownership rotating with op ids) re-records forever and
  // simply never replays — sound, just unaccelerated.
  void validation_failed(std::string reason);

  // Closes the window: finalizes a capture, runs the validation audit
  // against `forest`, or retires a completed replay.
  void end(const rt::RegionForest& forest);

  Mode mode() const { return mode_; }
  std::optional<TraceId> active() const { return active_; }
  const Counters& counters() const { return counters_; }
  std::size_t size() const { return templates_.size(); }
  const std::string& last_event() const { return last_event_; }

  // Recovery: a replacement shard starts with no templates and re-captures
  // during its fast-forward replay.
  void reset();

  // Test hook: direct access to a stored template so negative tests can seed
  // a stale mutation and prove the validation pass catches it.
  DependenceTemplate* find(TraceId id) {
    auto it = templates_.find(id);
    return it == templates_.end() ? nullptr : &it->second;
  }

 private:
  DependenceTemplate& current() { return templates_.at(*active_); }

  std::map<TraceId, DependenceTemplate> templates_;
  Mode mode_ = Mode::Inactive;
  std::optional<TraceId> active_;
  std::size_t pos_ = 0;    // op cursor within the recording
  std::size_t calls_ = 0;  // call cursor within the recording
  // Validation builds a fresh recording alongside the compare; it replaces
  // the stored one when the shadow compare mismatches.
  DependenceTemplate fresh_;
  bool mismatch_ = false;
  Counters counters_;
  std::string last_event_;
};

// The spy-style idempotent-replay audit run at the end of a template's
// validation window, before first reuse:
//   1. every recorded cross-shard dependence still has its fence, and every
//      recorded *elided* dependence with an in-window source is re-proven
//      shard-local from the recorded summaries against the current forest;
//   2. the DEPseq executable sequential semantics (analysis/semantics.hpp),
//      run over the recorded fine-stage point plans with the concrete
//      requirements_conflict oracle, finds no point-level dependence that is
//      not covered by a (transitive) recorded coarse dependence.
// Returns false and fills `why` if the recording is unsound.
bool audit_template(const DependenceTemplate& t, const rt::RegionForest& forest,
                    std::string* why = nullptr);

}  // namespace dcr::core
