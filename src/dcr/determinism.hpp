// Dynamic control-determinism verification (paper §3).
//
// "For each runtime API call from a shard of a replicated task (and only for
// such calls), we compute a 128-bit hash that captures the API call and all
// its actual arguments.  An all-reduce collective checks that the hashes
// from all shards are identical ... performed asynchronously to hide its
// latency ... If a check fails, the runtime system aborts with an error
// listing the operation that failed to be control deterministic."
//
// We reproduce that design: one 16-byte-payload all-reduce per API call,
// combined with an equality flag; the first failed check records the call's
// description.  The checks never block the shard — completion callbacks set
// the violation flag, which the runtime surfaces after execution.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/hash128.hpp"
#include "common/types.hpp"
#include "sim/collective.hpp"

namespace dcr::core {

class DeterminismChecker {
 public:
  DeterminismChecker(sim::Simulator& sim, sim::Network& net, std::vector<NodeId> placement,
                     bool enabled)
      : sim_(sim), net_(net), placement_(std::move(placement)), enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Shard `shard` made API call number `call_index` with hash `h`.
  // `what` describes the call for the abort message.
  void record(ShardId shard, std::uint64_t call_index, const Hash128& h,
              const std::string& what) {
    if (!enabled_ || placement_.size() < 2) return;
    auto it = pending_.find(call_index);
    if (it == pending_.end()) {
      auto coll = std::make_shared<sim::Collective<CheckVal>>(
          sim_, net_, placement_, sim::CollectiveKind::AllReduce,
          /*payload_bytes=*/16,
          [](CheckVal a, CheckVal b) {
            a.ok = a.ok && b.ok && a.h == b.h;
            return a;
          });
      it = pending_.emplace(call_index, Pending{coll, what, 0, {}}).first;
    }
    Pending& p = it->second;
    p.rank_done.push_back(p.coll->arrive(shard.value, CheckVal{h, true}));
    ++checks_issued_;
    if (++p.arrivals == placement_.size()) {
      // All ranks arrived: once the result has reached *every* rank (i.e. no
      // tree message is still in flight), verify and retire the collective.
      auto coll = p.coll;
      const std::string what_copy = p.what;
      sim::merge_events(std::span<const sim::Event>(p.rank_done))
          .on_trigger([this, coll, what_copy, call_index] {
            ++checks_completed_;
            if (!coll->result().ok) {
              ++violations_;
              if (!violation_) {
                violation_ = "control determinism violation at API call " +
                             std::to_string(call_index) + ": " + what_copy;
                if (violation_handler_) violation_handler_(*violation_);
              }
            }
            // Defer the erase out of the trigger cascade.
            sim_.schedule(0, [this, coll, call_index] { pending_.erase(call_index); });
          });
    }
  }

  bool has_violation() const { return violation_.has_value(); }
  const std::string& violation_message() const {
    static const std::string kNone;
    return violation_ ? *violation_ : kNone;
  }

  std::uint64_t checks_issued() const { return checks_issued_; }
  std::uint64_t checks_completed() const { return checks_completed_; }
  std::uint64_t violations() const { return violations_; }
  // The lowest call index whose collective never completed, with its
  // description: some shard's call stream ended before reaching it.
  struct Unresolved {
    std::uint64_t call_index;
    std::string what;
  };
  std::optional<Unresolved> first_unresolved() const {
    if (pending_.empty()) return std::nullopt;
    return Unresolved{pending_.begin()->first, pending_.begin()->second.what};
  }

  // Invoked once, when the *first* failed check resolves, with the violation
  // message.  The runtime uses this to upgrade the violation flag into a
  // graceful abort naming the first divergent API call (paper §3: "aborts
  // with an error listing the operation that failed").
  void set_violation_handler(std::function<void(const std::string&)> fn) {
    violation_handler_ = std::move(fn);
  }

 private:
  struct CheckVal {
    Hash128 h;
    bool ok = true;
  };
  struct Pending {
    std::shared_ptr<sim::Collective<CheckVal>> coll;
    std::string what;
    std::size_t arrivals;
    std::vector<sim::Event> rank_done;
  };

  sim::Simulator& sim_;
  sim::Network& net_;
  std::vector<NodeId> placement_;
  bool enabled_;
  std::map<std::uint64_t, Pending> pending_;
  std::optional<std::string> violation_;
  std::uint64_t checks_issued_ = 0;
  std::uint64_t checks_completed_ = 0;
  std::uint64_t violations_ = 0;
  std::function<void(const std::string&)> violation_handler_;
};

}  // namespace dcr::core
