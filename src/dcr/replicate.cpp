#include "dcr/replicate.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "common/crc32c.hpp"

namespace dcr::core {

// ------------------------------------------------------------ TaintTracker

void TaintTracker::note_future(std::uint64_t future_id, std::uint64_t producer_op) {
  future_src_.try_emplace(future_id, FutureSource{producer_op, ~0ull});
}

void TaintTracker::note_future_map(std::uint64_t fm_id, std::uint64_t producer_op) {
  fm_src_.try_emplace(fm_id, producer_op);
}

void TaintTracker::note_reduce(std::uint64_t future_id, std::uint64_t reduce_op,
                               std::uint64_t fm_id) {
  future_src_.try_emplace(future_id, FutureSource{reduce_op, fm_id});
}

std::vector<std::uint64_t> TaintTracker::taint_future(std::uint64_t future_id) {
  std::vector<std::uint64_t> newly;
  if (!tainted_futures_.insert(future_id).second) return newly;  // re-observation
  const auto it = future_src_.find(future_id);
  if (it == future_src_.end()) return newly;  // unknown future: nothing to mark
  if (tainted_ops_.insert(it->second.producer_op).second) {
    newly.push_back(it->second.producer_op);
  }
  // Transitive step: a reduce future's value is folded from the point values
  // of the index launch behind its future map — those tasks are the ones a
  // corruption actually strikes, so they carry the taint too.
  if (it->second.fm_id != ~0ull) {
    const auto fmit = fm_src_.find(it->second.fm_id);
    if (fmit != fm_src_.end() && tainted_ops_.insert(fmit->second).second) {
      newly.push_back(fmit->second);
    }
  }
  return newly;
}

// ----------------------------------------------------- ReplicationExecutor

ReplicationExecutor::ReplicationExecutor(sim::Machine& machine, prof::Profiler& profiler,
                                         ReplicationConfig config,
                                         std::uint32_t num_shards, Hooks hooks)
    : machine_(machine),
      profiler_(profiler),
      config_(config),
      num_shards_(num_shards),
      hooks_(std::move(hooks)) {
  DCR_CHECK(config_.replicas >= 2) << "replication needs >= 2 executions per task";
  DCR_CHECK(config_.quorum >= 2) << "a 1-vote quorum cannot out-vote anything";
  DCR_CHECK(config_.quorum <= config_.replicas + config_.retry_budget)
      << "quorum unreachable within the retry budget";
  stats_.blamed_by_shard.assign(num_shards, 0);
}

std::uint64_t ReplicationExecutor::open(std::uint64_t op, std::uint32_t primary_shard,
                                        std::uint64_t point_index, SimTime duration,
                                        sim::Event pre,
                                        std::function<double(std::uint32_t)> value_of,
                                        std::function<void(const QuorumOutcome&)> on_resolved,
                                        std::string label) {
  const std::uint64_t id = next_ticket_++;
  Ticket& t = tickets_[id];
  t.id = id;
  t.op = op;
  t.primary = primary_shard;
  t.point_index = point_index;
  t.duration = duration;
  t.pre = pre;
  t.opened = machine_.sim().now();
  t.value_of = std::move(value_of);
  t.on_resolved = std::move(on_resolved);
  t.label = std::move(label);
  t.launched = 1;  // the primary, already enqueued by the runtime
  ++stats_.tickets;
  for (std::uint32_t r = 1; r < config_.replicas; ++r) launch_replica(t);
  return id;
}

// Rotation placement: execution k prefers shard (primary + k) mod N, then
// linearly probes past unusable (dead/crashed/dark) shards.  Deterministic —
// placement depends only on the ticket's launch count and current liveness —
// and re-execution rounds keep rotating, so repeated rounds against a
// corrupting shard land on fresh voters.
std::uint32_t ReplicationExecutor::pick_shard(const Ticket& t) const {
  const std::uint32_t start = t.launched % num_shards_;
  for (std::uint32_t probe = 0; probe < num_shards_; ++probe) {
    const std::uint32_t s = (t.primary + start + probe) % num_shards_;
    if (s == t.primary) continue;
    if (hooks_.shard_usable && !hooks_.shard_usable(s)) continue;
    return s;
  }
  // Every peer is unreachable right now; fall back to the rotation slot and
  // let the digest transport surface the loss (which re-executes later).
  return (t.primary + std::max<std::uint32_t>(start, 1)) % num_shards_;
}

void ReplicationExecutor::launch_replica(Ticket& t) {
  const std::uint32_t shard = pick_shard(t);
  const std::uint32_t exec = t.launched++;
  ++stats_.replicas_issued;
  profiler_.global().add(prof::GlobalCounter::ReplicasIssued);
  profiler_.shard(shard).add(prof::Counter::ReplicaTasks);

  // The duplicate charges the same duration on the replica shard's processor,
  // gated on the primary's merged precondition (inputs are modeled as
  // resident once the producing tasks complete).  The body is a shadow: it
  // computes the value and ships a digest — no tracker, physical, spy, or
  // collective side effects, so replicated and unreplicated runs realize
  // identical task graphs.
  sim::Processor& proc = hooks_.proc_for(shard, t.point_index);
  proc.enqueue(
      t.duration, t.pre,
      [this, id = t.id, exec, shard] {
        Ticket& t = tickets_.at(id);
        const double value = t.value_of(exec);
        const NodeId src = hooks_.node_of(shard);
        const NodeId dst = hooks_.node_of(t.primary);
        if (src == dst) {  // co-located shards: no transport hop to lose
          cast(id, exec, shard, value);
          return;
        }
        if (sim::ReliableDelivery* rel = machine_.reliable()) {
          // First signal wins: `delivered` fires at the receiver, `failed` at
          // the sender on give-up — and a transfer whose payload landed but
          // whose acks all dropped fires *both*, so guard against the second.
          auto settled = std::make_shared<bool>(false);
          sim::ReliableDelivery::Transfer tr =
              rel->transfer(src, dst, config_.digest_bytes);
          tr.delivered.on_trigger([this, id, exec, shard, value, settled] {
            if (*settled) return;
            *settled = true;
            cast(id, exec, shard, value);
          });
          tr.failed.on_trigger([this, id, settled] {
            if (*settled) return;
            *settled = true;
            lose(id);
          });
        } else {
          machine_.network().send(src, dst, config_.digest_bytes)
              .on_trigger([this, id, exec, shard, value] { cast(id, exec, shard, value); });
        }
      });
}

void ReplicationExecutor::primary_complete(std::uint64_t ticket) {
  Ticket& t = tickets_.at(ticket);
  cast(ticket, /*exec=*/0, t.primary, t.value_of(0));
}

void ReplicationExecutor::cast(std::uint64_t ticket, std::uint32_t exec,
                               std::uint32_t shard, double value) {
  Ticket& t = tickets_.at(ticket);
  if (exec != 0) {  // arrived ballots count compared even when stale
    ++stats_.replicas_compared;
    profiler_.global().add(prof::GlobalCounter::ReplicasCompared);
  }
  const std::uint32_t digest = crc32c_double(value);
  if (t.resolved) {
    // A straggler past an already-settled quorum (resolution fires as soon as
    // `quorum` digests agree).  Audit it — and if it disagrees with the
    // winner, it is a corrupted execution detected late: blame its shard.
    ++stats_.stale_votes;
    profiler_.global().add(prof::GlobalCounter::StaleQuorumVotes);
    if (digest != t.winner_digest) {
      ++stats_.mismatched_ballots;
      stats_.blamed_by_shard[shard]++;
      prof::Counters& g = profiler_.global();
      g.add(prof::GlobalCounter::ReplicaMismatches);
      g.add(prof::GlobalCounter::CorruptionsDetected);
      profiler_.shard(shard).add(prof::Counter::CorruptionsBlamed);
    }
    return;
  }
  t.ballots.push_back(Ballot{exec, shard, digest, value});
  evaluate(t);
}

void ReplicationExecutor::lose(std::uint64_t ticket) {
  Ticket& t = tickets_.at(ticket);
  ++stats_.replicas_lost;
  profiler_.global().add(prof::GlobalCounter::ReplicasLost);
  if (t.resolved) return;
  ++t.lost;
  evaluate(t);
}

void ReplicationExecutor::evaluate(Ticket& t) {
  // Tally digests; the winner is the most-voted digest, ties broken toward
  // the ballot set containing the earliest execution instance (the primary's
  // digest wins an even split only to *name* a winner — a tie is below any
  // quorum >= 2, so ties always re-execute rather than resolve).
  std::uint32_t winner = 0;
  std::size_t winner_count = 0;
  std::uint32_t winner_first_exec = ~0u;
  bool primary_arrived = false;
  for (const Ballot& b : t.ballots) {
    if (b.exec == 0) primary_arrived = true;
    std::size_t count = 0;
    std::uint32_t first_exec = ~0u;
    for (const Ballot& o : t.ballots) {
      if (o.digest != b.digest) continue;
      ++count;
      first_exec = std::min(first_exec, o.exec);
    }
    if (count > winner_count ||
        (count == winner_count && first_exec < winner_first_exec)) {
      winner = b.digest;
      winner_count = count;
      winner_first_exec = first_exec;
    }
  }

  // Resolve the moment a quorum of digests agrees — but never before the
  // primary's own ballot: resolution triggers the primary task's completion
  // event, which must not precede its simulated execution.  Ballots still in
  // flight arrive as audited stale votes.
  if (winner_count >= config_.quorum && primary_arrived) {
    resolve(t, winner);
    return;
  }
  // No quorum yet: wait until every launched execution is accounted for
  // (ballot or loss) — re-executing over a partial round would double-launch.
  if (t.ballots.size() + t.lost < t.launched) return;
  if (t.rounds < config_.retry_budget) {
    ++t.rounds;
    ++stats_.rounds;
    profiler_.global().add(prof::GlobalCounter::QuorumRounds);
    launch_replica(t);
    return;
  }
  // Budget exhausted without agreement: the result is unverifiable, which is
  // exactly the situation replication exists to never silently accept.
  t.resolved = true;
  ++stats_.aborted;
  hooks_.abort("SDC quorum unresolved for task '" + t.label + "' (op " +
               std::to_string(t.op) + ", point " + std::to_string(t.point_index) +
               "): " + std::to_string(t.ballots.size()) + " ballots, best agreement " +
               std::to_string(winner_count) + " < quorum " +
               std::to_string(config_.quorum) + " after " + std::to_string(t.rounds) +
               " re-executions");
}

void ReplicationExecutor::resolve(Ticket& t, std::uint32_t winner_digest) {
  t.resolved = true;
  t.winner_digest = winner_digest;
  ++stats_.resolved;

  QuorumOutcome out;
  out.ballots = static_cast<std::uint32_t>(t.ballots.size());
  out.rounds = t.rounds;
  out.opened = t.opened;
  out.resolved_at = machine_.sim().now();
  bool have_value = false;
  for (const Ballot& b : t.ballots) {
    if (b.digest == winner_digest) {
      if (!have_value) {
        out.value = b.value;
        have_value = true;
      }
      continue;
    }
    ++out.mismatches;
    out.corrupted_shards.push_back(b.shard);
    if (b.exec == 0) out.primary_corrupted = true;
    stats_.blamed_by_shard[b.shard]++;
    profiler_.shard(b.shard).add(prof::Counter::CorruptionsBlamed);
  }
  DCR_CHECK(have_value) << "quorum resolved with no winning ballot";

  prof::Counters& g = profiler_.global();
  if (out.mismatches > 0) {
    ++stats_.healed;
    stats_.mismatched_ballots += out.mismatches;
    g.add(prof::GlobalCounter::ReplicaMismatches, out.mismatches);
    g.add(prof::GlobalCounter::CorruptionsDetected, out.mismatches);
    g.add(prof::GlobalCounter::CorruptionsHealed);
  }
  profiler_.shard(t.primary).observe(prof::Hist::QuorumResolveNs,
                                     static_cast<std::uint64_t>(out.resolved_at - t.opened));
  t.on_resolved(out);
}

}  // namespace dcr::core
