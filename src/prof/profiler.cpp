#include "prof/profiler.hpp"

#include <algorithm>
#include <ostream>

namespace dcr::prof {

namespace {

void write_track(std::ostream& os, const Counters& c, bool zero_volatile) {
  os << "{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount); ++i) {
    const auto ctr = static_cast<Counter>(i);
    const std::uint64_t v = (zero_volatile && is_volatile(ctr)) ? 0 : c.get(ctr);
    if (i) os << ",";
    os << "\"" << name(ctr) << "\":" << v;
  }
  os << "}";
}

void write_hists(std::ostream& os, const Profiler& p, bool zero_volatile) {
  os << "{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Hist::kCount); ++i) {
    const auto h = static_cast<Hist>(i);
    // Merge the per-shard histograms: counts always survive zeroing (they are
    // structural); value-derived stats go to zero for volatile tracks.
    std::uint64_t count = 0, sum = 0, max = 0;
    std::uint64_t min = ~0ull;
    for (std::uint32_t s = 0; s < p.num_shards(); ++s) {
      const Histogram& hg = p.shard(s).hist(h);
      if (hg.count() == 0) continue;
      count += hg.count();
      sum += hg.sum();
      min = std::min(min, hg.min());
      max = std::max(max, hg.max());
    }
    if (count == 0) min = 0;
    if (zero_volatile && is_volatile(h)) sum = min = max = 0;
    if (i) os << ",";
    os << "\"" << name(h) << "\":{\"count\":" << count << ",\"sum\":" << sum
       << ",\"min\":" << min << ",\"max\":" << max << "}";
  }
  os << "}";
}

}  // namespace

void Profiler::write_snapshot_json(std::ostream& os, bool zero_volatile) const {
  os << "{\n  \"num_shards\": " << num_shards_ << ",\n  \"global\": {";
  for (std::size_t i = 0; i < static_cast<std::size_t>(GlobalCounter::kCount); ++i) {
    const auto ctr = static_cast<GlobalCounter>(i);
    const std::uint64_t v = (zero_volatile && is_volatile(ctr)) ? 0 : global_.get(ctr);
    if (i) os << ",";
    os << "\"" << name(ctr) << "\":" << v;
  }
  os << "},\n  \"merged\": ";
  // Merged view: per-shard counters summed over every shard.
  {
    os << "{";
    for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount); ++i) {
      const auto ctr = static_cast<Counter>(i);
      const std::uint64_t v = (zero_volatile && is_volatile(ctr)) ? 0 : total(ctr);
      if (i) os << ",";
      os << "\"" << name(ctr) << "\":" << v;
    }
    os << "}";
  }
  os << ",\n  \"histograms\": ";
  write_hists(os, *this, zero_volatile);
  os << ",\n  \"shards\": [";
  for (std::uint32_t s = 0; s < num_shards_; ++s) {
    if (s) os << ",";
    os << "\n    ";
    write_track(os, shards_[s], zero_volatile);
  }
  os << "\n  ]\n}\n";
}

}  // namespace dcr::prof
