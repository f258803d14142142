// Interval index over axis 0 of rects: the access pattern of every tracker
// in this runtime is "find entries whose rectangle may overlap [lo, hi]".
// Regions are partitioned along axis 0 in all the paper's workloads, so
// indexing that axis turns O(all entries) scans into O(overlapping entries)
// — the difference between quadratic and linear total analysis cost at 512
// nodes.
//
// Entries are bucketed by the power-of-two class of their axis-0 width, and
// each class is an ordered map keyed by lo[0] that remembers its own widest
// entry.  A query probes every non-empty class from lo[0] minus that class's
// max width, so an entry only ever widens the search within its own class:
// one whole-region entry does not turn later queries for small pieces into
// scans, and a query costs O(classes · log n + overlapping entries) for the
// disjoint-ish entry sets the trackers hold.  Visits merge the classes back
// into one order, (lo[0], insertion order), which callers depend on:
// PhysicalState issues its copies and UserTracker lists its conflicts in
// visit order.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/geometry.hpp"

namespace dcr::rt {

template <typename T>
class IntervalIndex {
 public:
  struct Item {
    Rect rect;
    T value;
  };

  void insert(const Rect& rect, T value) {
    const std::int64_t width = rect.extent(0);
    const int c = width > 0 ? std::bit_width(static_cast<std::uint64_t>(width)) : 0;
    if (!(class_of_[c] & kUsed)) {
      class_of_[c] = static_cast<std::uint8_t>(classes_.size()) | kUsed;
      classes_.push_back(WidthClass{});
    }
    WidthClass& cls = classes_[class_of_[c] & ~kUsed];
    cls.max_width = std::max(cls.max_width, width);
    cls.by_lo.emplace(rect.lo[0], Node{next_seq_++, Item{rect, std::move(value)}});
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const WidthClass& cls : classes_) n += cls.by_lo.size();
    return n;
  }
  bool empty() const { return size() == 0; }

  // Visit every item whose axis-0 interval overlaps [rect.lo[0], rect.hi[0]].
  // (Axis-0 overlap is necessary for rect overlap; callers still do the full
  // rect test.)  `fn` must not mutate the index.
  template <typename Fn>
  void for_each_overlapping(const Rect& rect, Fn&& fn) const {
    merge_visit(*this, rect.lo[0], rect.hi[0], [&](const Map&, auto it) {
      fn(it->second.item);
      return std::next(it);
    });
  }

  // Visit every item in (lo[0], insertion) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    merge_visit(*this, kMin, kMax, [&](const Map&, auto it) {
      fn(it->second.item);
      return std::next(it);
    });
  }

  // Remove every item overlapping `rect` on axis 0 for which `pred(item)`
  // holds; `pred` sees the overlapping items in visit order.  Returns how
  // many were removed.
  template <typename Pred>
  std::size_t erase_overlapping_if(const Rect& rect, Pred&& pred) {
    std::size_t removed = 0;
    merge_visit(*this, rect.lo[0], rect.hi[0], [&](Map& map, auto it) {
      if (!pred(std::as_const(it->second.item))) return std::next(it);
      ++removed;
      return map.erase(it);
    });
    return removed;
  }

  // As erase_overlapping_if, returning the removed items in visit order.
  template <typename Pred>
  std::vector<Item> extract_overlapping_if(const Rect& rect, Pred&& pred) {
    std::vector<Item> out;
    erase_overlapping_if(rect, [&](const Item& item) {
      if (!pred(item)) return false;
      out.push_back(item);
      return true;
    });
    return out;
  }

 private:
  struct Node {
    std::uint64_t seq;  // insertion order, breaks lo[0] ties across classes
    Item item;
  };
  using Map = std::multimap<std::int64_t, Node>;
  struct WidthClass {
    Map by_lo;
    std::int64_t max_width = 0;
  };

  // Width class c holds axis-0 widths in [2^(c-1), 2^c); class 0 holds empty
  // rects.  class_of_ maps a class to its slot in classes_ (with kUsed set),
  // so an index pays only for the classes it has seen.
  static constexpr int kClasses = 64;
  static constexpr std::uint8_t kUsed = 0x80;
  static constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

  // Walk every entry with lo[0] <= qhi and hi[0] >= qlo, across all classes,
  // in (lo[0], seq) order.  `step(map, it)` handles the entry at `it` and
  // returns the iterator to continue from (next, or what erase returned).
  template <typename Self, typename Step>
  static void merge_visit(Self& self, std::int64_t qlo, std::int64_t qhi, Step&& step) {
    using M = std::conditional_t<std::is_const_v<Self>, const Map, Map>;
    struct Cursor {
      decltype(std::declval<M&>().begin()) it;
      M* map;
    };
    // Advance `c.it` to the next entry reaching qlo; false once past qhi.
    const auto settle = [&](Cursor& c) {
      for (; c.it != c.map->end() && c.it->first <= qhi; ++c.it) {
        if (c.it->second.item.rect.hi[0] >= qlo) return true;
      }
      return false;
    };
    // Left uninitialized: only the first n slots are live, and zeroing all
    // kClasses iterators would cost more than a typical query.
    union Slot {
      Slot() {}
      Cursor c;
    };
    std::array<Slot, kClasses> cur;
    std::size_t n = 0;
    for (auto& cls : self.classes_) {
      if (cls.by_lo.empty()) continue;
      Cursor c{qlo < kMin + cls.max_width ? cls.by_lo.begin()
                                          : cls.by_lo.lower_bound(qlo - cls.max_width),
               &cls.by_lo};
      if (settle(c)) cur[n++].c = c;
    }
    while (n > 0) {
      std::size_t k = 0;
      for (std::size_t i = 1; i < n; ++i) {
        const auto& a = *cur[i].c.it;
        const auto& b = *cur[k].c.it;
        if (a.first < b.first || (a.first == b.first && a.second.seq < b.second.seq)) k = i;
      }
      Cursor& c = cur[k].c;
      c.it = step(*c.map, c.it);
      if (!settle(c)) c = cur[--n].c;
    }
  }

  std::vector<WidthClass> classes_;
  std::array<std::uint8_t, kClasses> class_of_{};
  std::uint64_t next_seq_ = 0;
};

}  // namespace dcr::rt
