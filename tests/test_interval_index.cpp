// Unit and property tests for the axis-0 interval index that backs the
// physical-state tracker and the fine-stage user tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/philox.hpp"
#include "runtime/interval_index.hpp"

namespace dcr::rt {
namespace {

TEST(IntervalIndex, EmptyIndexFindsNothing) {
  IntervalIndex<int> idx;
  int hits = 0;
  idx.for_each_overlapping(Rect::r1(0, 100), [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 0);
  EXPECT_TRUE(idx.empty());
}

TEST(IntervalIndex, FindsExactAndPartialOverlaps) {
  IntervalIndex<int> idx;
  idx.insert(Rect::r1(0, 9), 1);
  idx.insert(Rect::r1(10, 19), 2);
  idx.insert(Rect::r1(20, 29), 3);
  std::set<int> hits;
  idx.for_each_overlapping(Rect::r1(5, 14), [&](const auto& item) {
    hits.insert(item.value);
  });
  EXPECT_EQ(hits, (std::set<int>{1, 2}));
}

TEST(IntervalIndex, WideEntryFoundFromFarQuery) {
  // A whole-domain entry must be found even by queries whose lo is far past
  // the entry's lo (the max-width widening).
  IntervalIndex<int> idx;
  idx.insert(Rect::r1(0, 1'000'000), 7);
  idx.insert(Rect::r1(500, 510), 8);
  std::set<int> hits;
  idx.for_each_overlapping(Rect::r1(999'000, 999'100), [&](const auto& item) {
    hits.insert(item.value);
  });
  EXPECT_EQ(hits, (std::set<int>{7}));
}

TEST(IntervalIndex, ExtractRemovesOnlyMatching) {
  IntervalIndex<int> idx;
  idx.insert(Rect::r1(0, 9), 1);
  idx.insert(Rect::r1(5, 14), 2);
  idx.insert(Rect::r1(20, 29), 3);
  auto removed = idx.extract_overlapping_if(
      Rect::r1(0, 30), [](const auto& item) { return item.value != 2; });
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_EQ(idx.size(), 1u);
  int remaining = 0;
  idx.for_each([&](const auto& item) { remaining = item.value; });
  EXPECT_EQ(remaining, 2);
}

TEST(IntervalIndex, TwoDimensionalRectsUseAxisZeroConservatively) {
  // Axis-0 overlap is a prefilter: rects overlapping on x but not y are
  // still visited (callers do the exact test).
  IntervalIndex<int> idx;
  idx.insert(Rect::r2(0, 9, 0, 9), 1);
  int hits = 0;
  idx.for_each_overlapping(Rect::r2(5, 14, 100, 110), [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(IntervalIndex, PropertyMatchesLinearScan) {
  // Randomized: results of the index must equal a brute-force scan.
  Philox4x32 rng(2024);
  IntervalIndex<int> idx;
  std::vector<Rect> all;
  for (int i = 0; i < 300; ++i) {
    const auto lo = static_cast<std::int64_t>(rng.next_below(10000));
    const auto len = static_cast<std::int64_t>(rng.next_below(500));
    const Rect r = Rect::r1(lo, lo + len);
    idx.insert(r, i);
    all.push_back(r);
  }
  for (int q = 0; q < 200; ++q) {
    const auto lo = static_cast<std::int64_t>(rng.next_below(11000));
    const auto len = static_cast<std::int64_t>(rng.next_below(800));
    const Rect query = Rect::r1(lo, lo + len);
    std::set<int> got;
    idx.for_each_overlapping(query, [&](const auto& item) {
      if (overlaps(item.rect, query)) got.insert(item.value);
    });
    std::set<int> expected;
    for (int i = 0; i < 300; ++i) {
      if (overlaps(all[static_cast<std::size_t>(i)], query)) expected.insert(i);
    }
    ASSERT_EQ(got, expected) << "query " << query;
  }
}

TEST(IntervalIndex, TiesVisitInInsertionOrderAcrossWidths) {
  // Equal lo[0] visits in insertion order even when the entries' widths put
  // them in different width classes.
  IntervalIndex<int> idx;
  idx.insert(Rect::r1(0, 999'999), 1);
  idx.insert(Rect::r1(0, 9), 2);
  idx.insert(Rect::r1(0, 99), 3);
  idx.insert(Rect::r1(0, 1'999'999), 4);
  idx.insert(Rect::r1(-5, 4), 5);
  std::vector<int> order;
  idx.for_each_overlapping(Rect::r1(3, 3), [&](const auto& item) { order.push_back(item.value); });
  EXPECT_EQ(order, (std::vector<int>{5, 1, 2, 3, 4}));
  order.clear();
  idx.for_each([&](const auto& item) { order.push_back(item.value); });
  EXPECT_EQ(order, (std::vector<int>{5, 1, 2, 3, 4}));
}

TEST(IntervalIndex, EraseDropsMatchingAndCounts) {
  IntervalIndex<int> idx;
  idx.insert(Rect::r1(0, 1'000'000), 1);
  idx.insert(Rect::r1(10, 19), 2);
  idx.insert(Rect::r1(30, 39), 3);
  std::vector<int> seen;
  const std::size_t removed = idx.erase_overlapping_if(Rect::r1(15, 35), [&](const auto& item) {
    seen.push_back(item.value);
    return item.value != 2;
  });
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  ASSERT_EQ(idx.size(), 1u);
  // The whole-domain entry is gone: a far query finds nothing.
  int hits = 0;
  idx.for_each_overlapping(Rect::r1(500'000, 500'010), [&](const auto&) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST(IntervalIndex, PropertyVisitOrderMatchesOracle) {
  // Randomized: interleaved inserts (small pieces, empty rects and
  // whole-domain entries) and removals against a brute-force oracle.  Every
  // visiting call must see exactly the oracle's items in (lo[0], insertion)
  // order, not just the same set.
  struct Entry {
    Rect rect;
    int value;
  };
  std::vector<Entry> oracle;  // live entries, in insertion order
  // Oracle visit order over entries whose axis-0 interval meets [qlo, qhi].
  const auto expect_order = [&](std::int64_t qlo, std::int64_t qhi) {
    std::vector<Entry> hit;
    for (const Entry& e : oracle) {
      if (e.rect.lo[0] <= qhi && e.rect.hi[0] >= qlo) hit.push_back(e);
    }
    std::stable_sort(hit.begin(), hit.end(),
                     [](const Entry& a, const Entry& b) { return a.rect.lo[0] < b.rect.lo[0]; });
    std::vector<int> values;
    for (const Entry& e : hit) values.push_back(e.value);
    return values;
  };
  const auto drop_from_oracle = [&](const std::vector<int>& values) {
    const std::set<int> gone(values.begin(), values.end());
    std::erase_if(oracle, [&](const Entry& e) { return gone.count(e.value) > 0; });
  };

  Philox4x32 rng(77, 5);
  IntervalIndex<int> idx;
  int next_value = 0;
  const auto random_query = [&] {
    const auto lo = static_cast<std::int64_t>(rng.next_below(12000)) - 1000;
    return Rect::r1(lo, lo + static_cast<std::int64_t>(rng.next_below(900)) - 1);
  };
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next_below(16);
    if (op < 6) {
      // A small piece; lo on a coarse grid so lo[0] ties are common.
      const auto lo = static_cast<std::int64_t>(rng.next_below(100)) * 100;
      const auto len = static_cast<std::int64_t>(rng.next_below(400));  // 0 = empty
      const Rect r = Rect::r1(lo, lo + len - 1);
      idx.insert(r, next_value);
      oracle.push_back({r, next_value++});
    } else if (op == 6) {
      // A whole-domain entry (sometimes twice the domain).
      const Rect r = Rect::r1(0, rng.next_below(2) ? 9999 : 19999);
      idx.insert(r, next_value);
      oracle.push_back({r, next_value++});
    } else if (op < 10) {
      const Rect q = random_query();
      std::vector<int> got;
      idx.for_each_overlapping(q, [&](const auto& item) { got.push_back(item.value); });
      ASSERT_EQ(got, expect_order(q.lo[0], q.hi[0])) << "step " << step << " query " << q;
    } else if (op == 10) {
      std::vector<int> got;
      idx.for_each([&](const auto& item) { got.push_back(item.value); });
      ASSERT_EQ(got, expect_order(INT64_MIN, INT64_MAX)) << "step " << step;
    } else if (op < 13) {
      // Extract: pred sees the oracle order; the result keeps the matches.
      const Rect q = random_query();
      const auto keep = static_cast<int>(rng.next_below(3));
      std::vector<int> seen, want_removed;
      auto removed = idx.extract_overlapping_if(q, [&](const auto& item) {
        seen.push_back(item.value);
        return item.value % 3 != keep;
      });
      const std::vector<int> expected = expect_order(q.lo[0], q.hi[0]);
      ASSERT_EQ(seen, expected) << "step " << step;
      for (int v : expected) {
        if (v % 3 != keep) want_removed.push_back(v);
      }
      std::vector<int> got;
      for (const auto& item : removed) got.push_back(item.value);
      ASSERT_EQ(got, want_removed) << "step " << step;
      drop_from_oracle(got);
    } else {
      // Erase: sometimes only the wide entries, so whole-domain entries come
      // and go while pieces stay.
      const Rect q = random_query();
      const bool wide_only = rng.next_below(2) == 0;
      std::vector<int> seen, want_removed;
      const std::size_t n = idx.erase_overlapping_if(q, [&](const auto& item) {
        seen.push_back(item.value);
        return wide_only ? item.rect.extent(0) >= 5000 : item.value % 2 == 0;
      });
      const std::vector<int> expected = expect_order(q.lo[0], q.hi[0]);
      ASSERT_EQ(seen, expected) << "step " << step;
      for (const Entry& e : oracle) {
        if (std::count(expected.begin(), expected.end(), e.value) == 0) continue;
        if (wide_only ? e.rect.extent(0) >= 5000 : e.value % 2 == 0) want_removed.push_back(e.value);
      }
      ASSERT_EQ(n, want_removed.size()) << "step " << step;
      drop_from_oracle(want_removed);
    }
    ASSERT_EQ(idx.size(), oracle.size()) << "step " << step;
  }
}

}  // namespace
}  // namespace dcr::rt
