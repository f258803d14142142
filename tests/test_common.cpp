// Unit tests for src/common: strong ids, 128-bit hashing, Philox RNG.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/hash128.hpp"
#include "common/philox.hpp"
#include "common/types.hpp"
#include "runtime/geometry.hpp"

namespace dcr {
namespace {

// ---------------------------------------------------------------- strong ids

TEST(StrongId, DefaultIsInvalid) {
  NodeId n;
  EXPECT_FALSE(n.valid());
  EXPECT_EQ(n, NodeId::invalid());
}

TEST(StrongId, ValueRoundTrip) {
  NodeId n(7);
  EXPECT_TRUE(n.valid());
  EXPECT_EQ(n.value, 7u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(NodeId(1), NodeId(2));
  EXPECT_EQ(NodeId(3), NodeId(3));
  EXPECT_NE(NodeId(3), NodeId(4));
}

TEST(StrongId, UsableAsMapKeys) {
  std::map<OpId, int> ordered{{OpId(2), 20}, {OpId(1), 10}};
  EXPECT_EQ(ordered.begin()->first, OpId(1));
  std::unordered_set<FieldId> fields{FieldId(1), FieldId(2), FieldId(1)};
  EXPECT_EQ(fields.size(), 2u);
}

TEST(TimeLiterals, Scale) {
  EXPECT_EQ(us(1), ns(1000));
  EXPECT_EQ(ms(1), us(1000));
  EXPECT_EQ(sec(1), ms(1000));
}

// ------------------------------------------------------------------- hash128

TEST(Hash128, DeterministicForSameInput) {
  auto h = [] {
    Hasher128 hh;
    hh.value(42).string("launch_task").value(NodeId(3).value);
    return hh.finish();
  };
  EXPECT_EQ(h(), h());
}

TEST(Hash128, DifferentInputsDiffer) {
  Hasher128 a, b;
  a.value(1);
  b.value(2);
  EXPECT_NE(a.finish(), b.finish());
}

TEST(Hash128, OrderSensitive) {
  Hasher128 a, b;
  a.value(1).value(2);
  b.value(2).value(1);
  EXPECT_NE(a.finish(), b.finish());
}

TEST(Hash128, StringLengthFraming) {
  // ("ab", "c") must not collide with ("a", "bc").
  Hasher128 a, b;
  a.string("ab").string("c");
  b.string("a").string("bc");
  EXPECT_NE(a.finish(), b.finish());
}

TEST(Hash128, EmptyInputHasStableValue) {
  EXPECT_EQ(Hasher128().finish(), Hasher128().finish());
}

TEST(Hash128, NoCollisionsOverManySmallInputs) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    Hasher128 h;
    h.value(i);
    const Hash128 v = h.finish();
    EXPECT_TRUE(seen.insert({v.lo, v.hi}).second) << "collision at " << i;
  }
}

// The word path: Rect-sized inputs, tail packing, short lengths.

Hash128 hash_rect(const rt::Rect& r) {
  Hasher128 h;
  h.value(r.dim).value(r.lo).value(r.hi);  // as SigBuilder hashes a Rect
  return h.finish();
}

TEST(Hash128, EveryRectBitReachesBothOutputWords) {
  const rt::Rect base = rt::Rect::r3(-3, 1021, 7, 8, 1 << 20, (1ll << 40) + 5);
  const Hash128 h0 = hash_rect(base);
  const auto check = [&](const rt::Rect& r, const char* field, int bit) {
    const Hash128 h = hash_rect(r);
    EXPECT_NE(h.lo, h0.lo) << field << " bit " << bit;
    EXPECT_NE(h.hi, h0.hi) << field << " bit " << bit;
  };
  for (int bit = 0; bit < 32; ++bit) {
    rt::Rect r = base;
    r.dim ^= 1 << bit;
    check(r, "dim", bit);
  }
  for (std::size_t d = 0; d < static_cast<std::size_t>(rt::kMaxDim); ++d) {
    for (int bit = 0; bit < 64; ++bit) {
      rt::Rect lo = base, hi = base;
      lo.lo[d] ^= static_cast<std::int64_t>(1ull << bit);
      hi.hi[d] ^= static_cast<std::int64_t>(1ull << bit);
      check(lo, "lo", bit);
      check(hi, "hi", bit);
    }
  }
}

TEST(Hash128, TwoHalfWordsDifferFromOneWord) {
  // Each short value is its own tail word, so the chunking is part of the
  // input even when the concatenated bytes are the same.
  const std::uint32_t a = 0x01234567u, b = 0x89abcdefu;
  Hasher128 halves, whole;
  halves.value(a).value(b);
  whole.value((static_cast<std::uint64_t>(b) << 32) | a);
  EXPECT_NE(halves.finish(), whole.finish());
}

TEST(Hash128, ShortStringsDifferingInTheLastByteAllDiffer) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  const Hash128 empty = Hasher128().bytes("", 0).finish();
  seen.insert({empty.lo, empty.hi});
  for (std::size_t len = 1; len <= 17; ++len) {
    for (unsigned char last : {0x00, 0x01, 0x80, 0xff}) {
      std::vector<unsigned char> s(len, 0);
      s.back() = last;
      const Hash128 v = Hasher128().bytes(s.data(), s.size()).finish();
      EXPECT_TRUE(seen.insert({v.lo, v.hi}).second)
          << "length " << len << " last byte " << int{last};
    }
  }
}

// -------------------------------------------------------------------- philox

TEST(Philox, KnownAnswerZeroKeyZeroCounter) {
  // Reference vector from the Random123 known-answer tests (philox4x32, 10
  // rounds, all-zero counter and key).
  const auto out = Philox4x32::block({0, 0, 0, 0}, {0, 0});
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(Philox, KnownAnswerAllOnes) {
  const auto out = Philox4x32::block({0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
                                     {0xffffffffu, 0xffffffffu});
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(Philox, SameSeedSameSequence) {
  Philox4x32 a(123, 5), b(123, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Philox, DifferentStreamsDiffer) {
  Philox4x32 a(123, 0), b(123, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 3);
}

TEST(Philox, DoubleInUnitInterval) {
  Philox4x32 g(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = g.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Philox, NextBelowInRange) {
  Philox4x32 g(9);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 100ull, 1000000007ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(g.next_below(n), n);
  }
}

TEST(Philox, NextBelowRoughlyUniform) {
  Philox4x32 g(11);
  int buckets[10] = {};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) buckets[g.next_below(10)]++;
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(buckets[b], kDraws / 10, kDraws / 100) << "bucket " << b;
  }
}

TEST(Philox, RandomAccessBlockMatchesCounter) {
  // block_at(i) must be a pure function independent of stream position.
  Philox4x32 g(42, 3);
  const auto b5 = g.block_at(5);
  g.next_u64();
  g.next_u64();
  EXPECT_EQ(g.block_at(5), b5);
}

}  // namespace
}  // namespace dcr
