// 128-bit incremental hash used by the control-determinism checker (paper §3:
// "we compute a 128-bit hash that captures the API call and all its actual
// arguments").
//
// The construction absorbs input eight bytes at a time into two independent
// 64-bit lanes.  Each word costs each lane one multiply plus one bit-moving
// step, with its own constants: lane A xors the word in, multiplies, then
// xorshifts the high half down; lane B xors, multiplies, then rotates.  The
// shift and the rotate carry the high input bits into the low state bits, so
// the next multiply spreads them again.  Words are read with memcpy, so the
// input needs no alignment and is never type-punned.
//
// A bytes() call of n bytes absorbs n/8 full words, then, if n % 8 != 0, one
// tail word: the remaining bytes in the low end (little-endian order) and the
// tail's byte count in the top byte.  The count keeps tails of different
// lengths apart ("ab" is not "ab\0").  A tail word is absorbed with the two
// lanes' multipliers swapped, so a full word with the same bits takes a
// different step: eight bytes ending in 0x01 do not hash like one zero byte,
// and value(uint32 a).value(uint32 b) is two tail steps, not the one
// full-word step of the same eight bytes.  Variable-length inputs are framed
// by their callers (string() prefixes the size).
//
// finish() is a 128->128 cross-lane avalanche (two rounds of the
// splitmix64/murmur finalizer), so every input bit reaches both output words.
// The hash is not cryptographic; the paper only needs collision probabilities
// low enough that divergent call streams are detected with overwhelming
// probability, which 128 bits of well-mixed state provides.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace dcr {

struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend constexpr bool operator==(const Hash128&, const Hash128&) = default;
};

class Hasher128 {
 public:
  Hasher128() = default;

  Hasher128& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, p, 8);
      absorb(w, kMulA, kMulB);
    }
    if (n > 0) {
      std::uint64_t w = static_cast<std::uint64_t>(n) << 56;
      for (std::size_t i = 0; i < n; ++i) w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
      absorb(w, kMulB, kMulA);
    }
    return *this;
  }

  // Any trivially copyable value is hashed by object representation.  Padding
  // bytes would make this non-deterministic, so we require types without
  // padding in practice (ints, enums, ids); structs should be hashed
  // field-by-field.
  template <typename T>
    requires std::is_trivially_copyable_v<T> && (!std::is_pointer_v<T>)
  Hasher128& value(const T& v) {
    return bytes(&v, sizeof(v));
  }

  Hasher128& string(std::string_view s) {
    value(s.size());
    return bytes(s.data(), s.size());
  }

  Hash128 finish() const {
    std::uint64_t x = a_, y = b_;
    // Cross-lane avalanche so every input bit affects both output words.
    x += 0x9e3779b97f4a7c15ull + y;
    x = mix(x);
    y += 0xbf58476d1ce4e5b9ull + x;
    y = mix(y);
    x ^= y >> 32;
    return Hash128{mix(x), mix(y ^ rotl(x, 17))};
  }

 private:
  static constexpr std::uint64_t kMulA = 0xff51afd7ed558ccdull;  // murmur3 fmix64
  static constexpr std::uint64_t kMulB = 0x9ddfea08eb382d69ull;  // cityhash kMul

  void absorb(std::uint64_t w, std::uint64_t mul_a, std::uint64_t mul_b) {
    a_ = (a_ ^ w) * mul_a;
    a_ ^= a_ >> 29;
    b_ = rotl((b_ ^ w) * mul_b, 31);
  }

  static constexpr std::uint64_t rotl(std::uint64_t v, int s) {
    return (v << s) | (v >> (64 - s));
  }
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::uint64_t a_ = 0xcbf29ce484222325ull;  // FNV offset basis
  std::uint64_t b_ = 0x6c62272e07bb0142ull;  // FNV-128 high word basis
};

}  // namespace dcr
