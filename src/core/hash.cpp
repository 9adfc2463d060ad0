#include "gapsched/core/hash.hpp"

#include <bit>
#include <cstddef>
#include <cstring>

namespace gapsched {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

/// The `n` <= 8 bytes at `p` as a little-endian word, zero-padded.
std::uint64_t load_le(const char* p, std::size_t n = 8) {
  std::uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, p, n);
  } else {
    for (std::size_t i = n; i-- > 0;) {
      word = (word << 8) | static_cast<unsigned char>(p[i]);
    }
  }
  return word;
}

/// One lane step: a bijection of `lane` for a fixed word, and of `word`
/// for a fixed lane (both multipliers are odd).
std::uint64_t step(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

/// Folds one word into the running digest, a bijection of either input.
std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return std::rotl(h ^ step(0, word), 27) * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t hash64(std::string_view bytes, std::uint64_t seed) {
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  std::uint64_t h = seed + kPrime5;
  if (left >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    do {
      v1 = step(v1, load_le(p));
      v2 = step(v2, load_le(p + 8));
      v3 = step(v3, load_le(p + 16));
      v4 = step(v4, load_le(p + 24));
      p += 32;
      left -= 32;
    } while (left >= 32);
    // Each lane enters once, so the digest stays a bijection of each.
    h = fold(fold(fold(fold(h, v1), v2), v3), v4);
  }
  h += bytes.size();
  for (; left >= 8; p += 8, left -= 8) h = fold(h, load_le(p));
  if (left > 0) h = fold(h, load_le(p, left));
  // Avalanche: spreads every state bit over the whole word, bijectively.
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace gapsched
