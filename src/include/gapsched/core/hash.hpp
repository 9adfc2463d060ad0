#pragma once
// The repository's one content hash: the solve cache's key digest (and with
// it shard routing) and the persistent store's record checksum.
//
// hash64 reads its input as little-endian 64-bit words, four independent
// lanes at a time over 32-byte blocks (multiply-rotate rounds), then folds
// in the length and the tail and finishes with an avalanche. Words are
// loaded little-endian on every host, so the same bytes give the same
// digest everywhere: the store's format version (store/store.hpp) pins
// this function, and tests/core/hash_test.cpp pins known answers.
//
// Every per-word step is a bijection of the state it updates, and every
// later step is a bijection of that state, so two inputs of one length that
// differ only inside one 8-byte word (counted from the first byte) never
// hash equal. A single flipped bit therefore always changes a record's
// checksum.

#include <cstdint>
#include <string_view>

namespace gapsched {

/// Word-wide 64-bit hash of `bytes`, seedable for independent families.
std::uint64_t hash64(std::string_view bytes, std::uint64_t seed = 0);

}  // namespace gapsched
