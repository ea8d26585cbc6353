// Order-dependent 64-bit structural hashing, used for the graph-cache
// signatures (cluster-tree topology, tile structure, solver epoch tags),
// and hash_bytes, the byte-run checksum of the factor store. Not
// cryptographic; the only requirement is that equal structures hash
// equal across processes and unequal ones collide with hash quality good
// enough for a small cache keyed on a handful of live structures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hcham {

/// Boost-style combiner with a splitmix constant.
inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

inline std::uint64_t hash_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return hash_mix(h, bits);
}

/// 64-bit checksum of `n` bytes at memory speed (the factor store's
/// per-tile and metadata hashes; its values are part of that on-disk
/// format). Eight independent lanes consume 64-byte stripes, one 8-byte
/// word per lane per stripe, with an XXH64-style multiply-rotate round;
/// the lanes are then folded in order, and the bytes past the last full
/// stripe are mixed in one at a time. Each round is a bijection of its
/// lane for a fixed word and of its word for a fixed lane, and every later
/// step is a bijection of the running state, so a change confined to one
/// stripe word, or to one tail byte, always changes the result.
inline std::uint64_t hash_bytes(const void* data, std::size_t n) {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;
  constexpr auto rotl = [](std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  constexpr auto round = [rotl](std::uint64_t acc, std::uint64_t w) {
    return rotl(acc + w * kP2, 31) * kP1;
  };
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane[8];
  for (int k = 0; k < 8; ++k)
    lane[k] = kP1 + static_cast<std::uint64_t>(k) * kP2;
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    std::uint64_t w[8];
    std::memcpy(w, p + i, sizeof w);
    for (int k = 0; k < 8; ++k) lane[k] = round(lane[k], w[k]);
  }
  std::uint64_t h = kP5 + static_cast<std::uint64_t>(n);
  for (int k = 0; k < 8; ++k) h = (h ^ round(0, lane[k])) * kP1 + kP4;
  for (; i < n; ++i) h = rotl(h ^ (p[i] * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace hcham
