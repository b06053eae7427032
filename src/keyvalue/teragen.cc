#include "keyvalue/teragen.h"

#include <bit>
#include <cstring>

namespace cts {

namespace {

// Lanes 3..13 fill value blocks 1..11; lane 2 is unused.
constexpr int kFillerLanes = 11;
constexpr std::uint64_t kFirstFillerLane = 3;

// Per-record 64-bit stream: h(seed, index, lane). Independent lanes let
// key and value bytes come from decorrelated streams.
std::uint64_t RecordHash(std::uint64_t seed, std::uint64_t index,
                         std::uint64_t lane) {
  return Mix64(seed ^ Mix64(index * 0x9e3779b97f4a7c15ULL + lane));
}

// The low 32 bits of x, one nibble per byte: nibble j lands in the low
// half of byte j.
std::uint64_t SpreadNibbles(std::uint64_t x) {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return x;
}

// Byte j of `bytes` is bits 8j..8j+7 of v.
void StoreLe64(std::uint8_t* bytes, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(bytes, &v, sizeof(v));
}

// Byte j of `bytes` is bits 56-8j..63-8j of v.
void StoreBe64(std::uint8_t* bytes, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(bytes, &v, sizeof(v));
}

}  // namespace

Record TeraGen::record(std::uint64_t index) const {
  // Every lane hash first, with no stores in between, so the 13
  // independent multiply chains overlap in the pipeline.
  const std::uint64_t key_hash = RecordHash(seed_, index, /*lane=*/0);
  const std::uint64_t suffix_hash = RecordHash(seed_, index, /*lane=*/1);
  std::uint64_t filler[kFillerLanes];
  for (int b = 0; b < kFillerLanes; ++b) {
    filler[b] = RecordHash(seed_, index,
                           kFirstFillerLane + static_cast<std::uint64_t>(b));
  }

  // --- Key ---
  std::uint64_t prefix = 0;
  switch (dist_) {
    case KeyDistribution::kUniform:
      prefix = key_hash;
      break;
    case KeyDistribution::kSorted:
      prefix = index;
      break;
    case KeyDistribution::kReverseSorted:
      prefix = ~index;
      break;
    case KeyDistribution::kSkewed: {
      // u^4 pushes mass toward the low end of the key domain; the
      // highest-keyed partition ends up nearly empty.
      const double u = static_cast<double>(key_hash >> 11) * 0x1.0p-53;
      const double skewed = u * u * u * u;
      prefix = static_cast<std::uint64_t>(
          skewed * 18446744073709549568.0);  // ~2^64, rounds below max
      break;
    }
    case KeyDistribution::kFewDistinct:
      prefix = (key_hash & 0xffu) << 56;
      break;
    case KeyDistribution::kBalanced:
      // Weyl sequence with the golden-ratio multiplier (odd, hence a
      // bijection on 2^64): consecutive indices land maximally far
      // apart, so any contiguous range of n indices puts n/K ± O(1)
      // keys into each of K equal key ranges.
      prefix = index * 0x9e3779b97f4a7c15ULL;
      break;
  }
  Record rec;
  // Low 2 key bytes disambiguate records sharing a prefix.
  StoreBe64(rec.key.data(), prefix);
  rec.key[8] = static_cast<std::uint8_t>(suffix_hash >> 8);
  rec.key[9] = static_cast<std::uint8_t>(suffix_hash);

  // --- Value ---
  // Hadoop TeraGen writes the row id followed by printable filler; we
  // keep that shape: 8 bytes of big-endian row id, then pseudo-random
  // printable ASCII so values differ record-to-record. Filler block b
  // (value bytes 8b..8b+7, the last one cut to 2 bytes) is 'A' plus the
  // low 8 nibbles of lane 2 + b, low nibble first.
  StoreBe64(rec.value.data(), index);
  for (int b = 0; b < kFillerLanes - 1; ++b) {
    StoreLe64(rec.value.data() + 8 * (b + 1),
              SpreadNibbles(filler[b]) + 0x4141414141414141ULL);
  }
  std::uint8_t last[8];
  StoreLe64(last, SpreadNibbles(filler[kFillerLanes - 1]) +
                      0x4141414141414141ULL);
  std::memcpy(rec.value.data() + 8 * kFillerLanes, last,
              kValueBytes - 8 * kFillerLanes);
  return rec;
}

std::vector<Record> TeraGen::generate(std::uint64_t start,
                                      std::uint64_t count) const {
  std::vector<Record> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(record(start + i));
  }
  return out;
}

}  // namespace cts
