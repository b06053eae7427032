#include "keyvalue/teragen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace cts {

namespace {

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

}  // namespace

Record TeraGen::record(std::uint64_t index) const {
  Record rec{};

  // --- Key ---
  const std::uint64_t h = RecordHash(seed_, index, /*lane=*/0);
  std::uint64_t prefix = 0;
  switch (dist_) {
    case KeyDistribution::kUniform:
      prefix = h;
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
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      const double skewed = u * u * u * u;
      prefix = static_cast<std::uint64_t>(
          skewed * 18446744073709549568.0);  // ~2^64, rounds below max
      break;
    }
    case KeyDistribution::kFewDistinct:
      prefix = (h & 0xffu) << 56;
      break;
    case KeyDistribution::kBalanced:
      // Weyl sequence with the golden-ratio multiplier (odd, hence a
      // bijection on 2^64): consecutive indices land maximally far
      // apart, so any contiguous range of n indices puts n/K ± O(1)
      // keys into each of K equal key ranges.
      prefix = index * 0x9e3779b97f4a7c15ULL;
      break;
  }
  // Low 2 key bytes disambiguate records sharing a prefix.
  const auto suffix = static_cast<std::uint16_t>(RecordHash(seed_, index, 1));
  rec.key = MakeKey(prefix, suffix);

  // --- Value ---
  // Hadoop TeraGen writes the row id followed by printable filler; we
  // keep that shape: 8 bytes of big-endian row id, then pseudo-random
  // printable ASCII so values differ record-to-record.
  for (int i = 0; i < 8; ++i) {
    rec.value[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(index >> (8 * (7 - i)));
  }
  // Filler block b (value bytes 8b..8b+7, the last one cut to 2 bytes)
  // is 'A' plus the low 8 nibbles of lane 2 + b, low nibble first.
  for (std::size_t off = 8; off < kValueBytes; off += 8) {
    const std::uint64_t block =
        SpreadNibbles(RecordHash(seed_, index, /*lane=*/2 + off / 8)) +
        0x4141414141414141ULL;
    std::uint8_t bytes[8];
    StoreLe64(bytes, block);
    std::memcpy(rec.value.data() + off, bytes,
                std::min<std::size_t>(8, kValueBytes - off));
  }
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
