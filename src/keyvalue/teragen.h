// Deterministic TeraGen-equivalent input generator.
//
// The paper sorts 12 GB of data "generated from TeraGen in the standard
// Hadoop package": 120 M records of 10-byte key + 90-byte value with
// uniform random keys. We do not have Hadoop, so this module generates
// an equivalent workload: record i is a pure function of (seed, i), so
// any sub-range can be generated independently (which is how the
// coordinator materializes per-file inputs without building the whole
// dataset), and the same seed always produces the same data.
//
// Additional distributions exercise the partitioners and the sort under
// skew (used by tests and ablation benches, not by the paper's tables).
//
// Record layout. With lane hash h(l) = Mix64(seed ^ Mix64(index *
// 0x9e3779b97f4a7c15 + l)):
//  * key bytes 0..7: the big-endian prefix the distribution derives
//    (kUniform and kSkewed from h(0), kFewDistinct from its low byte);
//  * key bytes 8..9: the low 16 bits of h(1), big-endian;
//  * value bytes 0..7: the big-endian row id `index`;
//  * value bytes 8b..8b+7 for b = 1..10, and bytes 88..89 for b = 11:
//    byte 8b+j is 'A' + nibble j of h(2 + b), low nibble first.
// Lane 2 is unused. record() computes all 13 lane hashes before it
// stores a byte, so their independent multiply chains overlap; the
// layout above is unchanged by that. The GoldenRecordBytes test
// (keyvalue_test) and LiveGolden.TeraGenEdgeIndicesArePinned
// (live_golden_test, indices 0, 2^63 and 2^64-1) pin these bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "keyvalue/record.h"

namespace cts {

enum class KeyDistribution {
  kUniform,        // TeraGen-like uniform random keys (paper workload)
  kSorted,         // already-sorted keys (best case for shuffle skew)
  kReverseSorted,  // descending keys
  kSkewed,         // heavy concentration in the low key range (u^4)
  kFewDistinct,    // only 256 distinct keys — stresses ties
  kBalanced,       // low-discrepancy Weyl sequence: every contiguous
                   // index range spreads near-perfectly evenly over the
                   // key domain (used by exact load-identity tests,
                   // where multinomial sampling noise must not pollute
                   // padding/traffic accounting)
};

// Stateless, seekable record generator.
class TeraGen {
 public:
  explicit TeraGen(std::uint64_t seed,
                   KeyDistribution dist = KeyDistribution::kUniform)
      : seed_(seed), dist_(dist) {}

  // The i-th record of the stream. Pure function of (seed, dist, i).
  Record record(std::uint64_t index) const;

  // Records [start, start+count).
  std::vector<Record> generate(std::uint64_t start,
                               std::uint64_t count) const;

  std::uint64_t seed() const { return seed_; }
  KeyDistribution distribution() const { return dist_; }

 private:
  std::uint64_t seed_;
  KeyDistribution dist_;
};

}  // namespace cts
