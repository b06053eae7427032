// TeraValidate — the standard companion of TeraGen/TeraSort in the
// Hadoop benchmark suite, reimplemented for this library.
//
// Validates a distributed sort output without materializing the whole
// dataset in one place: each partition is checked locally (sorted,
// within its key range), partition boundaries are checked pairwise,
// and a global XOR-checksum over records proves the output is a
// permutation of the input (content-complete, nothing lost, nothing
// duplicated, nothing altered) when compared with the checksum of the
// generated input stream.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "keyvalue/record.h"
#include "keyvalue/teragen.h"

namespace cts {

// Order- and split-insensitive fingerprint of a record multiset:
// XOR/sum of a keyed hash per record. Collision-resistant enough for
// validation (128 bits of accumulated structure).
struct RecordChecksum {
  std::uint64_t xor_hash = 0;
  std::uint64_t sum_hash = 0;
  std::uint64_t count = 0;

  void add(const Record& record);
  void merge(const RecordChecksum& other);

  friend bool operator==(const RecordChecksum&,
                         const RecordChecksum&) = default;
};

// Checksum of TeraGen's records [0, count) — the reference the sorted
// output must reproduce. Contiguous index ranges are generated and
// hashed on up to std::thread::hardware_concurrency() threads; the
// merge is exact, so the result does not depend on the thread count.
RecordChecksum ChecksumOfInput(const TeraGen& gen, std::uint64_t count);

// Checksum of an arbitrary record span.
RecordChecksum ChecksumOfRecords(std::span<const Record> records);

// Validation verdict with a human-readable reason on failure.
struct ValidationReport {
  bool valid = true;
  std::string error;  // empty when valid

  static ValidationReport Ok() { return {}; }
  static ValidationReport Fail(std::string reason) {
    return {false, std::move(reason)};
  }
};

// Validates partitioned sort output:
//  * every partition is internally sorted,
//  * partitions are globally ordered (max key of partition k is <= min
//    key of partition k+1, skipping empty partitions),
//  * the record count and the multiset checksum match `expected`.
// The checks run on up to std::thread::hardware_concurrency() threads,
// each over a contiguous run of records, and give the serial verdict:
// an order failure names the lowest (partition, index) violation, with
// a partition's boundary check (its index 0) before the checks inside
// it; order is checked before the count, and the count before the
// checksum.
ValidationReport ValidatePartitions(
    std::span<const std::vector<Record>> partitions,
    const RecordChecksum& expected);

}  // namespace cts
