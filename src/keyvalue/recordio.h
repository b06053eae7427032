// Record serialization (the Pack/Unpack stages).
//
// The paper's TeraSort implementation adds explicit Pack/Unpack stages:
// Pack serializes each intermediate value into one contiguous memory
// array so a single TCP flow carries it (one MPI_Send per intermediate
// value), and Unpack deserializes received bytes back into a KV list.
// The wire format is a u64 record count followed by the flat 100-byte
// records.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "keyvalue/record.h"

namespace cts {

// Serializes records into `out` (appending). Returns bytes written.
std::size_t PackRecords(std::span<const Record> records, Buffer& out);

// Deserializes one packed record list from `in`'s cursor.
std::vector<Record> UnpackRecords(Buffer& in);

// Appends one packed record list from `in`'s cursor into `out`
// (avoids an intermediate vector when merging many shuffle payloads).
void UnpackRecordsInto(Buffer& in, std::vector<Record>& out);

// UnpackRecordsInto for a packed record list whose bytes are written in
// place instead of read from a Buffer: CodedTeraSort's Decode writes
// each decoded segment straight into the records. The constructor
// grows `out` by room for a list of `packed_bytes` bytes; the caller
// writes the list's count header to count_bytes() and everything after
// it to record_bytes(). Finish() checks the count against the bytes
// (the same "truncated record list" check) and trims `out` to exactly
// the records UnpackRecordsInto would have appended.
class InPlaceUnpack {
 public:
  InPlaceUnpack(std::vector<Record>& out, std::uint64_t packed_bytes);

  std::span<std::uint8_t> count_bytes() { return count_; }
  std::span<std::uint8_t> record_bytes();
  void Finish();

 private:
  std::vector<Record>& out_;
  std::size_t old_size_;
  std::uint64_t record_bytes_;
  std::array<std::uint8_t, sizeof(std::uint64_t)> count_{};
};

// Size in bytes that PackRecords will produce for n records.
inline std::size_t PackedSize(std::size_t n) {
  return sizeof(std::uint64_t) + n * kRecordBytes;
}

// Sorts records by RecordLess, in place: the Reduce stage of both
// TeraSort and CodedTeraSort. Sorts 16-byte (key prefix, index) tags,
// comparing whole records only when prefixes tie, then moves each
// record once by following the permutation's cycles, so no second
// copy of the records is held. The tags are sorted in two steps: one
// counting pass distributes them over 4096 buckets by the 12 prefix
// bits just below the high bits all prefixes share (a reducer's key
// range shares its top bits), then std::sort orders each bucket. Since
// records equal under RecordLess are byte-identical, the result equals
// std::sort(..., RecordLess) byte for byte.
void SortRecords(std::span<Record> records);

// ---- Validation helpers (used by tests and examples) ----

// True iff records are sorted by RecordLess.
bool IsSorted(std::span<const Record> records);

// True iff `sorted` is a permutation of `input` and sorted. Both
// arguments are copied and canonicalized internally; sizes up to a few
// million records are fine.
bool IsSortedPermutationOf(std::span<const Record> input,
                           std::span<const Record> sorted);

}  // namespace cts
