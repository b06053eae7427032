#include "keyvalue/teravalidate.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "common/random.h"

namespace cts {

namespace {

// Below this many records per thread, a thread costs more than it saves.
constexpr std::uint64_t kMinRecordsPerThread = 16384;

// Bits 8j..8j+7 of the result are bytes[j].
std::uint64_t LoadLe64(const std::uint8_t* bytes) {
  std::uint64_t v;
  std::memcpy(&v, bytes, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Keyed hash of a full record; both XOR- and sum-accumulating the
// same hash makes pair swaps and duplications visible. The record is
// read as little-endian 8-byte chunks; the last chunk holds the final
// 4 bytes, zero-extended.
std::uint64_t HashRecord(const Record& record) {
  static_assert(kRecordBytes % 8 == 4);
  std::uint64_t h = 0x7265636f72642121ULL;  // "record!!"
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&record);
  std::size_t i = 0;
  for (; i + 8 <= kRecordBytes; i += 8) h = Mix64(h ^ LoadLe64(bytes + i));
  std::uint32_t tail;
  std::memcpy(&tail, bytes + i, sizeof(tail));
  if constexpr (std::endian::native == std::endian::big) {
    tail = __builtin_bswap32(tail);
  }
  return Mix64(h ^ tail);
}

// Splits [0, n) into contiguous chunks, runs fn(begin, end) on each
// in its own thread (chunk 0 on the calling thread) and returns the
// results in chunk order. The chunk count depends only on n and the
// host's hardware concurrency.
template <typename Fn>
auto MapChunks(std::uint64_t n, Fn fn) {
  using Result = decltype(fn(std::uint64_t{0}, std::uint64_t{0}));
  const std::uint64_t hw =
      std::max<std::uint64_t>(1, std::thread::hardware_concurrency());
  const std::uint64_t chunks =
      std::clamp<std::uint64_t>(n / kMinRecordsPerThread, 1, hw);
  std::vector<Result> results(chunks);
  {
    // Joined at the end of this scope, on exception paths too.
    std::vector<std::jthread> threads;
    threads.reserve(chunks - 1);
    for (std::uint64_t c = 1; c < chunks; ++c) {
      threads.emplace_back([&, c] {
        results[c] = fn(n * c / chunks, n * (c + 1) / chunks);
      });
    }
    results[0] = fn(0, n / chunks);
  }
  return results;
}

}  // namespace

void RecordChecksum::add(const Record& record) {
  const std::uint64_t h = HashRecord(record);
  xor_hash ^= h;
  sum_hash += h;
  ++count;
}

void RecordChecksum::merge(const RecordChecksum& other) {
  xor_hash ^= other.xor_hash;
  sum_hash += other.sum_hash;
  count += other.count;
}

RecordChecksum ChecksumOfInput(const TeraGen& gen, std::uint64_t count) {
  RecordChecksum sum;
  for (const RecordChecksum& part :
       MapChunks(count, [&](std::uint64_t begin, std::uint64_t end) {
         RecordChecksum part;
         for (std::uint64_t i = begin; i < end; ++i) part.add(gen.record(i));
         return part;
       })) {
    sum.merge(part);
  }
  return sum;
}

RecordChecksum ChecksumOfRecords(std::span<const Record> records) {
  RecordChecksum sum;
  for (const Record& r : records) sum.add(r);
  return sum;
}

ValidationReport ValidatePartitions(
    std::span<const std::vector<Record>> partitions,
    const RecordChecksum& expected) {
  // The partitions form one sequence: record (p, i) sits at global
  // position starts[p] + i. Every adjacent pair is an order check; the
  // pairs that straddle partitions (skipping empty ones) are the
  // boundary checks.
  std::vector<std::uint64_t> starts(partitions.size() + 1, 0);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    starts[p + 1] = starts[p] + partitions[p].size();
  }
  // The partition holding position g < starts.back(): the last one
  // starting at or before g.
  const auto partition_of = [&](std::uint64_t g) {
    return static_cast<std::size_t>(
        std::upper_bound(starts.begin(), starts.end(), g) - starts.begin() -
        1);
  };

  // Each chunk checksums its records and stops at its first violation.
  // Its first record is checked against the record before the chunk.
  struct Partial {
    RecordChecksum sum;
    std::optional<std::uint64_t> violation;  // global position
  };
  const std::vector<Partial> partials = MapChunks(
      starts.back(), [&](std::uint64_t begin, std::uint64_t end) {
        Partial out;
        if (begin == end) return out;
        std::size_t p = partition_of(begin);
        std::size_t i = begin - starts[p];
        const Record* previous = nullptr;
        if (begin > 0) {
          const std::size_t q = partition_of(begin - 1);
          previous = &partitions[q][begin - 1 - starts[q]];
        }
        for (std::uint64_t g = begin; g < end; ++g, ++i) {
          while (i == partitions[p].size()) {
            ++p;
            i = 0;
          }
          const Record& rec = partitions[p][i];
          if (previous != nullptr && RecordLess(rec, *previous)) {
            out.violation = g;
            return out;
          }
          previous = &rec;
          out.sum.add(rec);
        }
        return out;
      });

  // The first chunk with a violation holds the lowest one.
  RecordChecksum actual;
  for (const Partial& part : partials) {
    if (part.violation.has_value()) {
      const std::size_t p = partition_of(*part.violation);
      std::ostringstream os;
      os << "order violation at partition " << p << " index "
         << *part.violation - starts[p];
      return ValidationReport::Fail(os.str());
    }
    actual.merge(part.sum);
  }
  if (actual.count != expected.count) {
    std::ostringstream os;
    os << "record count mismatch: got " << actual.count << ", expected "
       << expected.count;
    return ValidationReport::Fail(os.str());
  }
  if (!(actual == expected)) {
    return ValidationReport::Fail(
        "checksum mismatch: output is not a permutation of the input");
  }
  return ValidationReport::Ok();
}

}  // namespace cts
