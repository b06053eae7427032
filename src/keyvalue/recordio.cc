#include "keyvalue/recordio.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/check.h"

namespace cts {

std::size_t PackRecords(std::span<const Record> records, Buffer& out) {
  const std::size_t before = out.size();
  out.reserve(before + PackedSize(records.size()));
  out.write_u64(records.size());
  if (!records.empty()) {
    out.write_bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(records.data()),
        records.size() * kRecordBytes));
  }
  return out.size() - before;
}

std::vector<Record> UnpackRecords(Buffer& in) {
  std::vector<Record> out;
  UnpackRecordsInto(in, out);
  return out;
}

void UnpackRecordsInto(Buffer& in, std::vector<Record>& out) {
  const std::uint64_t n = in.read_u64();
  CTS_CHECK_MSG(n * kRecordBytes <= in.remaining(),
                "truncated record list: " << n << " records but only "
                                          << in.remaining() << " bytes");
  const std::size_t old = out.size();
  out.resize(old + n);
  if (n > 0) {
    const auto view = in.read_view(n * kRecordBytes);
    std::memcpy(out.data() + old, view.data(), view.size());
  }
}

InPlaceUnpack::InPlaceUnpack(std::vector<Record>& out,
                             std::uint64_t packed_bytes)
    : out_(out), old_size_(out.size()) {
  CTS_CHECK_MSG(packed_bytes >= sizeof(std::uint64_t),
                "record list of " << packed_bytes
                                  << " bytes has no count header");
  record_bytes_ = packed_bytes - sizeof(std::uint64_t);
  out_.resize(old_size_ + (record_bytes_ + kRecordBytes - 1) / kRecordBytes);
}

std::span<std::uint8_t> InPlaceUnpack::record_bytes() {
  return {reinterpret_cast<std::uint8_t*>(out_.data() + old_size_),
          static_cast<std::size_t>(record_bytes_)};
}

void InPlaceUnpack::Finish() {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < count_.size(); ++i) {
    n |= static_cast<std::uint64_t>(count_[i]) << (8 * i);
  }
  CTS_CHECK_MSG(n <= record_bytes_ / kRecordBytes,
                "truncated record list: " << n << " records but only "
                                          << record_bytes_ << " bytes");
  out_.resize(old_size_ + n);
}

void SortRecords(std::span<Record> records) {
  struct Tag {
    std::uint64_t prefix;
    std::size_t index;
  };
  const std::size_t n = records.size();
  std::vector<Tag> tags(n);
  std::uint64_t all_or = 0;
  std::uint64_t all_and = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t prefix = KeyPrefix(records[i].key);
    tags[i] = {prefix, i};
    all_or |= prefix;
    all_and &= prefix;
  }
  // Bits above the highest differing bit are shared by every prefix;
  // the bucket is the next 12 bits (fewer when fewer differ), so bucket
  // order is prefix order.
  constexpr int kBucketBits = 12;
  const int varying = 64 - std::countl_zero(all_or ^ all_and);
  const int shift = std::max(varying - kBucketBits, 0);
  const std::uint64_t mask = (std::uint64_t{1} << kBucketBits) - 1;
  std::vector<std::size_t> starts((std::size_t{1} << kBucketBits) + 1, 0);
  for (const Tag& t : tags) ++starts[((t.prefix >> shift) & mask) + 1];
  for (std::size_t b = 1; b < starts.size(); ++b) starts[b] += starts[b - 1];
  std::vector<Tag> sorted(n);
  {
    std::vector<std::size_t> next(starts.begin(), starts.end() - 1);
    for (const Tag& t : tags) sorted[next[(t.prefix >> shift) & mask]++] = t;
  }
  tags = std::vector<Tag>();
  const auto less = [&](const Tag& a, const Tag& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return RecordLess(records[a.index], records[b.index]);
  };
  for (std::size_t b = 0; b + 1 < starts.size(); ++b) {
    if (starts[b + 1] - starts[b] > 1) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(starts[b]),
                sorted.begin() + static_cast<std::ptrdiff_t>(starts[b + 1]),
                less);
    }
  }
  // Position k takes the record now at sorted[k].index. Walk each cycle
  // once, marking placed positions with sorted[k].index = k.
  for (std::size_t start = 0; start < n; ++start) {
    if (sorted[start].index == start) continue;
    const Record held = records[start];
    std::size_t k = start;
    while (sorted[k].index != start) {
      const std::size_t from = sorted[k].index;
      records[k] = records[from];
      sorted[k].index = k;
      k = from;
    }
    records[k] = held;
    sorted[k].index = k;
  }
}

bool IsSorted(std::span<const Record> records) {
  return std::is_sorted(records.begin(), records.end(), RecordLess);
}

bool IsSortedPermutationOf(std::span<const Record> input,
                           std::span<const Record> sorted) {
  if (input.size() != sorted.size()) return false;
  if (!IsSorted(sorted)) return false;
  std::vector<Record> expected(input.begin(), input.end());
  SortRecords(expected);
  return std::equal(expected.begin(), expected.end(), sorted.begin(),
                    sorted.end());
}

}  // namespace cts
