#include "keyvalue/recordio.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace cts {

std::size_t PackRecords(std::span<const Record> records, Buffer& out) {
  const std::size_t before = out.size();
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

void SortRecords(std::span<Record> records) {
  struct Tag {
    std::uint64_t prefix;
    std::size_t index;
  };
  std::vector<Tag> tags(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    tags[i] = {KeyPrefix(records[i].key), i};
  }
  std::sort(tags.begin(), tags.end(), [&](const Tag& a, const Tag& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return RecordLess(records[a.index], records[b.index]);
  });
  // Position k takes the record now at tags[k].index. Walk each cycle
  // once, marking placed positions with tags[k].index = k.
  for (std::size_t start = 0; start < tags.size(); ++start) {
    if (tags[start].index == start) continue;
    const Record held = records[start];
    std::size_t k = start;
    while (tags[k].index != start) {
      const std::size_t from = tags[k].index;
      records[k] = records[from];
      tags[k].index = k;
      k = from;
    }
    records[k] = held;
    tags[k].index = k;
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
