#include "driver/partition_util.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "keyvalue/teragen.h"

namespace cts {

SampledPartitioner BuildDistributedSampledPartitioner(
    simmpi::Comm& comm, const TeraGen& gen,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& local_ranges,
    std::uint64_t samples) {
  // Sample evenly across this node's local records.
  std::uint64_t local_records = 0;
  for (const auto& [offset, count] : local_ranges) local_records += count;
  Buffer mine;
  if (local_records > 0) {
    const std::uint64_t n = std::min(samples, local_records);
    const std::uint64_t stride = std::max<std::uint64_t>(
        local_records / std::max<std::uint64_t>(n, 1), 1);
    std::uint64_t picked = 0;
    std::uint64_t position = 0;  // index within the local concatenation
    for (const auto& [offset, count] : local_ranges) {
      for (std::uint64_t i = 0; i < count && picked < n; ++i, ++position) {
        if (position % stride == 0) {
          const Key key = gen.record(offset + i).key;
          mine.write_bytes(std::span<const std::uint8_t>(key));
          ++picked;
        }
      }
    }
  }
  // Combine all nodes' samples; every node sees the same multiset in
  // the same (rank) order, hence derives identical splitters.
  std::vector<Key> combined;
  for (Buffer& b : comm.allgather(mine)) {
    while (b.remaining() >= kKeyBytes) {
      Key key{};
      b.read_bytes(std::span<std::uint8_t>(key));
      combined.push_back(key);
    }
  }
  CTS_CHECK_MSG(!combined.empty() || comm.size() == 1,
                "distributed sample is empty");
  return SampledPartitioner::FromSample(combined, comm.size());
}

std::size_t PartitionShare(std::uint64_t records, int partitions) {
  CTS_CHECK_GE(partitions, 1);
  const double share =
      static_cast<double>(records) / static_cast<double>(partitions);
  return static_cast<std::size_t>(share + 4 * std::sqrt(share));
}

void MapRecords(const TeraGen& gen, const RecordRange& range,
                const Partitioner& partitioner,
                std::span<std::vector<Record>* const> buckets) {
  CTS_CHECK_EQ(buckets.size(),
               static_cast<std::size_t>(partitioner.num_partitions()));
  // Below 256 records a bucket's 4σ slack exceeds a quarter of its
  // share, more than vector growth wastes on average; such buckets
  // just grow.
  constexpr std::uint64_t kMinReservedShare = 256;
  const int parts = partitioner.num_partitions();
  const std::size_t share = PartitionShare(range.count, parts);
  for (std::vector<Record>* bucket : buckets) {
    if (bucket == nullptr || range.count / parts < kMinReservedShare) {
      continue;
    }
    if (bucket->capacity() - bucket->size() < share) {
      bucket->reserve(std::max(bucket->size() + share, 2 * bucket->capacity()));
    }
  }
  const std::uint64_t end = range.offset + range.count;
  for (std::uint64_t i = range.offset; i < end; ++i) {
    const Record rec = gen.record(i);
    std::vector<Record>* bucket =
        buckets[static_cast<std::size_t>(partitioner.partition(rec.key))];
    if (bucket != nullptr) bucket->push_back(rec);
  }
}

std::unique_ptr<Partitioner> MakePartitioner(const SortConfig& config) {
  CTS_CHECK_GE(config.num_nodes, 1);
  switch (config.partitioner) {
    case PartitionerKind::kRange:
      return std::make_unique<RangePartitioner>(config.num_nodes);
    case PartitionerKind::kDistributedSampled:
      CTS_CHECK_MSG(false,
                    "kDistributedSampled requires a communicator — node "
                    "programs build it via "
                    "BuildDistributedSampledPartitioner");
      return nullptr;
    case PartitionerKind::kSampled: {
      const TeraGen gen(config.seed, config.distribution);
      const std::uint64_t n =
          std::min(config.sample_size,
                   std::max<std::uint64_t>(config.num_records, 1));
      const std::uint64_t stride =
          std::max<std::uint64_t>(config.num_records / std::max<std::uint64_t>(n, 1), 1);
      std::vector<Key> sample;
      sample.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t index =
            std::min(i * stride, config.num_records > 0
                                     ? config.num_records - 1
                                     : 0);
        sample.push_back(gen.record(index).key);
      }
      return std::make_unique<SampledPartitioner>(
          SampledPartitioner::FromSample(sample, config.num_nodes));
    }
  }
  CTS_CHECK_MSG(false, "unknown partitioner kind");
  return nullptr;
}

}  // namespace cts
