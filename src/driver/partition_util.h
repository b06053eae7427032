// Partitioner construction shared by both algorithms.
//
// In the paper the coordinator creates the key partitions and ships
// them to the workers. Here the partitioner is a deterministic function
// of the SortConfig, so every node constructs an identical copy with no
// communication (tests additionally verify the serialize/ship path).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "coding/placement.h"
#include "driver/run_result.h"
#include "keyvalue/partitioner.h"
#include "keyvalue/teragen.h"
#include "simmpi/comm.h"

namespace cts {

// Builds the configured partitioner with num_nodes partitions. For
// kSampled, samples `config.sample_size` evenly spaced records of the
// input stream (a deterministic stand-in for the coordinator's random
// input sample). kDistributedSampled cannot be built here — it needs
// the communicator; node programs call
// BuildDistributedSampledPartitioner instead.
std::unique_ptr<Partitioner> MakePartitioner(const SortConfig& config);

// Hadoop-style distributed sampling: every node samples keys from its
// own record ranges, the samples are allgathered, and every node
// derives identical splitters from the combined sample. Collective on
// `comm`. `local_ranges` are (offset, count) record ranges this node
// stores; `samples` is the per-node sample budget.
SampledPartitioner BuildDistributedSampledPartitioner(
    simmpi::Comm& comm, const TeraGen& gen,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& local_ranges,
    std::uint64_t samples);

// Records one of `partitions` partitions of `records` uniform keys
// holds, with room for sampling noise: the even share plus four
// standard deviations of a binomial count. Skewed inputs can exceed
// it; it sizes reservations, never correctness.
std::size_t PartitionShare(std::uint64_t records, int partitions);

// The Map stage's record loop, shared by both node programs: generates
// records [range.offset, range.offset + range.count) of `gen` and
// appends each straight to buckets[partition(key)], dropping records
// whose bucket pointer is null. When the even share is at least 256
// records, every bucket first gets room for its PartitionShare of the
// range (a bucket with that much spare capacity is left as is), so on
// balanced inputs no bucket reallocates; one that outgrows its share,
// or whose share is smaller, grows geometrically. `buckets` has one
// entry per partition.
void MapRecords(const TeraGen& gen, const RecordRange& range,
                const Partitioner& partitioner,
                std::span<std::vector<Record>* const> buckets);

}  // namespace cts
