// Microbenchmarks (google-benchmark) for the primitive operations the
// cost model prices: hashing, serialization, sorting, the XOR codec,
// subset combinatorics, the transport and the flow-DES replay. These
// measure *this* host; the table benches use the EC2-calibrated
// constants instead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <optional>
#include <thread>

#include "coding/codec.h"
#include "coding/placement.h"
#include "combinatorics/subsets.h"
#include "common/random.h"
#include "driver/partition_util.h"
#include "keyvalue/partitioner.h"
#include "keyvalue/recordio.h"
#include "keyvalue/teragen.h"
#include "keyvalue/teravalidate.h"
#include "simmpi/comm.h"
#include "simmpi/world.h"
#include "simscen/netsim.h"

namespace cts {
namespace {

void BM_TeraGen(benchmark::State& state) {
  const TeraGen gen(42);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(0, n));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kRecordBytes));
}
BENCHMARK(BM_TeraGen)->Arg(1000)->Arg(100000);

// The Map stage's record loop (MapRecords): 250k TeraGen records
// straight into K=4 range-partitioned buckets.
void BM_MapPartition(benchmark::State& state) {
  const TeraGen gen(42);
  const RangePartitioner part(4);
  const RecordRange range{0, 250000};
  for (auto _ : state) {
    std::vector<std::vector<Record>> buckets(4);
    std::vector<std::vector<Record>*> dest;
    for (auto& bucket : buckets) dest.push_back(&bucket);
    MapRecords(gen, range, part, dest);
    benchmark::DoNotOptimize(buckets);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(range.count *
                                                    kRecordBytes));
}
BENCHMARK(BM_MapPartition)->Unit(benchmark::kMillisecond);

void BM_HashPartition(benchmark::State& state) {
  const TeraGen gen(42);
  const auto records = gen.generate(0, 100000);
  const RangePartitioner part(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::vector<Record>> buckets(
        static_cast<std::size_t>(part.num_partitions()));
    for (const Record& rec : records) {
      buckets[static_cast<std::size_t>(part.partition(rec.key))].push_back(
          rec);
    }
    benchmark::DoNotOptimize(buckets);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_HashPartition)->Arg(16)->Arg(20);

void BM_PackRecords(benchmark::State& state) {
  const TeraGen gen(42);
  const auto records = gen.generate(0, 100000);
  for (auto _ : state) {
    Buffer out;
    out.reserve(PackedSize(records.size()));
    PackRecords(records, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_PackRecords);

void BM_UnpackRecords(benchmark::State& state) {
  const TeraGen gen(42);
  const auto records = gen.generate(0, 100000);
  Buffer packed;
  PackRecords(records, packed);
  for (auto _ : state) {
    packed.rewind();
    benchmark::DoNotOptimize(UnpackRecords(packed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_UnpackRecords);

void BM_SortRecords(benchmark::State& state) {
  const TeraGen gen(42);
  const auto records = gen.generate(0, 100000);
  for (auto _ : state) {
    auto copy = records;
    SortRecords(copy);
    benchmark::DoNotOptimize(copy);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_SortRecords);

void BM_ChecksumOfInput(benchmark::State& state) {
  const TeraGen gen(42);
  constexpr std::uint64_t kRecords = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChecksumOfInput(gen, kRecords));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords * kRecordBytes));
}
BENCHMARK(BM_ChecksumOfInput)->UseRealTime();

// A valid 4-way range-partitioned output of 100k records.
void BM_ValidatePartitions(benchmark::State& state) {
  const TeraGen gen(42);
  auto records = gen.generate(0, 100000);
  const RecordChecksum expected = ChecksumOfRecords(records);
  const RangePartitioner part(4);
  std::vector<std::vector<Record>> partitions(4);
  for (const Record& rec : records) {
    partitions[static_cast<std::size_t>(part.partition(rec.key))].push_back(
        rec);
  }
  for (auto& p : partitions) SortRecords(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidatePartitions(partitions, expected));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() *
                                                    kRecordBytes));
}
BENCHMARK(BM_ValidatePartitions)->UseRealTime();

// Synthetic IV store sized like one multicast group's constituents.
struct CodecFixture {
  CodecFixture(int r, std::size_t iv_bytes) {
    group = FirstSubset(r + 1);
    Xoshiro256 rng(7);
    for (const NodeId t : MaskToNodes(group)) {
      const NodeMask file = WithoutNode(group, t);
      std::vector<std::uint8_t> bytes(iv_bytes);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      store[{t, file}] = std::move(bytes);
    }
  }
  IvAccess access() const {
    return [this](NodeId t, NodeMask file) -> std::span<const std::uint8_t> {
      return store.at({t, file});
    };
  }
  NodeMask group;
  std::map<std::pair<NodeId, NodeMask>, std::vector<std::uint8_t>> store;
};

void BM_EncodePacket(benchmark::State& state) {
  const int r = static_cast<int>(state.range(0));
  const auto iv_bytes = static_cast<std::size_t>(state.range(1));
  const CodecFixture fx(r, iv_bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodePacket(fx.group, 0, fx.access()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(iv_bytes));
}
BENCHMARK(BM_EncodePacket)->Args({3, 1 << 16})->Args({5, 1 << 16});

// One r=2 group as node 0 of {0, 1, 2} decodes it in CodedTeraSort:
// the two packets parsed in place from their wire buffers, decoded
// straight into the records appended to the reduce pool. Each value
// is a packed list of 80k records (~8 MB).
void BM_DecodeGroup(benchmark::State& state) {
  constexpr std::uint64_t kValueRecords = 80000;
  const NodeMask group = FirstSubset(3);
  const TeraGen gen(42);
  std::map<std::pair<NodeId, NodeMask>, std::vector<std::uint8_t>> store;
  std::uint64_t next = 0;
  for (const NodeId t : MaskToNodes(group)) {
    Buffer value;
    PackRecords(gen.generate(next, kValueRecords), value);
    next += kValueRecords;
    store[{t, WithoutNode(group, t)}] = value.take();
  }
  const IvAccess access = [&](NodeId t,
                              NodeMask file) -> std::span<const std::uint8_t> {
    return store.at({t, file});
  };
  std::vector<Buffer> wires;
  for (const NodeId sender : {1, 2}) {
    Buffer wire;
    EncodePacket(group, sender, access).serialize(wire);
    wires.push_back(std::move(wire));
  }
  std::vector<Record> pool;
  pool.reserve(kValueRecords);
  for (auto _ : state) {
    pool.clear();
    std::vector<CodedPacketView> packets;
    for (Buffer& wire : wires) {
      wire.rewind();
      packets.push_back(CodedPacketView::Parse(wire));
    }
    std::optional<InPlaceUnpack> value;
    DecodeGroup(group, 0, packets, access, [&](std::uint64_t length) {
      value.emplace(pool, length);
      return ValueBytes{value->count_bytes(), value->record_bytes()};
    });
    value->Finish();
    benchmark::DoNotOptimize(pool.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kValueRecords *
                                                    kRecordBytes));
}
BENCHMARK(BM_DecodeGroup)->Unit(benchmark::kMillisecond);

void BM_SubsetEnumeration(benchmark::State& state) {
  const int K = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AllSubsets(K, r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(Binomial(K, r)));
}
BENCHMARK(BM_SubsetEnumeration)->Args({16, 4})->Args({20, 6});

void BM_PlacementCreate(benchmark::State& state) {
  const int K = static_cast<int>(state.range(0));
  const int r = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Placement::Create(K, r));
  }
}
BENCHMARK(BM_PlacementCreate)->Args({16, 3})->Args({20, 5});

void BM_TransportPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  simmpi::World world(2);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    simmpi::Comm comm = simmpi::Comm::World(world, 1);
    while (true) {
      Buffer b = comm.recv(0, 0);
      if (b.size() == 0) break;  // empty payload = shutdown
      comm.send(0, 1, std::move(b));
    }
  });
  {
    simmpi::Comm comm = simmpi::Comm::World(world, 0);
    Buffer payload;
    payload.resize(bytes);
    for (auto _ : state) {
      comm.send(1, 0, std::move(payload));
      payload = comm.recv(1, 1);  // the echo hands the same bytes back
      benchmark::DoNotOptimize(payload.data());
    }
    comm.send(1, 0, Buffer{});
  }
  stop = true;
  echo.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_TransportPingPong)->Arg(100)->Arg(1 << 16);

// The coded r=3 shuffle at K=16 as a transmission log: in each of the
// C(16, 4) = 1,820 multicast groups every member sends one packet to
// the other three, 7,280 fan-out-3 multicasts of 48-64 KB. Replayed
// full duplex on 4:4 racks with oversubscribed core and rack pipes:
// the shape of perfbench's replay-k16 coded cell. At most one flow per
// sender is in flight, so an event loop that scans the whole log
// instead of the in-flight flows runs ~45x (per-sender) to ~200x (log
// order) slower here (4-vCPU Xeon, Release: 0.67 s and 3.4 s against
// 15 ms and 17 ms per replay).
void BM_NetMakespan(benchmark::State& state) {
  const int k = 16;
  Xoshiro256 rng(2017);
  simnet::TransmissionLog log;
  for (const NodeMask group : AllSubsets(k, 4)) {
    for (const NodeId src : MaskToNodes(group)) {
      simnet::Transmission t;
      t.src = src;
      t.dsts = MaskToNodes(WithoutNode(group, src));
      t.bytes = 48 * 1024 + rng.below(16 * 1024 + 1);
      t.seq = log.size();
      log.push_back(std::move(t));
    }
  }
  const auto topo =
      simscen::Topology::RackOversubscribed(k, 4, 2.0, 1.5, 3.0);
  const auto order = state.range(0) != 0 ? simnet::ReplayOrder::kLogOrder
                                         : simnet::ReplayOrder::kPerSender;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simscen::NetMakespan(
        log, topo, simnet::Discipline::kParallelFullDuplex, order));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_NetMakespan)->ArgName("log_order")->Arg(0)->Arg(1);

}  // namespace
}  // namespace cts

BENCHMARK_MAIN();
