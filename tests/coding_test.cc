// Tests for src/coding: placement, segmentation and the XOR codec,
// including the paper's worked examples (Figs. 4-7).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "coding/codec.h"
#include "coding/placement.h"
#include "coding/segments.h"
#include "common/check.h"
#include "common/random.h"

namespace cts {
namespace {

TEST(Placement, PaperFig4Example) {
  // K=4, r=2 (paper Fig. 4): 6 files; F{2,3} on nodes 2 and 3 (1-based)
  // = mask {1,2} here; each node stores C(3,1)=3 files.
  const Placement p = Placement::Create(4, 2);
  EXPECT_EQ(p.num_files(), 6);
  EXPECT_EQ(p.files_per_node(), 3);
  const FileId f23 = p.file_of(NodesToMask({1, 2}));
  EXPECT_EQ(p.file_nodes(f23), NodesToMask({1, 2}));
  // Node 2 (1-based) = node 1 here has files {0,1},{1,2},{1,3}.
  std::set<NodeMask> node1_files;
  for (const FileId f : p.files_on_node(1)) {
    node1_files.insert(p.file_nodes(f));
  }
  EXPECT_EQ(node1_files,
            (std::set<NodeMask>{NodesToMask({0, 1}), NodesToMask({1, 2}),
                                NodesToMask({1, 3})}));
}

TEST(Placement, CountsMatchBinomials) {
  for (int K : {4, 6, 10}) {
    for (int r = 1; r <= K; ++r) {
      const Placement p = Placement::Create(K, r);
      EXPECT_EQ(p.num_files(), static_cast<int>(Binomial(K, r)));
      EXPECT_EQ(p.files_per_node(), static_cast<int>(Binomial(K - 1, r - 1)));
      for (NodeId n = 0; n < K; ++n) {
        EXPECT_EQ(p.files_on_node(n).size(), Binomial(K - 1, r - 1));
      }
      if (r < K) {
        EXPECT_EQ(p.multicast_groups().size(), Binomial(K, r + 1));
      } else {
        EXPECT_TRUE(p.multicast_groups().empty());
      }
    }
  }
}

TEST(Placement, EveryFileOnExactlyRNodes) {
  const Placement p = Placement::Create(6, 3);
  for (FileId f = 0; f < p.num_files(); ++f) {
    EXPECT_EQ(Popcount(p.file_nodes(f)), 3);
  }
}

TEST(Placement, FileOfIsInverseOfFileNodes) {
  const Placement p = Placement::Create(7, 2);
  for (FileId f = 0; f < p.num_files(); ++f) {
    EXPECT_EQ(p.file_of(p.file_nodes(f)), f);
  }
  EXPECT_THROW(p.file_of(NodesToMask({0, 1, 2})), CheckError);  // wrong size
}

TEST(Placement, GroupsOfNodeCount) {
  const Placement p = Placement::Create(8, 3);
  for (NodeId n = 0; n < 8; ++n) {
    const auto groups = p.groups_of_node(n);
    EXPECT_EQ(groups.size(), Binomial(7, 3));
    for (const NodeMask g : groups) {
      EXPECT_TRUE(Contains(g, n));
      EXPECT_EQ(Popcount(g), 4);
    }
  }
}

TEST(Placement, SplitRecordsIsEvenAndExact) {
  const Placement p = Placement::Create(5, 2);  // 10 files
  const auto ranges = p.SplitRecords(1003);
  std::uint64_t total = 0;
  std::uint64_t next_offset = 0;
  for (std::size_t f = 0; f < ranges.count.size(); ++f) {
    EXPECT_EQ(ranges.offset[f], next_offset);
    EXPECT_GE(ranges.count[f], 100u);
    EXPECT_LE(ranges.count[f], 101u);
    next_offset += ranges.count[f];
    total += ranges.count[f];
  }
  EXPECT_EQ(total, 1003u);
}

TEST(Placement, SplitRecordsFewerRecordsThanFiles) {
  const Placement p = Placement::Create(6, 3);  // 20 files
  const auto ranges = p.SplitRecords(7);
  const std::uint64_t total =
      std::accumulate(ranges.count.begin(), ranges.count.end(),
                      std::uint64_t{0});
  EXPECT_EQ(total, 7u);
}

TEST(Placement, RejectsInvalidParameters) {
  EXPECT_THROW(Placement::Create(4, 0), CheckError);
  EXPECT_THROW(Placement::Create(4, 5), CheckError);
  EXPECT_THROW(Placement::Create(0, 1), CheckError);
}

TEST(Segments, EvenSplitCoversValue) {
  for (std::uint64_t len : {0ULL, 1ULL, 7ULL, 100ULL, 101ULL, 12345ULL}) {
    for (int r : {1, 2, 3, 5, 8}) {
      std::uint64_t covered = 0;
      std::uint64_t expected_offset = 0;
      for (int pos = 0; pos < r; ++pos) {
        const SegmentSpan s = SegmentOf(len, r, pos);
        EXPECT_EQ(s.offset, expected_offset);
        expected_offset += s.length;
        covered += s.length;
      }
      EXPECT_EQ(covered, len) << "len=" << len << " r=" << r;
    }
  }
}

TEST(Segments, NearEqualLengths) {
  const int r = 3;
  for (std::uint64_t len : {9ULL, 10ULL, 11ULL}) {
    std::uint64_t min_len = len, max_len = 0;
    for (int pos = 0; pos < r; ++pos) {
      const SegmentSpan s = SegmentOf(len, r, pos);
      min_len = std::min(min_len, s.length);
      max_len = std::max(max_len, s.length);
    }
    EXPECT_LE(max_len - min_len, 1u);
  }
}

TEST(Segments, PositionIsAscendingMemberIndex) {
  const NodeMask mask = NodesToMask({1, 4, 6});
  EXPECT_EQ(SegmentPosition(mask, 1), 0);
  EXPECT_EQ(SegmentPosition(mask, 4), 1);
  EXPECT_EQ(SegmentPosition(mask, 6), 2);
  EXPECT_THROW(SegmentPosition(mask, 2), CheckError);
}

// ---- Codec fixtures ----

// Deterministic fake intermediate values: IV for (target, file) has a
// size depending on both, filled from a keyed RNG stream.
class FakeIvStore {
 public:
  FakeIvStore(int K, int r, std::uint64_t seed = 99, bool ragged = true)
      : seed_(seed) {
    const Placement p = Placement::Create(K, r);
    for (FileId f = 0; f < p.num_files(); ++f) {
      const NodeMask mask = p.file_nodes(f);
      for (NodeId t = 0; t < K; ++t) {
        if (Contains(mask, t)) continue;  // only kept IVs matter here
        std::uint64_t s = Mix64(seed_ ^ (static_cast<std::uint64_t>(t) << 32 ^
                                         static_cast<std::uint64_t>(f)));
        // Ragged sizes exercise the zero-padding path.
        const std::size_t size =
            ragged ? 40 + (s % 50) : 64;
        std::vector<std::uint8_t> bytes(size);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(SplitMix64(s));
        store_[{t, mask}] = std::move(bytes);
      }
    }
  }

  IvAccess access() const {
    return [this](NodeId t, NodeMask file) -> std::span<const std::uint8_t> {
      const auto it = store_.find({t, file});
      CTS_CHECK(it != store_.end());
      return it->second;
    };
  }

  const std::vector<std::uint8_t>& value(NodeId t, NodeMask file) const {
    return store_.at({t, file});
  }

 private:
  std::uint64_t seed_;
  std::map<std::pair<NodeId, NodeMask>, std::vector<std::uint8_t>> store_;
};

// Node k's wanted value in `group`, decoded by DecodeGroup from the
// other members' packets read back from the wire.
std::vector<std::uint8_t> DecodeFromWire(
    NodeMask group, NodeId k, const std::map<NodeId, CodedPacket>& packets,
    const IvAccess& iv, CodecStats* stats = nullptr) {
  std::vector<Buffer> wires;
  for (const NodeId u : MaskToNodes(WithoutNode(group, k))) {
    wires.emplace_back();
    packets.at(u).serialize(wires.back());
  }
  std::vector<CodedPacketView> views;
  for (Buffer& wire : wires) views.push_back(CodedPacketView::Parse(wire));
  std::vector<std::uint8_t> value;
  DecodeGroup(
      group, k, views, iv,
      [&](std::uint64_t len) {
        value.resize(len);
        return ValueBytes{value, {}};
      },
      stats);
  return value;
}

// End-to-end codec property for one group: every member encodes, every
// member decodes the other members' packets, and the decoded value
// equals the wanted intermediate value byte-for-byte, also when it is
// split over two buffers at any head size.
void CheckGroupRoundTrip(NodeMask group, const FakeIvStore& store) {
  const auto members = MaskToNodes(group);
  const int r = static_cast<int>(members.size()) - 1;
  std::map<NodeId, CodedPacket> packets;
  CodecStats stats;
  for (const NodeId u : members) {
    packets[u] = EncodePacket(group, u, store.access(), &stats);
  }
  EXPECT_EQ(stats.packets_encoded, members.size());
  std::uint64_t wanted_bytes = 0;
  for (const NodeId k : members) {
    const auto& wanted = store.value(k, WithoutNode(group, k));
    wanted_bytes += wanted.size();
    EXPECT_EQ(DecodeFromWire(group, k, packets, store.access(), &stats),
              wanted)
        << "node " << k << " in group " << group;

    std::vector<Buffer> wires;
    for (const NodeId u : members) {
      if (u == k) continue;
      wires.emplace_back();
      packets.at(u).serialize(wires.back());
    }
    for (std::size_t head = 0; head <= wanted.size(); ++head) {
      std::vector<CodedPacketView> views;
      for (Buffer& wire : wires) {
        wire.rewind();
        views.push_back(CodedPacketView::Parse(wire));
      }
      std::vector<std::uint8_t> value;
      const std::uint64_t length = DecodeGroup(
          group, k, views, store.access(), [&](std::uint64_t len) {
            value.resize(len);
            const std::size_t h = std::min<std::size_t>(head, len);
            return ValueBytes{std::span(value).first(h),
                              std::span(value).subspan(h)};
          });
      EXPECT_EQ(length, wanted.size());
      EXPECT_EQ(value, wanted) << "node " << k << " in group " << group
                               << " head " << head;
    }
  }
  // One decoded packet per (receiver, sender) pair; the segments of
  // each receiver's value add up to the value.
  EXPECT_EQ(stats.packets_decoded, members.size() * static_cast<unsigned>(r));
  EXPECT_EQ(stats.decoded_bytes, wanted_bytes);
}

class CodecRoundTrip : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CodecRoundTrip, AllGroupsAllMembers) {
  const auto [K, r] = GetParam();
  const FakeIvStore store(K, r);
  const Placement p = Placement::Create(K, r);
  for (const NodeMask g : p.multicast_groups()) {
    CheckGroupRoundTrip(g, store);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecRoundTrip,
    ::testing::Values(std::pair{3, 2}, std::pair{4, 2}, std::pair{4, 3},
                      std::pair{5, 2}, std::pair{5, 4}, std::pair{6, 3},
                      std::pair{6, 5}, std::pair{7, 2}, std::pair{8, 5},
                      std::pair{6, 1}),
    [](const auto& info) {
      return "K" + std::to_string(info.param.first) + "r" +
             std::to_string(info.param.second);
    });

TEST(Codec, PaperFig6Fig7Example) {
  // Paper Figs. 6-7: group M = {1,2,3} (0-based {0,1,2}), r = 2. Each
  // node holds the IVs of the two files it shares with another member
  // and decodes the one it misses.
  const NodeMask group = NodesToMask({0, 1, 2});
  const FakeIvStore store(3, 2);
  CheckGroupRoundTrip(group, store);
}

TEST(Codec, UniformSizesNeedNoPadding) {
  const FakeIvStore store(5, 2, /*seed=*/7, /*ragged=*/false);
  const Placement p = Placement::Create(5, 2);
  for (const NodeMask g : p.multicast_groups()) {
    CheckGroupRoundTrip(g, store);
  }
}

TEST(Codec, PacketPayloadIsMaxSegmentLength) {
  const NodeMask group = NodesToMask({0, 1, 2});
  const FakeIvStore store(3, 2);
  const CodedPacket packet = EncodePacket(group, 0, store.access());
  // Constituents: segment of IV(1, {0,2}) and segment of IV(2, {0,1}),
  // both at node 0's position.
  std::size_t max_len = 0;
  for (const auto& [t, file] :
       std::vector<std::pair<NodeId, NodeMask>>{{1, NodesToMask({0, 2})},
                                                {2, NodesToMask({0, 1})}}) {
    const auto& value = store.value(t, file);
    const SegmentSpan s =
        SegmentOf(value.size(), 2, SegmentPosition(file, 0));
    max_len = std::max(max_len, static_cast<std::size_t>(s.length));
  }
  EXPECT_EQ(packet.payload.size(), max_len);
  EXPECT_EQ(packet.iv_lengths.size(), 2u);
}

TEST(Codec, WireFormatRoundTrip) {
  const FakeIvStore store(4, 2);
  const NodeMask group = NodesToMask({0, 1, 3});
  const CodedPacket packet = EncodePacket(group, 1, store.access());
  Buffer wire;
  packet.serialize(wire);
  EXPECT_EQ(wire.size(), packet.wire_size());
  const CodedPacketView view = CodedPacketView::Parse(wire);
  EXPECT_EQ(wire.remaining(), 0u);
  EXPECT_EQ(view.iv_lengths, packet.iv_lengths);
  EXPECT_EQ(std::vector<std::uint8_t>(view.payload.begin(),
                                      view.payload.end()),
            packet.payload);
}

TEST(Codec, StatsCountXorWork) {
  const FakeIvStore store(3, 2);
  const NodeMask group = NodesToMask({0, 1, 2});
  CodecStats stats;
  std::map<NodeId, CodedPacket> packets;
  for (const NodeId u : MaskToNodes(group)) {
    packets[u] = EncodePacket(group, u, store.access(), &stats);
  }
  EXPECT_EQ(stats.packets_encoded, 3u);
  EXPECT_GT(stats.encode_xor_bytes, 0u);
  const auto value =
      DecodeFromWire(group, 1, packets, store.access(), &stats);
  EXPECT_EQ(stats.packets_decoded, 2u);
  EXPECT_EQ(stats.decoded_bytes, value.size());
  EXPECT_EQ(value.size(), store.value(1, NodesToMask({0, 2})).size());
  EXPECT_GT(stats.decode_xor_bytes, 0u);
}

TEST(Codec, EncodeRejectsNonMember) {
  const FakeIvStore store(4, 2);
  EXPECT_THROW(
      EncodePacket(NodesToMask({0, 1, 2}), /*self=*/3, store.access()),
      CheckError);
}

TEST(Codec, DecodeRejectsNonMember) {
  const FakeIvStore store(4, 2);
  const NodeMask group = NodesToMask({0, 1, 2});
  std::map<NodeId, CodedPacket> packets;
  for (const NodeId u : MaskToNodes(group)) {
    packets[u] = EncodePacket(group, u, store.access());
  }
  packets[3] = packets[0];
  EXPECT_THROW(DecodeFromWire(group, /*k=*/3, packets, store.access()),
               CheckError);
}

TEST(Codec, DecodeGroupChecksHeadersAndSideInformation) {
  const NodeMask group = NodesToMask({0, 1, 2});
  const FakeIvStore good(3, 2, /*seed=*/1);
  const FakeIvStore bad(3, 2, /*seed=*/2);  // different sizes/content
  std::vector<Buffer> wires(2);
  EncodePacket(group, 1, good.access()).serialize(wires[0]);
  EncodePacket(group, 2, good.access()).serialize(wires[1]);
  std::vector<CodedPacketView> views;
  for (Buffer& wire : wires) views.push_back(CodedPacketView::Parse(wire));
  std::vector<std::uint8_t> value;
  const auto place = [&](std::uint64_t len) {
    value.resize(len);
    return ValueBytes{value, {}};
  };
  EXPECT_THROW(DecodeGroup(group, 0, views, bad.access(), place),
               CheckError);
  // The two headers must agree on the wanted value's length.
  views[1].iv_lengths[0] += 1;
  EXPECT_THROW(DecodeGroup(group, 0, views, good.access(), place),
               CheckError);
  views[1].iv_lengths[0] -= 1;
  EXPECT_NO_THROW(DecodeGroup(group, 0, views, good.access(), place));
  EXPECT_EQ(value, good.value(0, WithoutNode(group, 0)));
  // One packet per other member.
  EXPECT_THROW(DecodeGroup(group, 0, std::span(views).first(1),
                           good.access(), place),
               CheckError);
}

TEST(Codec, DecodeGroupChecksPayloadsBeforePlacing) {
  const NodeMask group = NodesToMask({0, 1, 2});
  const FakeIvStore store(3, 2);
  std::vector<Buffer> wires(2);
  EncodePacket(group, 1, store.access()).serialize(wires[0]);
  EncodePacket(group, 2, store.access()).serialize(wires[1]);
  std::vector<CodedPacketView> views;
  for (Buffer& wire : wires) views.push_back(CodedPacketView::Parse(wire));
  // Headers that agree on a value far longer than the payloads carry:
  // refused before `place` could size anything to it. Node 0 is the
  // first target of both senders.
  std::vector<CodedPacketView> oversized = views;
  for (CodedPacketView& v : oversized) {
    v.iv_lengths[0] = std::uint64_t{1} << 40;
  }
  bool placed = false;
  EXPECT_THROW(DecodeGroup(group, 0, oversized, store.access(),
                           [&](std::uint64_t) {
                             placed = true;
                             return ValueBytes{};
                           }),
               CheckError);
  EXPECT_FALSE(placed);

  std::vector<std::uint8_t> value;
  const auto place = [&](std::uint64_t len) {
    value.resize(len);
    return ValueBytes{value, {}};
  };

  // Zero padding past the wanted segment decodes; a nonzero residue
  // byte there is caught.
  const std::span<const std::uint8_t> payload = views[0].payload;
  std::vector<std::uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  std::vector<CodedPacketView> residue = views;
  residue[0].payload = padded;
  EXPECT_NO_THROW(DecodeGroup(group, 0, residue, store.access(), place));
  EXPECT_EQ(value, store.value(0, WithoutNode(group, 0)));
  padded.back() = 0x5a;
  EXPECT_THROW(DecodeGroup(group, 0, residue, store.access(), place),
               CheckError);
}

TEST(Codec, EmptyIvsProduceEmptyPackets) {
  // All-empty intermediate values (e.g. a partition with no records in
  // some file) must round-trip as zero-length segments.
  const int K = 4, r = 2;
  const Placement p = Placement::Create(K, r);
  std::map<std::pair<NodeId, NodeMask>, std::vector<std::uint8_t>> store;
  for (FileId f = 0; f < p.num_files(); ++f) {
    for (NodeId t = 0; t < K; ++t) {
      if (!Contains(p.file_nodes(f), t)) {
        store[{t, p.file_nodes(f)}] = {};
      }
    }
  }
  const IvAccess access =
      [&](NodeId t, NodeMask file) -> std::span<const std::uint8_t> {
    return store.at({t, file});
  };
  for (const NodeMask g : p.multicast_groups()) {
    std::map<NodeId, CodedPacket> packets;
    for (const NodeId u : MaskToNodes(g)) {
      packets[u] = EncodePacket(g, u, access);
      EXPECT_TRUE(packets[u].payload.empty());
    }
    for (const NodeId k : MaskToNodes(g)) {
      EXPECT_TRUE(DecodeFromWire(g, k, packets, access).empty());
    }
  }
}

}  // namespace
}  // namespace cts
