#include "coding/codec.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace cts {

namespace {

// XOR `src` into `dst[0 .. src.size())`, one 8-byte word at a time.
// dst must be long enough.
void XorInto(std::span<std::uint8_t> dst,
             std::span<const std::uint8_t> src) {
  CTS_CHECK_GE(dst.size(), src.size());
  std::uint8_t* d = dst.data();
  const std::uint8_t* s = src.data();
  const std::size_t n = src.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, d + i, 8);
    std::memcpy(&b, s + i, 8);
    a ^= b;
    std::memcpy(d + i, &a, 8);
  }
  for (; i < n; ++i) d[i] ^= s[i];
}

void CopyInto(std::span<std::uint8_t> dst,
              std::span<const std::uint8_t> src) {
  CTS_CHECK_GE(dst.size(), src.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

// Applies op(dst, src) to the leading src.size() bytes of `out`, head
// first.
template <typename Op>
void ApplyTo(const ValueBytes& out, std::span<const std::uint8_t> src,
             Op op) {
  const std::size_t in_head = std::min(out.head.size(), src.size());
  op(out.head, src.first(in_head));
  if (in_head < src.size()) op(out.body, src.subspan(in_head));
}

// What a receiver wants from one packet: the length of its value
// I^self_{M\{self}} (from the header), the segment the sender's packet
// carries, and the sender's targets (ascending), whose order the
// header's lengths follow.
struct Wanted {
  std::uint64_t value_length = 0;
  SegmentSpan span;
  std::vector<NodeId> targets;
};

// Checks the members and the header's entry count.
Wanted WantedOf(NodeMask group, NodeId self, NodeId sender,
                std::span<const std::uint64_t> iv_lengths) {
  CTS_CHECK_MSG(Contains(group, self) && Contains(group, sender),
                "decode members outside group " << group);
  CTS_CHECK_NE(self, sender);
  const int r = Popcount(group) - 1;
  Wanted wanted;
  wanted.targets = MaskToNodes(WithoutNode(group, sender));
  CTS_CHECK_EQ(iv_lengths.size(), wanted.targets.size());
  // My wanted value is I^self_{M\{self}}; its length travels in the
  // packet header at my position among the sender's targets.
  const auto self_it =
      std::find(wanted.targets.begin(), wanted.targets.end(), self);
  CTS_CHECK(self_it != wanted.targets.end());
  wanted.value_length =
      iv_lengths[static_cast<std::size_t>(self_it - wanted.targets.begin())];
  wanted.span =
      SegmentOf(wanted.value_length, r,
                SegmentPosition(WithoutNode(group, self), sender));
  return wanted;
}

// Algorithm 2 for one packet whose header DecodeGroup has checked:
// writes the wanted segment to `segment` (exactly its length) and
// cancels the r-1 known segments there; the payload past the wanted
// segment is cancelled in a scratch buffer and must be zero padding.
void DecodeInto(NodeMask group, NodeId self, NodeId sender,
                const Wanted& wanted, const CodedPacketView& packet,
                const IvAccess& iv, const ValueBytes& segment,
                CodecStats* stats) {
  const int r = Popcount(group) - 1;
  const std::uint64_t length = wanted.span.length;
  const std::span<const std::uint8_t> payload = packet.payload;
  CTS_CHECK_EQ(segment.size(), length);
  ApplyTo(segment, payload.first(length), CopyInto);
  std::vector<std::uint8_t> residue(payload.begin() + length,
                                    payload.end());

  // Cancel the r-1 segments I know (paper eq. (10)).
  for (std::size_t i = 0; i < wanted.targets.size(); ++i) {
    const NodeId t = wanted.targets[i];
    if (t == self) continue;
    const NodeMask file = WithoutNode(group, t);
    const std::span<const std::uint8_t> value = iv(t, file);
    CTS_CHECK_MSG(value.size() == packet.iv_lengths[i],
                  "side-information length mismatch for target "
                      << t << ": have " << value.size() << " header says "
                      << packet.iv_lengths[i]);
    const SegmentSpan span =
        SegmentOf(value.size(), r, SegmentPosition(file, sender));
    const auto side = value.subspan(span.offset, span.length);
    CTS_CHECK_GE(payload.size(), side.size());
    const std::size_t in_segment = std::min<std::size_t>(side.size(), length);
    ApplyTo(segment, side.first(in_segment), XorInto);
    XorInto(residue, side.subspan(in_segment));
    if (stats != nullptr) stats->decode_xor_bytes += span.length;
  }

  // After cancellation only my segment remains; anything beyond its
  // length must be residual zero padding, or the codec is inconsistent.
  for (std::size_t i = 0; i < residue.size(); ++i) {
    CTS_CHECK_MSG(residue[i] == 0,
                  "nonzero padding residue at byte "
                      << length + i << " decoding packet from " << sender);
  }
  if (stats != nullptr) {
    ++stats->packets_decoded;
    stats->decoded_bytes += length;
  }
}

}  // namespace

void CodedPacket::serialize(Buffer& out) const {
  out.write_u32(static_cast<std::uint32_t>(iv_lengths.size()));
  for (std::uint64_t len : iv_lengths) out.write_u64(len);
  out.write_u64(payload.size());
  out.write_bytes(payload);
}

CodedPacketView CodedPacketView::Parse(Buffer& in) {
  CodedPacketView p;
  const std::uint32_t count = in.read_u32();
  CTS_CHECK_LE(std::size_t{count}, in.remaining() / sizeof(std::uint64_t));
  p.iv_lengths.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    p.iv_lengths.push_back(in.read_u64());
  }
  const std::uint64_t payload_size = in.read_u64();
  CTS_CHECK_MSG(payload_size <= in.remaining(),
                "buffer underrun: want " << payload_size << " have "
                                         << in.remaining());
  p.payload = in.read_view(payload_size);
  return p;
}

CodedPacket EncodePacket(NodeMask group, NodeId self, const IvAccess& iv,
                         CodecStats* stats) {
  CTS_CHECK_MSG(Contains(group, self),
                "encoder node " << self << " not in group " << group);
  const int r = Popcount(group) - 1;
  CTS_CHECK_GE(r, 1);

  const std::vector<NodeId> others = MaskToNodes(WithoutNode(group, self));

  CodedPacket packet;
  packet.iv_lengths.reserve(others.size());

  // First pass: collect constituent segments and the padded length.
  struct Constituent {
    std::span<const std::uint8_t> segment;
  };
  std::vector<Constituent> constituents;
  constituents.reserve(others.size());
  std::size_t max_len = 0;
  for (NodeId t : others) {
    const NodeMask file = WithoutNode(group, t);  // F = M \ {t}
    const std::span<const std::uint8_t> value = iv(t, file);
    packet.iv_lengths.push_back(value.size());
    const SegmentSpan span =
        SegmentOf(value.size(), r, SegmentPosition(file, self));
    constituents.push_back(
        {value.subspan(span.offset, span.length)});
    max_len = std::max(max_len, static_cast<std::size_t>(span.length));
  }

  // Zero-padded XOR (paper footnote 3: "all segments are zero-padded to
  // the length of the longest one").
  packet.payload.assign(max_len, 0);
  for (const Constituent& c : constituents) {
    XorInto(packet.payload, c.segment);
    if (stats != nullptr) stats->encode_xor_bytes += c.segment.size();
  }
  if (stats != nullptr) {
    ++stats->packets_encoded;
    stats->encode_payload_bytes += packet.payload.size();
  }
  return packet;
}

ValueBytes ValueBytes::subrange(std::size_t offset,
                                std::size_t length) const {
  CTS_CHECK_LE(offset + length, size());
  const std::size_t h = head.size();
  const std::size_t end = offset + length;
  const std::size_t head_begin = std::min(offset, h);
  const std::size_t body_begin = std::max(offset, h) - h;
  return {head.subspan(head_begin, std::min(end, h) - head_begin),
          body.subspan(body_begin, std::max(end, h) - h - body_begin)};
}

std::uint64_t DecodeGroup(
    NodeMask group, NodeId self, std::span<const CodedPacketView> packets,
    const IvAccess& iv,
    const std::function<ValueBytes(std::uint64_t)>& place,
    CodecStats* stats) {
  CTS_CHECK_MSG(Contains(group, self),
                "decoder node " << self << " not in group " << group);
  const std::vector<NodeId> senders = MaskToNodes(WithoutNode(group, self));
  CTS_CHECK_EQ(packets.size(), senders.size());
  CTS_CHECK_GE(senders.size(), std::size_t{1});
  // Every header is checked before `place` sees a length: the
  // headers agree on it, and each wanted segment fits its payload.
  std::vector<Wanted> wanted;
  wanted.reserve(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    wanted.push_back(
        WantedOf(group, self, senders[i], packets[i].iv_lengths));
    CTS_CHECK_MSG(wanted[i].value_length == wanted[0].value_length,
                  "packet from " << senders[i] << " gives value length "
                                 << wanted[i].value_length
                                 << ", packet from " << senders[0]
                                 << " gives " << wanted[0].value_length);
    CTS_CHECK_MSG(wanted[i].span.length <= packets[i].payload.size(),
                  "packet from " << senders[i] << " carries "
                                 << packets[i].payload.size()
                                 << " payload bytes, its header wants a "
                                 << wanted[i].span.length << "-byte segment");
  }
  const std::uint64_t length = wanted[0].value_length;
  const ValueBytes value = place(length);
  CTS_CHECK_EQ(value.size(), length);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    DecodeInto(group, self, senders[i], wanted[i], packets[i], iv,
               value.subrange(wanted[i].span.offset, wanted[i].span.length),
               stats);
    covered += wanted[i].span.length;
  }
  // Segments of one value are disjoint and cover it exactly.
  CTS_CHECK_MSG(covered == length, "segments cover " << covered << " of "
                                                     << length << " bytes");
  return length;
}

}  // namespace cts
