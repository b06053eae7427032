// The coded-shuffle XOR codec: Encoding (paper Algorithm 1) and
// Decoding (paper Algorithm 2).
//
// Within a multicast group M of r+1 nodes, node u transmits one coded
// packet
//
//     E_{M,u} = XOR over t in M\{u} of  I^t_{M\{t}},u
//
// i.e. the XOR of the u-indexed segments of the r intermediate values
// that the *other* members need, each of which u knows from its own Map
// work (u mapped file M\{t} for every t != u). Segments are zero-padded
// to the longest constituent. A receiver k cancels the r-1 segments it
// also knows and is left with I^k_{M\{k}},u — one segment of the value
// it needs; the r packets it receives in M reassemble the whole value.
//
// The packet carries a small header with the byte length of every
// constituent intermediate value. The receiver needs the length of its
// own wanted value (which it does not know) to strip the zero padding;
// the sender knows all constituents, so the header is the natural
// place. Header overhead is 8r + O(1) bytes per packet and is included
// in all traffic accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "coding/segments.h"
#include "common/buffer.h"
#include "common/types.h"

namespace cts {

// Read access to a node's mapped intermediate values: returns the
// serialized bytes of I^target_file (the KV pairs of file `file` whose
// keys fall in partition `target`). The codec only calls this for
// values the node is guaranteed to hold after its Map stage.
using IvAccess =
    std::function<std::span<const std::uint8_t>(NodeId target, NodeMask file)>;

// A coded packet read in place: the header's lengths decoded, the
// payload a view into the wire buffer it was parsed from. Valid while
// that buffer lives unmodified.
struct CodedPacketView {
  std::vector<std::uint64_t> iv_lengths;
  std::span<const std::uint8_t> payload;

  // Parses one packet at `in`'s cursor, leaving the cursor after it.
  static CodedPacketView Parse(Buffer& in);
};

// One coded multicast packet (wire format: u32 count, count u64
// lengths, u64 payload size, payload bytes).
struct CodedPacket {
  // Length of I^t_{M\{t}} for each t in M\{sender}, ascending t. The
  // receiver k finds its own entry to learn |I^k_{M\{k}}|.
  std::vector<std::uint64_t> iv_lengths;
  // XOR of the zero-padded segments; length == longest segment.
  std::vector<std::uint8_t> payload;

  // Read back with CodedPacketView::Parse.
  void serialize(Buffer& out) const;

  // Bytes this packet occupies on the wire.
  std::size_t wire_size() const {
    return sizeof(std::uint32_t) +
           iv_lengths.size() * sizeof(std::uint64_t) +
           sizeof(std::uint64_t) + payload.size();
  }
};

// Counters the cost model consumes (XOR work and packet handling).
struct CodecStats {
  std::uint64_t packets_encoded = 0;
  std::uint64_t encode_xor_bytes = 0;  // input bytes XORed into packets
  // Coded payload produced (sum of packet payload sizes, excluding the
  // wire header). The simulated-time report scales this with the data
  // size while header bytes — whose count is combinatorial in (K, r),
  // not proportional to data — stay fixed.
  std::uint64_t encode_payload_bytes = 0;
  std::uint64_t packets_decoded = 0;
  std::uint64_t decode_xor_bytes = 0;  // side-information bytes cancelled
  std::uint64_t decoded_bytes = 0;     // useful segment bytes recovered

  CodecStats& operator+=(const CodecStats& o) {
    packets_encoded += o.packets_encoded;
    encode_xor_bytes += o.encode_xor_bytes;
    encode_payload_bytes += o.encode_payload_bytes;
    packets_decoded += o.packets_decoded;
    decode_xor_bytes += o.decode_xor_bytes;
    decoded_bytes += o.decoded_bytes;
    return *this;
  }
};

// Algorithm 1 for one group: builds E_{M,self}. `group` must contain
// `self` and have at least 2 members.
CodedPacket EncodePacket(NodeMask group, NodeId self, const IvAccess& iv,
                         CodecStats* stats = nullptr);

// Writable bytes of a value that may span two buffers: the value's
// first head.size() bytes, then body.
struct ValueBytes {
  std::span<std::uint8_t> head;
  std::span<std::uint8_t> body;

  std::size_t size() const { return head.size() + body.size(); }
  // Bytes [offset, offset + length) of the value.
  ValueBytes subrange(std::size_t offset, std::size_t length) const;
};

// Algorithm 2 for a whole group, with no copy of the value between
// the wire and its destination: node `self` decodes the r packets it
// received in `group`, packets[i] multicast by the i-th member of
// group \ {self} in ascending order. Every header must give the same
// length L for I^self_{M\{self}}, and each packet's payload must hold
// the segment its header implies; both are checked before `place(L)`
// is called, so a corrupt header never sizes the destination. `place`
// returns the L bytes the value goes to.
//
// Who owns which bytes: the packets' payloads stay in the caller's
// wire buffers and are only read. Each packet's wanted segment is
// copied from its payload into its place in the caller's ValueBytes,
// and the r-1 known side segments (read through `iv`, owned by the
// caller's Encode state) are XORed out there. The payload bytes past
// the wanted segment are cancelled in one small scratch buffer and
// must come out zero (the padding-residue check). The segments must
// cover the value exactly. Returns L.
std::uint64_t DecodeGroup(
    NodeMask group, NodeId self, std::span<const CodedPacketView> packets,
    const IvAccess& iv,
    const std::function<ValueBytes(std::uint64_t)>& place,
    CodecStats* stats = nullptr);

}  // namespace cts
