// MPI-flavoured communicator over the in-memory transport.
//
// This is the substrate the two sorting algorithms are written against,
// mirroring the Open MPI primitives the paper's implementation used:
//
//   MPI_Send / MPI_Recv   -> Comm::send / Comm::recv  (blocking, FIFO
//                            per (source, tag, communicator))
//   MPI_Bcast             -> Comm::bcast (application-layer multicast:
//                            the root transmits once, accounting-wise,
//                            and every other member receives a copy)
//   MPI_Barrier           -> Comm::barrier
//   MPI_Allgather         -> Comm::allgather (accounted as unicasts)
//   MPI_Comm_split        -> Comm::split (collective; color < 0 is
//                            MPI_UNDEFINED)
//   MPI_Isend / MPI_Irecv  -> Comm::isend / Comm::irecv (nonblocking,
//                            returning a Request completed by wait)
//
// Ownership: a sent payload moves into the destination mailbox, so a
// message costs no copy in the transport. A caller that keeps its
// bytes sends a Clone(), which makes every copy visible where it is
// made.
//
// Traffic accounting: send() records a unicast and bcast() records a
// multicast with its fan-out into World::stats() under the current
// stage label. Nonblocking sends account at INITIATION (isend is
// eager-buffered, so initiation is when the bytes hit the wire) —
// overlapped and barrier-synchronous schedules therefore measure
// byte-identical loads. Control-plane traffic (barrier tokens) is
// deliberately NOT accounted — the paper's tables measure shuffle
// payloads, not MPI control overhead.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"
#include "simmpi/world.h"

namespace cts::simmpi {

// Handle for one nonblocking operation (MPI_Request). Move-only; owned
// by the node thread that initiated it. Send requests are born
// complete (sends are eager-buffered); receive requests complete when
// wait() matches the message. A posted receive that is never completed
// is counted by Mailbox::pending() — and hence World::pending_messages()
// — so abandoned requests fail the shutdown hygiene checks instead of
// vanishing silently.
class Request {
 public:
  Request() = default;
  // Moves reset the source to a null handle so a moved-from Request
  // cannot double-claim its ticket or double-retire the posted-recv
  // counter (wait on it throws instead).
  Request(Request&& o) noexcept { *this = std::move(o); }
  Request& operator=(Request&& o) noexcept {
    if (this != &o) {
      kind_ = std::exchange(o.kind_, Kind::kNull);
      mailbox_ = std::exchange(o.mailbox_, nullptr);
      comm_ = o.comm_;
      src_ = o.src_;
      tag_ = o.tag_;
      ticket_ = o.ticket_;
      done_ = std::exchange(o.done_, false);
      payload_ = std::move(o.payload_);
    }
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  // True once the operation finished (always true for send requests).
  bool done() const { return done_; }
  // True for a default-constructed handle that never held an op.
  bool null() const { return kind_ == Kind::kNull; }

 private:
  friend class Comm;
  enum class Kind { kNull, kSend, kRecv };

  Kind kind_ = Kind::kNull;
  class Mailbox* mailbox_ = nullptr;  // receiving mailbox (recv only)
  CommId comm_ = 0;
  NodeId src_ = -1;  // global node id of the sender (recv only)
  Tag tag_ = 0;
  std::uint64_t ticket_ = 0;  // match slot reserved at posting time
  bool done_ = false;
  Buffer payload_;  // completed receive's message
};

class Comm {
 public:
  // The world communicator for node `self` (rank == node id).
  static Comm World(class World& world, NodeId self);

  int rank() const { return rank_; }
  int size() const { return static_cast<int>(members_->size()); }
  CommId id() const { return id_; }

  // The world this communicator lives in (for stats and harness use).
  class World& world() const { return *world_; }

  // Global node id of a rank in this communicator.
  NodeId global(int rank) const {
    CTS_CHECK_GE(rank, 0);
    CTS_CHECK_LT(rank, size());
    return (*members_)[static_cast<std::size_t>(rank)];
  }
  NodeId my_global() const { return global(rank_); }
  const std::vector<NodeId>& members() const { return *members_; }

  // Rank of a global node id in this communicator, or -1.
  int rank_of_global(NodeId node) const;

  // ---- Point-to-point (accounted as unicast) ----
  // The payload moves into the destination mailbox; the receiver reads
  // it from byte 0 whatever the sender's cursor was.
  void send(int dst_rank, Tag tag, Buffer payload);
  Buffer recv(int src_rank, Tag tag);

  // ---- Nonblocking point-to-point ----
  //
  // isend is eager-buffered: the payload moves into the destination
  // mailbox and the unicast is accounted immediately (at initiation),
  // so the returned request is already complete — exactly MPI_Isend
  // under an eager protocol. Unlike the blocking pair, self-sends are
  // legal (loopback; not accounted as network traffic): isend(self) +
  // irecv(self) cannot deadlock.
  Request isend(int dst_rank, Tag tag, Buffer payload);

  // Posts a receive for (src_rank, tag) on this communicator. FIFO
  // matching per (source, tag, comm) is preserved: two irecvs posted
  // for the same key complete in posting order with the messages in
  // sending order. Complete with wait.
  Request irecv(int src_rank, Tag tag);

  // Posts the receive side of a bcast rooted at `root_rank` (the
  // root's own bcast() call already returns without waiting, so this
  // is all that is needed to overlap multicast rounds). Pairs with the
  // root calling bcast().
  Request ibcast_recv(int root_rank);

  // Blocks until `req` completes; returns the received message (an
  // empty Buffer for send requests). A request can be waited only
  // once. Static (like MPI_Wait, completion needs no communicator);
  // callable through any Comm instance.
  static Buffer wait(Request& req);

  // ---- Collectives ----

  // Application-layer multicast (accounted as one multicast with
  // fan-out size()-1). At the root, `payload` is the data to send: it
  // is consumed (the last receiver gets the buffer itself, the others
  // a clone) and left empty. At other ranks it is overwritten with the
  // received message.
  void bcast(int root_rank, Buffer& payload);

  // Root half of a bcast with the accounting split out: delivers
  // `payload` to every other member WITHOUT recording a multicast
  // (clones for all receivers but the last, which gets the buffer).
  // Callers must account the transmission themselves — the overlapped
  // multicast round prices a whole round of these through
  // TrafficStats::record_multicast_batch in one call. Receivers pair
  // it with ibcast_recv as usual.
  void bcast_put(Buffer payload);

  // Synchronizes all members (token to rank 0, token back).
  void barrier();

  // Every member ends with every member's payload, in rank order
  // (MPI_Allgather). Data-plane: accounted as unicasts.
  std::vector<Buffer> allgather(const Buffer& payload);

  // Collective split. Members calling with the same color >= 0 form a
  // new communicator ordered by (key, node id); color < 0 opts out and
  // yields nullopt. Every member of this communicator must call.
  std::optional<Comm> split(int color, int key);

  // Batched group creation (the "Scalable Coding" extension, paper
  // Section VI): creates one communicator per node-mask in `groups`
  // using a single collective round instead of one split per group.
  // Every member of this communicator must call with the SAME list;
  // masks are over global node ids and must be members of this comm.
  // Returns the communicators for the groups containing the caller,
  // keyed by mask; ranks are in ascending node order. Accounting: one
  // comm creation per group, under the current stage label.
  std::map<NodeMask, Comm> create_groups(const std::vector<NodeMask>& groups);

 private:
  Comm(class World* world, CommId id,
       std::shared_ptr<const std::vector<NodeId>> members, int rank)
      : world_(world), id_(id), members_(std::move(members)), rank_(rank) {}

  void deliver(int dst_rank, Tag tag, Buffer payload);
  Request post_recv(NodeId src, Tag tag);

  static constexpr Tag kTagBcast = -1;
  static constexpr Tag kTagBarrier = -2;
  // Accounted collectives use high user-space tags so they never
  // collide with algorithm point-to-point tags (small non-negative).
  static constexpr Tag kTagAllgatherUser = 0x7fff0001;

  class World* world_;
  CommId id_;
  std::shared_ptr<const std::vector<NodeId>> members_;
  int rank_;
  std::uint64_t split_epoch_ = 0;
};

}  // namespace cts::simmpi
