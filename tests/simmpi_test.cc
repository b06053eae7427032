// Tests for the simmpi substrate: mailboxes, send/recv, collectives,
// communicator splits, and traffic accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/check.h"
#include "simmpi/comm.h"
#include "simmpi/mailbox.h"
#include "simmpi/world.h"

namespace cts::simmpi {
namespace {

// Runs fn(node) on one thread per node of a world and joins them,
// re-throwing the first per-node failure.
void RunNodes(World& world, const std::function<void(NodeId)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(world.num_nodes()));
  for (NodeId n = 0; n < world.num_nodes(); ++n) {
    threads.emplace_back([&, n] {
      try {
        fn(n);
      } catch (...) {
        errors[static_cast<std::size_t>(n)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

Buffer BufferOf(std::initializer_list<std::uint8_t> bytes) {
  Buffer b;
  b.write_bytes(std::vector<std::uint8_t>(bytes));
  return b;
}

TEST(Mailbox, FifoPerKey) {
  Mailbox mb;
  mb.deliver(0, 1, 7, BufferOf({1}));
  mb.deliver(0, 1, 7, BufferOf({2}));
  EXPECT_EQ(mb.pending(), 2u);
  EXPECT_EQ(mb.receive(0, 1, 7).data()[0], 1);
  EXPECT_EQ(mb.receive(0, 1, 7).data()[0], 2);
  EXPECT_EQ(mb.pending(), 0u);
}

TEST(Mailbox, KeysAreIndependent) {
  Mailbox mb;
  mb.deliver(0, 1, 7, BufferOf({1}));
  mb.deliver(0, 2, 7, BufferOf({2}));
  mb.deliver(1, 1, 7, BufferOf({3}));
  mb.deliver(0, 1, 8, BufferOf({4}));
  EXPECT_EQ(mb.receive(0, 1, 8).data()[0], 4);
  EXPECT_EQ(mb.receive(1, 1, 7).data()[0], 3);
  EXPECT_EQ(mb.receive(0, 2, 7).data()[0], 2);
  EXPECT_EQ(mb.receive(0, 1, 7).data()[0], 1);
}

TEST(Mailbox, ReceiveBlocksUntilDelivery) {
  Mailbox mb;
  std::atomic<bool> received{false};
  std::thread receiver([&] {
    (void)mb.receive(0, 5, 1);
    received = true;
  });
  EXPECT_FALSE(received.load());
  mb.deliver(0, 5, 1, BufferOf({9}));
  receiver.join();
  EXPECT_TRUE(received.load());
}

TEST(World, RejectsBadSizes) {
  EXPECT_THROW(World{0}, CheckError);
  // The transport is mask-free, so worlds larger than kMaxNodes are
  // legal (live TeraSort runs at K~100; only coded placements cap).
  EXPECT_NO_THROW(World{kMaxNodes});
  EXPECT_NO_THROW(World{kMaxNodes + 1});
}

TEST(Comm, WorldCommRanksMatchNodeIds) {
  World world(4);
  const Comm c = Comm::World(world, 2);
  EXPECT_EQ(c.rank(), 2);
  EXPECT_EQ(c.size(), 4);
  EXPECT_EQ(c.my_global(), 2);
  EXPECT_EQ(c.global(3), 3);
  EXPECT_EQ(c.rank_of_global(1), 1);
  EXPECT_EQ(c.rank_of_global(99), -1);
}

TEST(Comm, SendRecvMovesPayload) {
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      Buffer b;
      b.write_u32(0xfeedu);
      c.send(1, 3, std::move(b));
    } else {
      Buffer got = c.recv(0, 3);
      EXPECT_EQ(got.read_u32(), 0xfeedu);
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

TEST(Comm, SendToSelfIsAnError) {
  World world(2);
  Comm c = Comm::World(world, 0);
  EXPECT_THROW(c.send(0, 1, Buffer{}), CheckError);
  EXPECT_THROW((void)c.recv(0, 1), CheckError);
}

TEST(Comm, NegativeUserTagRejected) {
  World world(2);
  Comm c = Comm::World(world, 0);
  EXPECT_THROW(c.send(1, -1, Buffer{}), CheckError);
}

TEST(Comm, ManyToOneOrderedPerSource) {
  constexpr int K = 6;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      for (int src = 1; src < K; ++src) {
        Buffer first = c.recv(src, 1);
        Buffer second = c.recv(src, 1);
        EXPECT_EQ(first.read_i32(), src * 10);
        EXPECT_EQ(second.read_i32(), src * 10 + 1);
      }
    } else {
      Buffer b1, b2;
      b1.write_i32(n * 10);
      b2.write_i32(n * 10 + 1);
      c.send(0, 1, std::move(b1));
      c.send(0, 1, std::move(b2));
    }
  });
}

TEST(Comm, BcastDeliversToAll) {
  constexpr int K = 5;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    Buffer payload;
    if (n == 2) payload.write_u64(777);
    c.bcast(2, payload);
    if (n == 2) {
      EXPECT_TRUE(payload.empty());  // the root's payload is consumed
    } else {
      EXPECT_EQ(payload.read_u64(), 777u);
    }
  });
}

TEST(Comm, BcastOnSingletonCommIsNoop) {
  World world(1);
  Comm c = Comm::World(world, 0);
  Buffer payload;
  payload.write_u8(1);
  EXPECT_NO_THROW(c.bcast(0, payload));
  EXPECT_EQ(payload.size(), 1u);
}

TEST(Comm, BarrierSynchronizes) {
  constexpr int K = 8;
  World world(K);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    ++before;
    c.barrier();
    if (before.load() != K) violated = true;
    c.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(Comm, SplitFormsColorGroups) {
  constexpr int K = 6;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    // Even nodes -> color 0, odd -> color 1.
    auto sub = c.split(n % 2, /*key=*/n);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->size(), 3);
    // Members are the same-parity nodes in ascending order.
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(sub->global(i), 2 * i + (n % 2));
    }
    // Communication within the subgroup works.
    Buffer payload;
    if (sub->rank() == 0) payload.write_i32(n % 2);
    sub->bcast(0, payload);
    if (sub->rank() != 0) {
      EXPECT_EQ(payload.read_i32(), n % 2);
    }
  });
}

TEST(Comm, SplitUndefinedColorYieldsNullopt) {
  constexpr int K = 4;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    auto sub = c.split(n == 0 ? 0 : -1, 0);
    EXPECT_EQ(sub.has_value(), n == 0);
    if (sub) {
      EXPECT_EQ(sub->size(), 1);
    }
  });
}

TEST(Comm, SplitKeyControlsRankOrder) {
  constexpr int K = 3;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    // Reverse rank order via descending keys.
    auto sub = c.split(0, /*key=*/K - n);
    ASSERT_TRUE(sub.has_value());
    EXPECT_EQ(sub->rank(), K - 1 - n);
  });
}

TEST(Comm, RepeatedSplitsAreIndependent) {
  constexpr int K = 4;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    for (int round = 0; round < 10; ++round) {
      auto sub = c.split(n < 2 ? 0 : 1, n);
      ASSERT_TRUE(sub.has_value());
      EXPECT_EQ(sub->size(), 2);
      Buffer token;
      if (sub->rank() == 0) token.write_i32(round);
      sub->bcast(0, token);
      if (sub->rank() != 0) {
        EXPECT_EQ(token.read_i32(), round);
      }
    }
  });
}

TEST(Comm, NestedSplitOfSubgroup) {
  constexpr int K = 8;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    auto half = c.split(n / 4, n);  // two groups of 4
    ASSERT_TRUE(half.has_value());
    auto quarter = half->split(half->rank() / 2, half->rank());
    ASSERT_TRUE(quarter.has_value());
    EXPECT_EQ(quarter->size(), 2);
  });
}

// ---- Ownership: payloads move from sender to receiver ----

TEST(Ownership, SendMovesTheSendersBytes) {
  World world(2);
  Comm sender = Comm::World(world, 0);
  Comm receiver = Comm::World(world, 1);
  Buffer b;
  b.resize(4096);
  const std::uint8_t* bytes = b.data();
  sender.send(1, 0, std::move(b));  // eager: returns before the recv
  const Buffer got = receiver.recv(0, 0);
  EXPECT_EQ(got.size(), 4096u);
  EXPECT_EQ(got.data(), bytes);  // no copy on the way
  EXPECT_EQ(world.stats().total().unicast_bytes, 4096u);
}

TEST(Ownership, ReceiverReadsFromByteZero) {
  World world(2);
  Comm sender = Comm::World(world, 0);
  Comm receiver = Comm::World(world, 1);
  Buffer b;
  b.write_u32(11);
  b.write_u32(22);
  EXPECT_EQ(b.read_u32(), 11u);  // the sender's cursor moves past it
  sender.send(1, 0, std::move(b));
  Buffer got = receiver.recv(0, 0);
  EXPECT_EQ(got.cursor(), 0u);
  EXPECT_EQ(got.read_u32(), 11u);
  EXPECT_EQ(got.read_u32(), 22u);
}

// The last receiver gets the root's buffer itself, the others clones:
// every receiver owns independent bytes, and the root's are consumed.
TEST(Ownership, BcastReceiversGetIndependentBuffers) {
  constexpr int K = 4;
  World world(K);
  world.stats().set_stage("Shuffle");
  Buffer payload;
  for (std::uint8_t i = 0; i < 16; ++i) payload.write_u8(i);
  payload.seek(5);
  const std::uint8_t* root_bytes = payload.data();
  Comm root = Comm::World(world, 1);
  root.bcast(1, payload);  // eager: delivers before any receiver waits
  EXPECT_TRUE(payload.empty());
  EXPECT_EQ(payload.remaining(), 0u);

  std::vector<Buffer> got;
  for (NodeId n : {0, 2, 3}) {
    Comm c = Comm::World(world, n);
    Buffer b;
    c.bcast(1, b);
    EXPECT_EQ(b.size(), 16u);
    EXPECT_EQ(b.cursor(), 0u);
    got.push_back(std::move(b));
  }
  EXPECT_NE(got[0].data(), got[1].data());
  EXPECT_EQ(got[2].data(), root_bytes);  // the last receiver: moved
  got[0].data()[0] = 0xff;
  EXPECT_EQ(got[1].data()[0], 0u);
  EXPECT_EQ(got[2].data()[0], 0u);
  const auto s = world.stats().stage("Shuffle");
  EXPECT_EQ(s.mcast_msgs, 1u);
  EXPECT_EQ(s.mcast_bytes, 16u);
  EXPECT_EQ(s.mcast_recipient_bytes, 16u * (K - 1));
  EXPECT_EQ(world.pending_messages(), 0u);
}

// ---- World::Abort: a failed node does not hang its peers ----

TEST(Abort, WakesBlockedReceivesAndSplits) {
  constexpr int K = 3;
  World world(K);
  std::atomic<int> aborted{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Comm c = Comm::World(world, 1);
    try {
      (void)c.recv(0, 0);  // node 0 never sends
    } catch (const Aborted&) {
      ++aborted;
    }
  });
  threads.emplace_back([&] {
    Comm c = Comm::World(world, 2);
    try {
      (void)c.split(0, 0);  // node 0 never joins
    } catch (const Aborted&) {
      ++aborted;
    }
  });
  world.Abort();
  for (auto& t : threads) t.join();
  EXPECT_EQ(aborted.load(), 2);
  // Calls made after the abort throw instead of blocking.
  Comm c = Comm::World(world, 0);
  EXPECT_THROW((void)c.recv(1, 0), Aborted);
  Request req = c.irecv(2, 0);
  EXPECT_THROW((void)Comm::wait(req), Aborted);
  EXPECT_THROW((void)c.split(1, 0), Aborted);
}

TEST(Traffic, SendRecordsUnicastUnderCurrentStage) {
  World world(2);
  world.stats().set_stage("Shuffle");
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    if (n == 0) {
      Buffer b;
      b.resize(1000);
      c.send(1, 1, std::move(b));
    } else {
      (void)c.recv(0, 1);
    }
  });
  const auto s = world.stats().stage("Shuffle");
  EXPECT_EQ(s.unicast_msgs, 1u);
  EXPECT_EQ(s.unicast_bytes, 1000u);
  EXPECT_EQ(s.mcast_msgs, 0u);
  EXPECT_EQ(s.transmitted_bytes(), 1000u);
}

TEST(Traffic, BcastRecordsOneMulticastWithFanout) {
  constexpr int K = 5;
  World world(K);
  world.stats().set_stage("MulticastShuffle");
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    Buffer payload;
    if (n == 0) payload.resize(600);
    c.bcast(0, payload);
  });
  const auto s = world.stats().stage("MulticastShuffle");
  EXPECT_EQ(s.mcast_msgs, 1u);
  EXPECT_EQ(s.mcast_bytes, 600u);
  EXPECT_EQ(s.mcast_recipient_bytes, 600u * (K - 1));
  EXPECT_EQ(s.unicast_msgs, 0u);  // no control pollution
  EXPECT_EQ(s.transmitted_bytes(), 600u);
}

TEST(Traffic, BarrierIsUnaccounted) {
  constexpr int K = 4;
  World world(K);
  world.stats().set_stage("ControlOnly");
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    c.barrier();
    c.barrier();
  });
  const auto s = world.stats().stage("ControlOnly");
  EXPECT_EQ(s.unicast_msgs, 0u);
  EXPECT_EQ(s.unicast_bytes, 0u);
  EXPECT_EQ(s.mcast_msgs, 0u);
}

TEST(Traffic, SplitRecordsCommCreation) {
  constexpr int K = 4;
  World world(K);
  world.stats().set_stage("CodeGen");
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    (void)c.split(n % 2, n);  // creates 2 communicators
  });
  EXPECT_EQ(world.stats().stage("CodeGen").comm_creations, 2u);
}

TEST(Traffic, StagesAccumulateIndependently) {
  World world(2);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    Buffer b;
    b.resize(10);
    world.stats().set_stage("A");
    c.barrier();
    if (n == 0) {
      c.send(1, 1, b.Clone());
    } else {
      (void)c.recv(0, 1);
    }
    c.barrier();
    world.stats().set_stage("B");
    c.barrier();
    if (n == 1) {
      c.send(0, 1, b.Clone());
      c.send(0, 2, std::move(b));
    } else {
      (void)c.recv(1, 1);
      (void)c.recv(1, 2);
    }
  });
  EXPECT_EQ(world.stats().stage("A").unicast_msgs, 1u);
  EXPECT_EQ(world.stats().stage("B").unicast_msgs, 2u);
  EXPECT_EQ(world.stats().total().unicast_msgs, 3u);
  EXPECT_EQ(world.stats().total().unicast_bytes, 30u);
}

TEST(Traffic, ResetClearsEverything) {
  World world(2);
  world.stats().set_stage("X");
  world.stats().record_unicast(5);
  world.stats().reset();
  EXPECT_EQ(world.stats().total().unicast_bytes, 0u);
  EXPECT_TRUE(world.stats().stage_names().empty());
}

// Stress: all-to-all exchange with many tags, verifying no message is
// lost or cross-delivered under thread contention.
TEST(Stress, AllToAllExchange) {
  constexpr int K = 8;
  constexpr int kRounds = 20;
  World world(K);
  RunNodes(world, [&](NodeId n) {
    Comm c = Comm::World(world, n);
    for (int round = 0; round < kRounds; ++round) {
      for (int dst = 0; dst < K; ++dst) {
        if (dst == n) continue;
        Buffer b;
        b.write_i32(n);
        b.write_i32(dst);
        b.write_i32(round);
        c.send(dst, round, std::move(b));
      }
      for (int src = 0; src < K; ++src) {
        if (src == n) continue;
        Buffer b = c.recv(src, round);
        EXPECT_EQ(b.read_i32(), src);
        EXPECT_EQ(b.read_i32(), n);
        EXPECT_EQ(b.read_i32(), round);
      }
    }
  });
  EXPECT_EQ(world.pending_messages(), 0u);
}

}  // namespace
}  // namespace cts::simmpi
