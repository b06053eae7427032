#include "simmpi/world.h"

#include <algorithm>
#include <atomic>

namespace cts::simmpi {

std::shared_ptr<World::SplitState> World::split_state(CommId comm,
                                                      std::uint64_t epoch,
                                                      int expected) {
  std::lock_guard lock(split_mu_);
  auto& slot = splits_[{comm, epoch}];
  if (!slot) {
    slot = std::make_shared<SplitState>();
    slot->readers_left = expected;
    slot->aborted = aborted_;
  }
  return slot;
}

void World::Abort() {
  for (auto& mb : mailboxes_) mb->abort();
  std::lock_guard lock(split_mu_);
  aborted_ = true;
  for (auto& [key, state] : splits_) {
    {
      std::lock_guard state_lock(state->mu);
      state->aborted = true;
    }
    state->cv.notify_all();
  }
}

void World::retire_split_state(CommId comm, std::uint64_t epoch) {
  std::lock_guard lock(split_mu_);
  splits_.erase({comm, epoch});
}

std::optional<SplitResult> World::split_rendezvous(CommId comm,
                                                   std::uint64_t epoch,
                                                   int expected, NodeId node,
                                                   int color, int key) {
  CTS_CHECK_GE(expected, 1);
  auto state = split_state(comm, epoch, expected);

  std::unique_lock lock(state->mu);
  state->entries.push_back({node, color, key});
  CTS_CHECK_LE(state->entries.size(), static_cast<std::size_t>(expected));

  if (state->entries.size() == static_cast<std::size_t>(expected)) {
    // Last arrival computes the partition for everyone.
    std::map<int, std::vector<SplitEntry>> by_color;
    for (const auto& e : state->entries) {
      if (e.color >= 0) by_color[e.color].push_back(e);
    }
    for (auto& [color_value, group] : by_color) {
      std::sort(group.begin(), group.end(),
                [](const SplitEntry& a, const SplitEntry& b) {
                  return std::tie(a.key, a.node) < std::tie(b.key, b.node);
                });
      const CommId new_id = allocate_comm_id();
      std::vector<NodeId> members;
      members.reserve(group.size());
      for (const auto& e : group) members.push_back(e.node);
      for (const auto& e : group) {
        state->results[e.node] = SplitResult{new_id, members};
      }
      // One communicator materialized: the CodeGen cost model charges
      // per created multicast group.
      stats_.record_comm_creation();
    }
    state->done = true;
    state->cv.notify_all();
  } else {
    state->cv.wait(lock, [&] { return state->done || state->aborted; });
    if (!state->done) throw Aborted();
  }

  std::optional<SplitResult> my_result;
  if (const auto it = state->results.find(node);
      it != state->results.end() && color >= 0) {
    my_result = it->second;
  }

  const bool last_reader = (--state->readers_left == 0);
  lock.unlock();
  if (last_reader) retire_split_state(comm, epoch);
  return my_result;
}

}  // namespace cts::simmpi
