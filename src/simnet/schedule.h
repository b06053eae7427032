// Discrete-event replay of a transmission log under a network
// discipline.
//
// Disciplines:
//  * Serial — the paper's setup: one transmission at a time on a
//    shared medium, in log order. Makespan = sum of durations (the
//    closed form; provided for cross-validation).
//  * Parallel — every node has its own link(s); transmissions are
//    list-scheduled in log order: a transfer starts as soon as the
//    sender's uplink and every receiver's downlink are free, and
//    occupies them for its duration. Full duplex gives tx and rx
//    independent links; half duplex shares one link per node.
//
// A multicast occupies the sender's uplink once for
// bytes * (1 + coeff*log2(fanout)) / rate (the application-layer
// multicast penalty) and each receiver's downlink for bytes / rate.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "simnet/transmission_log.h"

namespace cts::simnet {

struct LinkModel {
  // 100 Mbps at TCP efficiency (shared constants: common/units.h).
  double bytes_per_sec = kPaperLinkBytesPerSec * kTcpEfficiency;
  // Sender-side penalty factor for multicasting to `fanout` receivers.
  double multicast_log_coeff = kMulticastLogCoeff;

  double tx_seconds(const Transmission& t) const;
  double rx_seconds(const Transmission& t) const;
};

// Network discipline a log is replayed under.
enum class Discipline {
  kSerial,            // shared medium, one transmission at a time
  kParallelHalfDuplex,  // per-node links; tx and rx share one link
  kParallelFullDuplex,  // per-node links; tx and rx independent
};

// What constrains the order in which queued transmissions may start:
enum class ReplayOrder {
  // Global recorded order: transmission i+1 may not start before
  // transmission i has started. This reproduces the engine's actual
  // initiation sequence — the paper's sender-serial order for a
  // barrier-synchronous run, the racy interleaving for an overlapped
  // one.
  kLogOrder,
  // Only each sender's program order constrains: a sender's own
  // transmissions start in seq order, but independent senders are
  // free to start whenever their links allow. This prices a fully
  // asynchronous initiation of the same traffic, and is deterministic
  // for overlapped runs (per-sender order is program order, while the
  // global interleaving is a thread race).
  kPerSender,
};

// Makespan of the log executed one transmission at a time (shared
// medium), i.e. the sum of sender-side durations.
double SerialMakespan(const TransmissionLog& log, const LinkModel& link);

// Makespan of the log executed with per-node links, list-scheduled in
// log order. `num_nodes` bounds the node ids appearing in the log.
double ParallelMakespan(const TransmissionLog& log, const LinkModel& link,
                        int num_nodes, bool full_duplex);

// Unified replay: prices `log` under a discipline and an initiation
// order, distinguishing the serial, overlapped-half-duplex and
// overlapped-full-duplex executions of the same traffic.
// Discipline::kSerial ignores `order` (a sum is order-free).
double ReplayMakespan(const TransmissionLog& log, const LinkModel& link,
                      int num_nodes, Discipline discipline,
                      ReplayOrder order = ReplayOrder::kLogOrder);

}  // namespace cts::simnet
