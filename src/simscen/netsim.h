// Topology-aware discrete-event replay of a transmission log.
//
// Generalizes simnet::ReplayMakespan from identical per-node links to
// a rack Topology with an oversubscribed core:
//
//   * Access links are exclusive, as in simnet: a node transmits one
//     flow and receives one flow at a time (one combined under a
//     half-duplex discipline). Under ReplayOrder::kLogOrder each link
//     serves its transmissions in per-link FIFO order of the log —
//     provably the same schedule simnet's list scheduler produces;
//     under kPerSender only each sender's program order constrains,
//     with ties broken by sender id exactly as simnet does.
//   * The inter-rack pipes are fluid shared resources: the core and
//     each rack's uplink/downlink, whichever are finite, are shared by
//     the concurrently active cross-rack flows crossing them through
//     one weighted water-filling max-min (each flow additionally capped
//     by its access links), recomputed at every flow arrival/departure
//     — the simgrid-style bandwidth-sharing step. Flows held by the
//     same bottleneck get bitwise-equal rates, so a kPerSender replay
//     does not depend on how the senders' logs interleave.
//
// A multicast transmission is a flow whose sender streams
// bytes × (1 + coeff·log2(fanout)) — the application-layer multicast
// penalty — while each receiver's downlink is held only until the
// payload `bytes` have flowed; the sender's uplink (and the core, for
// cross-rack flows) carries the stream to the end. With an infinite
// core and the default access rate this reproduces
// simnet::ReplayMakespan bit-for-bit modulo floating-point event
// accumulation (tests assert 1e-9 relative agreement).
//
// Cost: the parallel DES keeps the admitted, not-yet-drained flows in
// an ascending list of log positions, and every event walks only that
// list and the finite pipes — O(in-flight flows + finite pipes) per
// event (times the water-filling levels on a blocking fabric), never
// the whole log. Exclusive access links cap the in-flight flows at one
// per sender, so a replay is linear in the log for a fixed cluster.
// Log-order admission checks only the current heads of the per-link
// queues. Because the list is ascending, every tie and re-queue batch
// an OrderingHook sees is in the order a full scan of the log yields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/timeline.h"
#include "simnet/schedule.h"
#include "simnet/transmission_log.h"
#include "simscen/scenario.h"

namespace cts::simscen {

// A fail-stop outage as the network sees it: `node`'s links are frozen
// during [start, end) (times on the replay clock; start may be
// negative for an outage already in progress when the stage begins).
// Transfers in flight on those links when the outage hits lose their
// progress and are re-queued — they retransmit once the node is back
// and their links come free again. Transfers not yet started that
// touch the node simply cannot be admitted during the window.
struct LinkOutage {
  NodeId node = -1;
  double start = 0;
  double end = 0;

  bool active() const { return node >= 0 && end > start && end > 0; }
  bool covers(double t) const { return active() && t >= start && t < end; }
};

// A point where the DES's processing order is not forced by event
// times: several flows cross a rate threshold at the same instant
// (kCompletionTie — the `cand <= t_next` batch in FlowSim::Run), or an
// outage re-queues several in-flight flows at once (kOutageRequeue —
// their order at the back of the link queues). `candidates` holds the
// flow indices (positions in the replayed log) in the canonical order
// the simulator would process them.
struct OrderingDecision {
  enum class Kind { kCompletionTie, kOutageRequeue };
  Kind kind = Kind::kCompletionTie;
  double time = 0;
  std::vector<std::size_t> candidates;
};

// Exploration seam for the DPOR-style ordering explorer (src/check):
// NetMakespan consults the hook at every decision with >= 2 candidates
// and processes them in the returned order, which must be a
// permutation of `d.candidates`. A null hook keeps the canonical order
// — bit-for-bit the historical behaviour, at the cost of one branch
// per event batch.
class OrderingHook {
 public:
  virtual ~OrderingHook() = default;
  virtual std::vector<std::size_t> Choose(const OrderingDecision& d) = 0;
};

// Optional per-flow detail of one replay, for tests, invariants and
// the tracer (obs::BuildScenarioTrace).
struct NetReplayStats {
  // Completion time of log entry i (payload at every receiver AND the
  // sender's multicast stream tail drained).
  std::vector<double> flow_end;
  // Time log entry i first went on the wire (its first admission; the
  // serial discipline reports the time the medium was granted, after
  // any outage restart).
  std::vector<double> flow_start;
  // Σ t.bytes over flows whose payload reached all receivers; a
  // completed replay conserves bytes (== sum over the log).
  double delivered_payload_bytes = 0;
  // DES accounting, mirrored into the obs::MetricRegistry by
  // NetMakespan: admissions (initial + re-admissions after an
  // outage), outage re-queues, and max-min pipe-share recomputations.
  std::uint64_t flows_started = 0;
  std::uint64_t flows_requeued = 0;
  std::uint64_t maxmin_recomputations = 0;
};

// Flight-recorder hookup for NetMakespan: when `timeline` is set the
// replay samples three series at fixed sim-time tick intervals —
//   des/inflight_flows     flows admitted and not yet drained
//   des/requeue_depth      outage victims waiting for re-admission
//   des/link_utilization   busy access links / all access links
// Ticks live on the replay's own virtual clock (never wall-clock);
// each sample lands in the timeline at t0 + scale * t_log, so the
// scenario engine can place a network stage's series in scenario
// seconds (scale = shuffle_correction). interval <= 0 picks the
// default: the log's serialized duration / 256.
struct TimelineProbe {
  obs::Timeline* timeline = nullptr;
  double t0 = 0;        // scenario time of replay-clock zero
  double scale = 1.0;   // replay seconds -> timeline seconds
  double interval = 0;  // tick spacing in replay seconds (0 = auto)
};

// Makespan of `log` replayed on `topology` under a network discipline
// and initiation order. Discipline::kSerial prices the paper's shared
// medium: one transmission at a time, each at the minimum rate along
// its path (access, and core if cross-rack); `order` is ignored there.
// `outage` freezes one node's links for a window (see LinkOutage);
// `stats`, if non-null, receives per-flow completion times. `hook`, if
// non-null, chooses the processing order at every OrderingDecision
// (parallel disciplines only; kSerial has no simultaneous events).
double NetMakespan(const simnet::TransmissionLog& log,
                   const Topology& topology,
                   simnet::Discipline discipline,
                   simnet::ReplayOrder order = simnet::ReplayOrder::kLogOrder,
                   const LinkOutage& outage = {},
                   NetReplayStats* stats = nullptr,
                   OrderingHook* hook = nullptr,
                   const TimelineProbe& probe = {});

}  // namespace cts::simscen
