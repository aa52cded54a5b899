#ifndef JETSIM_NET_NETWORK_H_
#define JETSIM_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace jet::net {

/// Latency model of one network link. Real deployments of the paper run on
/// EC2 (c5.4xlarge); intra-VPC RTTs are ~100-500us. The jitter term makes
/// tail-latency effects observable.
struct LinkModel {
  Nanos base_latency = 100 * kNanosPerMicro;
  Nanos jitter = 20 * kNanosPerMicro;  // uniform in [0, jitter)

  Nanos Sample(Rng* rng) const {
    return base_latency +
           (jitter > 0 ? static_cast<Nanos>(rng->NextBounded(static_cast<uint64_t>(jitter)))
                       : 0);
  }
};

/// Endpoint wildcard for channels whose node identity is unknown or
/// irrelevant; such channels are never matched by link faults.
inline constexpr int32_t kAnyNode = -1;

/// Fault model of one *directed* link (from -> to), installed via
/// `Network::SetLinkFault`. All randomness draws from the network's seeded
/// Rng, so a given seed plus a given send sequence replays the same drops.
///
/// Faults act at send time: a blocked or dropped message is counted in
/// `dropped_count()` and never enqueued. Messages already in flight when a
/// fault is installed still deliver (they left the "NIC" before the cable
/// was cut).
struct FaultPlan {
  /// Probability in [0, 1] that a message on this link is dropped.
  double drop_probability = 0.0;
  /// Fixed extra latency added to every message on this link.
  Nanos extra_latency = 0;
  /// With probability `spike_probability`, adds `spike_latency` on top
  /// (models transient congestion / GC on the peer).
  double spike_probability = 0.0;
  Nanos spike_latency = 0;
  /// Hard partition: every message on this link is dropped.
  bool blocked = false;

  bool IsNoop() const {
    return drop_probability <= 0.0 && extra_latency == 0 &&
           (spike_probability <= 0.0 || spike_latency == 0) && !blocked;
  }
};

/// Identifier of a FIFO channel between two endpoints. Deliveries on one
/// channel never reorder (TCP-like semantics), which the snapshot barrier
/// protocol depends on.
using ChannelId = int64_t;

/// In-process message network connecting the nodes of a cluster.
///
/// A message is an arbitrary closure executed on the delivery thread after
/// the link latency elapses. Per-channel FIFO is enforced by never
/// scheduling a delivery earlier than the channel's previous one. The
/// closure should only move data into a thread-safe buffer and return
/// quickly.
///
/// Delivery accounting always closes: after `Shutdown`,
/// `sent_count() == delivered_count() + dropped_count()`. Drops come from
/// link faults (see FaultPlan), sends after shutdown, and messages still
/// queued at shutdown.
class Network {
 public:
  explicit Network(LinkModel link = LinkModel{}, uint64_t seed = 42);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Allocates a new FIFO channel. `from`/`to` optionally tag the channel
  /// with the node ids of its endpoints so per-link faults apply to it;
  /// untagged channels (kAnyNode) are immune to link faults.
  ChannelId OpenChannel(int32_t from = kAnyNode, int32_t to = kAnyNode);

  /// Schedules `deliver` to run after the sampled link latency, in FIFO
  /// order with previous sends on `channel`. Subject to any fault installed
  /// on the channel's (from, to) link. Returns false exactly when the
  /// message is dropped here (counted in `dropped_count()`): by a fault or
  /// because the network is shut down. Called from exchange processors on
  /// cooperative workers; the critical section is a bounded enqueue (the
  /// holder never waits), an audited JET_COOPERATIVE boundary.
  bool Send(ChannelId channel, std::function<void()> deliver) JET_COOPERATIVE;

  /// Stops the delivery thread; undelivered messages are dropped and
  /// counted in `dropped_count()` (used to model node/network failure at
  /// shutdown).
  void Shutdown();

  // --- Fault injection (testkit) ------------------------------------------

  /// Installs `plan` on the directed link from -> to, replacing any
  /// previous plan (a no-op plan removes the entry).
  void SetLinkFault(int32_t from, int32_t to, FaultPlan plan);

  /// Blocks both directions between `a` and `b` (full partition). Existing
  /// latency/drop settings on the pair are preserved.
  void Partition(int32_t a, int32_t b);

  /// Removes all faults (block, drop, latency) on both directions between
  /// `a` and `b`.
  void Heal(int32_t a, int32_t b);

  /// Removes every installed fault.
  void HealAll();

  /// True if the directed link from -> to is currently blocked.
  bool IsBlocked(int32_t from, int32_t to) const;

  // --- Accounting ---------------------------------------------------------

  /// Messages handed to Send so far (including ones later dropped).
  int64_t sent_count() const;

  /// Messages delivered so far.
  int64_t delivered_count() const;

  /// Messages dropped so far: fault-plan drops + blocked-link drops +
  /// sends after Shutdown + messages undelivered at Shutdown.
  int64_t dropped_count() const;

  /// Sets the latency model for subsequent sends.
  void set_link(LinkModel link);

 private:
  struct Delivery {
    Nanos due;
    int64_t seq;  // tie-break: preserves send order for equal due times
    std::function<void()> fn;
  };
  struct DeliveryLater {
    bool operator()(const Delivery& a, const Delivery& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  // Delivery thread body: drains queue_ hand-over-hand (closures run with
  // mutex_ released so a delivery may re-enter Send).
  void DeliveryLoop() JET_EXCLUDES(mutex_);

  // Fault plan covering `channel`, or nullptr.
  const FaultPlan* FaultFor(ChannelId channel) const JET_REQUIRES(mutex_);

  WallClock clock_;
  mutable jet::Mutex mutex_;
  jet::CondVar cv_;
  std::priority_queue<Delivery, std::vector<Delivery>, DeliveryLater> queue_
      JET_GUARDED_BY(mutex_);
  std::unordered_map<ChannelId, Nanos> channel_last_due_ JET_GUARDED_BY(mutex_);
  std::unordered_map<ChannelId, std::pair<int32_t, int32_t>> channel_endpoints_
      JET_GUARDED_BY(mutex_);
  std::map<std::pair<int32_t, int32_t>, FaultPlan> faults_ JET_GUARDED_BY(mutex_);
  LinkModel link_ JET_GUARDED_BY(mutex_);
  Rng rng_ JET_GUARDED_BY(mutex_);
  ChannelId next_channel_ JET_GUARDED_BY(mutex_) = 1;
  int64_t next_seq_ JET_GUARDED_BY(mutex_) = 0;
  int64_t sent_ JET_GUARDED_BY(mutex_) = 0;
  int64_t delivered_ JET_GUARDED_BY(mutex_) = 0;
  int64_t dropped_ JET_GUARDED_BY(mutex_) = 0;
  bool shutdown_ JET_GUARDED_BY(mutex_) = false;
  std::thread delivery_thread_;
};

}  // namespace jet::net

#endif  // JETSIM_NET_NETWORK_H_
