#include "testkit/chaos.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "imdg/snapshot_store.h"
#include "testkit/wait.h"

namespace jet::testkit {

namespace {

std::string NanosToMsString(Nanos t) {
  return std::to_string(NanosToMillis(t)) + "ms";
}

}  // namespace

std::string ChaosEvent::ToString() const {
  std::string s = "+" + NanosToMsString(at) + " ";
  switch (type) {
    case ChaosEventType::kKillNode:
      return s + "kill(" + std::to_string(a) + ")";
    case ChaosEventType::kAddNode:
      return s + "join(" + std::to_string(a) + ")";
    case ChaosEventType::kPartition:
      return s + "partition(" + std::to_string(a) + "," + std::to_string(b) + ")";
    case ChaosEventType::kHeal:
      return s + "heal(" + std::to_string(a) + "," + std::to_string(b) + ")";
    case ChaosEventType::kDelaySpike:
      return s + "delay(" + std::to_string(a) + "," + std::to_string(b) + ",+" +
             NanosToMsString(latency) + ")";
    case ChaosEventType::kClearLink:
      return s + "clear(" + std::to_string(a) + "," + std::to_string(b) + ")";
    case ChaosEventType::kStallWorker:
      return s + "stall(" + std::to_string(a) + "," + NanosToMsString(duration) + ")";
  }
  return s + "?";
}

std::string TimelineToString(const std::vector<ChaosEvent>& timeline) {
  std::string s;
  for (const auto& e : timeline) {
    if (!s.empty()) s += " ";
    s += e.ToString();
  }
  return s;
}

std::vector<ChaosEvent> GenerateTimeline(uint64_t seed,
                                         const ChaosTimelineOptions& options) {
  Rng rng(seed);
  std::vector<ChaosEvent> timeline;

  // Mirror of the cluster state the timeline will produce. Joined members
  // get the ids JetCluster::AddNode will assign (next_node_id_ counts up
  // from initial_nodes).
  std::vector<int32_t> alive;
  for (int32_t i = 0; i < options.initial_nodes; ++i) alive.push_back(i);
  int32_t next_id = options.initial_nodes;
  int32_t kills = 0;
  // At most one link fault (partition or delay) open at a time, so the
  // cluster can always make progress again once its heal/clear fires, and
  // heals never accidentally clear an unrelated fault on the same pair.
  bool link_fault_open = false;
  std::pair<int32_t, int32_t> open_pair{-1, -1};
  bool open_is_partition = false;
  Nanos open_since = 0;

  const Nanos span = std::max<Nanos>(options.horizon - options.start_after, 1);
  const int32_t n = std::max<int32_t>(options.events, 1);

  auto pick_alive = [&](int32_t exclude = -1) {
    int32_t candidate;
    do {
      candidate = alive[rng.NextBounded(alive.size())];
    } while (candidate == exclude);
    return candidate;
  };

  auto close_open_fault = [&](Nanos at) {
    ChaosEvent e;
    e.at = at;
    e.type = open_is_partition ? ChaosEventType::kHeal : ChaosEventType::kClearLink;
    e.a = open_pair.first;
    e.b = open_pair.second;
    timeline.push_back(e);
    link_fault_open = false;
  };

  for (int32_t i = 0; i < n; ++i) {
    // Evenly spread slots with seeded jitter inside each slot.
    Nanos slot = span / n;
    Nanos at = options.start_after + slot * i +
               static_cast<Nanos>(rng.NextBounded(static_cast<uint64_t>(
                   std::max<Nanos>(slot / 2, 1))));

    // Close a long-open link fault before scheduling more mayhem on top.
    if (link_fault_open && at - open_since > span / 3) {
      close_open_fault(at);
      continue;
    }

    enum { kKill, kJoin, kPart, kDelay, kStall };
    std::vector<int> choices;
    if (kills < options.max_kills &&
        static_cast<int32_t>(alive.size()) > options.min_alive) {
      choices.push_back(kKill);
    }
    if (options.allow_join) choices.push_back(kJoin);
    if (options.allow_partition && !link_fault_open && alive.size() >= 2) {
      choices.push_back(kPart);
    }
    if (options.allow_delay && !link_fault_open && alive.size() >= 2) {
      choices.push_back(kDelay);
    }
    if (options.allow_stall) choices.push_back(kStall);
    if (choices.empty()) continue;

    ChaosEvent e;
    e.at = at;
    switch (choices[rng.NextBounded(choices.size())]) {
      case kKill: {
        e.type = ChaosEventType::kKillNode;
        e.a = pick_alive();
        alive.erase(std::find(alive.begin(), alive.end(), e.a));
        ++kills;
        break;
      }
      case kJoin: {
        e.type = ChaosEventType::kAddNode;
        e.a = next_id++;
        alive.push_back(e.a);
        break;
      }
      case kPart: {
        e.type = ChaosEventType::kPartition;
        e.a = pick_alive();
        e.b = pick_alive(e.a);
        link_fault_open = true;
        open_pair = {e.a, e.b};
        open_is_partition = true;
        open_since = at;
        break;
      }
      case kDelay: {
        e.type = ChaosEventType::kDelaySpike;
        e.a = pick_alive();
        e.b = pick_alive(e.a);
        e.latency = static_cast<Nanos>(1 + rng.NextBounded(4)) * kNanosPerMilli;
        link_fault_open = true;
        open_pair = {e.a, e.b};
        open_is_partition = false;
        open_since = at;
        break;
      }
      case kStall: {
        e.type = ChaosEventType::kStallWorker;
        e.a = pick_alive();
        e.duration = static_cast<Nanos>(30 + rng.NextBounded(120)) * kNanosPerMilli;
        break;
      }
    }
    timeline.push_back(e);
  }

  // Every fault ends: close any open partition/delay at the horizon.
  if (link_fault_open) close_open_fault(options.horizon);

  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const ChaosEvent& x, const ChaosEvent& y) { return x.at < y.at; });
  return timeline;
}

// ---------------------------------------------------------------------------
// ChaosScheduler
// ---------------------------------------------------------------------------

ChaosScheduler::ChaosScheduler(cluster::JetCluster* cluster,
                               std::vector<ChaosEvent> timeline)
    : cluster_(cluster), timeline_(std::move(timeline)) {
  std::stable_sort(timeline_.begin(), timeline_.end(),
                   [](const ChaosEvent& x, const ChaosEvent& y) { return x.at < y.at; });
}

Status ChaosScheduler::Apply(const ChaosEvent& event) {
  net::Network& network = cluster_->network();
  switch (event.type) {
    case ChaosEventType::kKillNode: {
      // Fail-stop only; eviction and restart are the control plane's job.
      Status s = cluster_->CrashNode(event.a);
      // The control plane may have transiently evicted the target (e.g. a
      // partition minority); crashing an already-gone member is moot.
      if (s.code() == StatusCode::kNotFound) return Status::OK();
      return s;
    }
    case ChaosEventType::kAddNode: {
      auto added = cluster_->AddNode();
      if (!added.ok()) return added.status();
      if (*added != event.a) {
        return InternalError("timeline expected joined id " + std::to_string(event.a) +
                             ", cluster assigned " + std::to_string(*added));
      }
      return Status::OK();
    }
    case ChaosEventType::kPartition:
      network.Partition(event.a, event.b);
      return Status::OK();
    case ChaosEventType::kHeal:
      // The health monitor notices the heal and the control plane resumes
      // or restarts jobs on its own. An attempt that lost a frame to the
      // partition was already failed by its exchange, so nothing it missed
      // can commit once the link is back.
      network.Heal(event.a, event.b);
      return Status::OK();
    case ChaosEventType::kClearLink:
      // Delay spikes lose no messages, so no recovery is needed — but never
      // clear a pair that is (unexpectedly) partitioned.
      if (!network.IsBlocked(event.a, event.b)) {
        network.SetLinkFault(event.a, event.b, net::FaultPlan{});
        network.SetLinkFault(event.b, event.a, net::FaultPlan{});
      }
      return Status::OK();
    case ChaosEventType::kDelaySpike: {
      net::FaultPlan plan;
      plan.extra_latency = event.latency;
      network.SetLinkFault(event.a, event.b, plan);
      network.SetLinkFault(event.b, event.a, plan);
      return Status::OK();
    }
    case ChaosEventType::kStallWorker: {
      Status s = cluster_->StallNode(event.a, event.duration);
      if (s.code() == StatusCode::kNotFound) return Status::OK();
      return s;
    }
  }
  return InternalError("unknown chaos event");
}

Status ChaosScheduler::Run() {
  WallClock clock;
  const Nanos start = clock.Now();
  for (const ChaosEvent& event : timeline_) {
    Nanos now = clock.Now();
    if (start + event.at > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(start + event.at - now));
    }
    Status s = Apply(event);
    log_.push_back(event.ToString() + (s.ok() ? "" : " -> " + s.ToString()));
    table_versions_.push_back(cluster_->grid().TableVersion());
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ClusterFixture
// ---------------------------------------------------------------------------

namespace {

struct AuctionEvent {
  uint64_t auction = 0;
};

}  // namespace

ClusterFixture::ClusterFixture(FixtureOptions options) : options_(options) {
  cluster::ClusterConfig config;
  config.initial_nodes = options_.initial_nodes;
  config.threads_per_node = options_.threads_per_node;
  config.backup_count = options_.backup_count;
  config.supervisor = options_.supervisor;
  cluster_ = std::make_unique<cluster::JetCluster>(config);
  collector_ = std::make_shared<core::SyncCollector<core::WindowResult<int64_t>>>();
}

Status ClusterFixture::SubmitWindowedJob() {
  using core::ProcessorMeta;
  const double rate = options_.events_per_second;
  const Nanos duration = options_.source_duration;
  const int64_t keys = options_.key_count;
  core::WindowDef window = core::WindowDef::Tumbling(options_.window_size);
  auto op = core::CountingAggregate<AuctionEvent>();

  auto source = dag_.AddVertex(
      "bids",
      [rate, duration, keys](const ProcessorMeta&) -> std::unique_ptr<core::Processor> {
        core::GeneratorSourceP<AuctionEvent>::Options opt;
        opt.events_per_second = rate;
        opt.duration = duration;
        opt.watermark_interval = 5 * kNanosPerMilli;
        return std::make_unique<core::GeneratorSourceP<AuctionEvent>>(
            [keys](int64_t seq) {
              AuctionEvent e{static_cast<uint64_t>(seq % keys)};
              return std::make_pair(e, HashU64(e.auction));
            },
            opt);
      },
      1);
  auto accumulate = dag_.AddVertex(
      "accumulate",
      [op, window](const ProcessorMeta&) {
        return std::make_unique<core::AccumulateByFrameP<AuctionEvent, int64_t, int64_t>>(
            op, [](const AuctionEvent& e) { return e.auction; }, window);
      },
      1);
  auto combine = dag_.AddVertex(
      "combine",
      [op, window](const ProcessorMeta&) {
        return std::make_unique<core::CombineFramesP<AuctionEvent, int64_t, int64_t>>(
            op, window);
      },
      1);
  auto sink = dag_.AddVertex(
      "sink",
      [collector = collector_](const ProcessorMeta&) {
        return std::make_unique<core::CollectSinkP<core::WindowResult<int64_t>>>(
            collector);
      },
      1);
  dag_.AddEdge(source, accumulate);
  auto& exchange = dag_.AddEdge(accumulate, combine);
  exchange.routing = core::RoutingPolicy::kPartitioned;
  exchange.distributed = true;
  dag_.AddEdge(combine, sink);

  core::JobConfig config;
  config.guarantee = core::ProcessingGuarantee::kExactlyOnce;
  config.snapshot_interval = options_.snapshot_interval;
  config.serialize_exchange_frames = options_.serialize_exchange_frames;
  auto job = cluster_->SubmitJob(&dag_, config, options_.job_id);
  if (!job.ok()) return job.status();
  job_ = *job;
  return Status::OK();
}

bool ClusterFixture::WaitForCommittedSnapshot(int64_t min_id, Nanos timeout) {
  if (job_ == nullptr) return false;
  return WaitUntil([this, min_id]() { return job_->last_committed_snapshot() >= min_id; },
                   timeout);
}

Status ClusterFixture::JoinJob() {
  if (job_ == nullptr) return FailedPreconditionError("no job submitted");
  return job_->Join();
}

int64_t ClusterFixture::expected_total() const {
  // Mirror GeneratorSourceP: the emission period is truncated to whole
  // nanoseconds and events exist for every seq with seq * period < duration.
  auto period = static_cast<Nanos>(1e9 / options_.events_per_second);
  if (period < 1) period = 1;
  return (options_.source_duration + period - 1) / period;
}

Result<int64_t> ClusterFixture::DistinctTotal() const {
  std::map<std::pair<uint64_t, Nanos>, int64_t> distinct;
  for (const auto& r : collector_->Snapshot()) {
    auto [it, inserted] = distinct.insert({{r.key, r.window_end}, r.value});
    if (!inserted && it->second != r.value) {
      return InternalError("conflicting duplicate window result for key " +
                           std::to_string(r.key) + ": " + std::to_string(it->second) +
                           " vs " + std::to_string(r.value));
    }
  }
  int64_t total = 0;
  for (const auto& [kw, v] : distinct) total += v;
  return total;
}

Status ClusterFixture::VerifyExactlyOnce() const {
  auto total = DistinctTotal();
  if (!total.ok()) return total.status();
  if (*total != expected_total()) {
    return InternalError("exactly-once violated: expected " +
                         std::to_string(expected_total()) + " events, counted " +
                         std::to_string(*total));
  }
  return Status::OK();
}

Status ClusterFixture::VerifyDeliveryAccounting() {
  net::Network& network = cluster_->network();
  // Flush: after Shutdown every message is either delivered or dropped.
  network.Shutdown();
  // The control loop may still send (and so drop) heartbeats while the
  // counters are read: read again until no send fell between the reads.
  int64_t sent = 0;
  int64_t delivered = 0;
  int64_t dropped = 0;
  do {
    sent = network.sent_count();
    delivered = network.delivered_count();
    dropped = network.dropped_count();
  } while (network.sent_count() != sent);
  if (sent != delivered + dropped) {
    return InternalError("delivery accounting leak: sent=" + std::to_string(sent) +
                         " delivered=" + std::to_string(delivered) +
                         " dropped=" + std::to_string(dropped));
  }
  return Status::OK();
}

Status ClusterFixture::VerifyClusterInvariants() const {
  JET_RETURN_IF_ERROR(cluster_->grid().ValidateTable());
  // No lost IMDG backups: every live snapshot epoch of the job must be
  // replica-consistent after all the membership churn.
  for (int64_t snapshot : cluster_->snapshot_store().LiveSnapshots(options_.job_id)) {
    JET_RETURN_IF_ERROR(cluster_->grid().CheckReplicaConsistency(
        imdg::SnapshotStore::MapNameFor(options_.job_id, snapshot)));
  }
  return Status::OK();
}

}  // namespace jet::testkit
