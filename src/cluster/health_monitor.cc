#include "cluster/health_monitor.h"

#include <algorithm>
#include <map>

namespace jet::cluster {

std::string HealthReport::ToString() const {
  std::string s = "down=[";
  for (size_t i = 0; i < down.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(down[i]);
  }
  s += "] suspected=[";
  for (size_t i = 0; i < suspected.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(suspected[i]);
  }
  s += "] broken=[";
  for (size_t i = 0; i < broken_links.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(broken_links[i].first) + "-" +
         std::to_string(broken_links[i].second);
  }
  return s + "]";
}

std::optional<std::vector<int32_t>> QuorumSubset(const std::vector<int32_t>& members,
                                                 const HealthReport& report) {
  std::set<int32_t> up(members.begin(), members.end());
  for (int32_t m : report.down) up.erase(m);
  std::vector<std::pair<int32_t, int32_t>> broken;
  for (const auto& [a, b] : report.broken_links) {
    if (up.count(a) != 0 && up.count(b) != 0) broken.emplace_back(a, b);
  }
  auto linked = [&broken](int32_t a, int32_t b) {
    for (const auto& [x, y] : broken) {
      if ((x == a && y == b) || (x == b && y == a)) return false;
    }
    return true;
  };
  // Largest connected component over healthy links.
  std::set<int32_t> unvisited = up;
  std::vector<int32_t> best;
  while (!unvisited.empty()) {
    std::vector<int32_t> comp{*unvisited.begin()};
    unvisited.erase(unvisited.begin());
    for (size_t i = 0; i < comp.size(); ++i) {
      for (auto it = unvisited.begin(); it != unvisited.end();) {
        if (linked(comp[i], *it)) {
          comp.push_back(*it);
          it = unvisited.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (comp.size() > best.size()) best = comp;
  }
  // The component may still contain broken pairs (a and b both hear c but
  // not each other); no barrier can cross such a pair, so greedily drop the
  // endpoint with the most broken links (tie: higher id) until clean.
  std::set<int32_t> comp_set(best.begin(), best.end());
  while (true) {
    std::map<int32_t, int32_t> degree;
    for (const auto& [a, b] : broken) {
      if (comp_set.count(a) != 0 && comp_set.count(b) != 0) {
        ++degree[a];
        ++degree[b];
      }
    }
    if (degree.empty()) break;
    int32_t victim = degree.begin()->first;
    int32_t worst = 0;
    for (const auto& [m, d] : degree) {
      if (d > worst || (d == worst && m > victim)) {
        victim = m;
        worst = d;
      }
    }
    comp_set.erase(victim);
  }
  if (comp_set.empty()) return std::nullopt;
  // Split-brain protection: a minority must not run (or promote backups)
  // while the majority might be doing the same.
  if (comp_set.size() * 2 <= members.size()) return std::nullopt;
  return std::vector<int32_t>(comp_set.begin(), comp_set.end());
}

bool AllHealthy(const std::vector<int32_t>& members, const HealthReport& report) {
  std::set<int32_t> in(members.begin(), members.end());
  // A suspected member blocks too: it is either about to be refuted (wait a
  // beat) or about to be declared down (restarting onto it would resurrect
  // a crashed member's workers for a doomed attempt).
  for (const auto* set : {&report.down, &report.suspected}) {
    for (int32_t m : *set) {
      if (in.count(m) != 0) return false;
    }
  }
  for (const auto& [a, b] : report.broken_links) {
    if (in.count(a) != 0 && in.count(b) != 0) return false;
  }
  return true;
}

ClusterHealthMonitor::ClusterHealthMonitor(net::Network* network,
                                           core::LivenessOptions options,
                                           const Clock* clock)
    : network_(network),
      options_(options),
      clock_(clock != nullptr ? clock : &WallClock::Global()),
      last_tick_(clock_->Now()) {}

void ClusterHealthMonitor::AddMember(int32_t member) {
  jet::MutexLock lock(mutex_);
  auto it = beating_.find(member);
  if (it != beating_.end() && it->second) return;
  // Fresh link state in both directions with every existing member, so a
  // (re)joining member does not start out down or broken.
  const Nanos now = clock_->Now();
  for (const auto& [peer, unused] : beating_) {
    if (peer == member) continue;
    for (auto key : {std::make_pair(member, peer), std::make_pair(peer, member)}) {
      Link& link = links_[key];
      if (link.last_rx == nullptr) {
        link.channel = network_->OpenChannel(key.first, key.second);
        link.last_rx = std::make_shared<std::atomic<Nanos>>(now);
      } else {
        link.last_rx->store(now, std::memory_order_release);
      }
    }
  }
  beating_[member] = true;
}

void ClusterHealthMonitor::StopHeartbeats(int32_t member) {
  jet::MutexLock lock(mutex_);
  auto it = beating_.find(member);
  if (it != beating_.end()) it->second = false;
}

ClusterHealthMonitor::TickResult ClusterHealthMonitor::Tick(Nanos now) {
  std::vector<Link> out;
  TickResult result;
  {
    jet::MutexLock lock(mutex_);
    // The loop sent nothing while it was stalled, so the stall is no
    // evidence against anybody: credit it to every link, never past now
    // (nor over a heartbeat the delivery thread stores meanwhile).
    const Nanos stall = now - last_tick_ - options_.heartbeat_interval;
    if (stall > 0) {
      for (auto& [key, link] : links_) {
        Nanos heard = link.last_rx->load();
        while (heard < now &&
               !link.last_rx->compare_exchange_weak(heard, std::min(heard + stall, now))) {
        }
      }
    }
    last_tick_ = now;
    if (now >= next_beat_) {
      for (const auto& [key, link] : links_) {
        if (beating_.at(key.first)) out.push_back(link);
      }
      next_beat_ = now + options_.heartbeat_interval;
    }
    if (now >= next_fold_) {
      HealthReport report = Evaluate(now);
      for (int32_t m : report_.suspected) {
        if (std::find(report.suspected.begin(), report.suspected.end(), m) ==
                report.suspected.end() &&
            std::find(report.down.begin(), report.down.end(), m) == report.down.end()) {
          ++refutations_;  // fresh heartbeat withdrew the suspicion
        }
      }
      if (report != report_) result.changed = report_ = std::move(report);
      next_fold_ = now + options_.heartbeat_interval / 2;
    }
    result.next_due = std::min(next_beat_, next_fold_);
  }
  // One batch per tick: every link's heartbeat leaves at the same time.
  for (const Link& link : out) {
    auto cell = link.last_rx;
    const Clock* clock = clock_;
    network_->Send(link.channel, [cell, clock]() {
      cell->store(clock->Now(), std::memory_order_release);
    });
  }
  return result;
}

HealthReport ClusterHealthMonitor::Evaluate(Nanos now) const {
  HealthReport r;
  std::vector<int32_t> ids;
  for (const auto& [id, beating] : beating_) ids.push_back(id);
  auto judge = [this, now](int32_t from, int32_t to) {
    auto it = links_.find({from, to});
    if (it == links_.end()) return core::Liveness::kFresh;
    return core::JudgeHeartbeat(
        now - it->second.last_rx->load(std::memory_order_acquire), options_);
  };
  std::set<int32_t> down;
  for (int32_t m : ids) {
    bool has_peer = false;
    bool any_alive = false;
    for (int32_t o : ids) {
      if (o == m) continue;
      has_peer = true;
      if (judge(m, o) != core::Liveness::kDead) {
        any_alive = true;
        break;
      }
    }
    if (has_peer && !any_alive) down.insert(m);
  }
  r.down.assign(down.begin(), down.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      int32_t a = ids[i], b = ids[j];
      if (down.count(a) != 0 || down.count(b) != 0) continue;
      if (judge(a, b) == core::Liveness::kDead || judge(b, a) == core::Liveness::kDead) {
        r.broken_links.emplace_back(a, b);
      }
    }
  }
  for (int32_t m : ids) {
    if (down.count(m) != 0) continue;
    for (int32_t o : ids) {
      if (o != m && judge(m, o) == core::Liveness::kSuspect) {
        r.suspected.push_back(m);
        break;
      }
    }
  }
  return r;
}

HealthReport ClusterHealthMonitor::Snapshot() const {
  jet::MutexLock lock(mutex_);
  return Evaluate(clock_->Now());
}

std::vector<int32_t> ClusterHealthMonitor::SuspectedMembers() const {
  jet::MutexLock lock(mutex_);
  return report_.suspected;
}

int64_t ClusterHealthMonitor::refutation_count() const {
  jet::MutexLock lock(mutex_);
  return refutations_;
}

}  // namespace jet::cluster
