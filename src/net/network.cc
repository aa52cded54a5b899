#include "net/network.h"

#include <algorithm>

namespace jet::net {

Network::Network(LinkModel link, uint64_t seed) : link_(link), rng_(seed) {
  delivery_thread_ = std::thread([this]() { DeliveryLoop(); });
}

Network::~Network() { Shutdown(); }

ChannelId Network::OpenChannel(int32_t from, int32_t to) {
  jet::MutexLock lock(mutex_);
  ChannelId id = next_channel_++;
  if (from != kAnyNode || to != kAnyNode) {
    channel_endpoints_.emplace(id, std::make_pair(from, to));
  }
  return id;
}

const FaultPlan* Network::FaultFor(ChannelId channel) const {
  if (faults_.empty()) return nullptr;
  auto ep = channel_endpoints_.find(channel);
  if (ep == channel_endpoints_.end()) return nullptr;
  auto it = faults_.find(ep->second);
  return it != faults_.end() ? &it->second : nullptr;
}

bool Network::Send(ChannelId channel, std::function<void()> deliver) {
  jet::MutexLock lock(mutex_);
  ++sent_;
  if (shutdown_) {
    ++dropped_;
    return false;
  }
  Nanos extra = 0;
  if (const FaultPlan* fault = FaultFor(channel); fault != nullptr) {
    if (fault->blocked ||
        (fault->drop_probability > 0.0 && rng_.NextDouble() < fault->drop_probability)) {
      ++dropped_;
      return false;
    }
    extra = fault->extra_latency;
    if (fault->spike_probability > 0.0 && fault->spike_latency > 0 &&
        rng_.NextDouble() < fault->spike_probability) {
      extra += fault->spike_latency;
    }
  }
  Nanos due = clock_.Now() + link_.Sample(&rng_) + extra;
  // FIFO per channel: never schedule before the channel's previous message.
  auto [it, inserted] = channel_last_due_.try_emplace(channel, due);
  if (!inserted) {
    due = std::max(due, it->second);
    it->second = due;
  }
  queue_.push(Delivery{due, next_seq_++, std::move(deliver)});
  cv_.NotifyOne();
  return true;
}

void Network::Shutdown() {
  {
    jet::MutexLock lock(mutex_);
    if (!shutdown_) {
      shutdown_ = true;
      // Everything still queued will never run: account it as dropped so
      // sent == delivered + dropped holds at teardown.
      dropped_ += static_cast<int64_t>(queue_.size());
    }
    cv_.NotifyAll();
  }
  if (delivery_thread_.joinable()) delivery_thread_.join();
}

void Network::SetLinkFault(int32_t from, int32_t to, FaultPlan plan) {
  jet::MutexLock lock(mutex_);
  auto key = std::make_pair(from, to);
  if (plan.IsNoop()) {
    faults_.erase(key);
  } else {
    faults_[key] = plan;
  }
}

void Network::Partition(int32_t a, int32_t b) {
  jet::MutexLock lock(mutex_);
  faults_[{a, b}].blocked = true;
  faults_[{b, a}].blocked = true;
}

void Network::Heal(int32_t a, int32_t b) {
  jet::MutexLock lock(mutex_);
  faults_.erase({a, b});
  faults_.erase({b, a});
}

void Network::HealAll() {
  jet::MutexLock lock(mutex_);
  faults_.clear();
}

bool Network::IsBlocked(int32_t from, int32_t to) const {
  jet::MutexLock lock(mutex_);
  auto it = faults_.find({from, to});
  return it != faults_.end() && it->second.blocked;
}

int64_t Network::sent_count() const {
  jet::MutexLock lock(mutex_);
  return sent_;
}

int64_t Network::delivered_count() const {
  jet::MutexLock lock(mutex_);
  return delivered_;
}

int64_t Network::dropped_count() const {
  jet::MutexLock lock(mutex_);
  return dropped_;
}

void Network::set_link(LinkModel link) {
  jet::MutexLock lock(mutex_);
  link_ = link;
}

void Network::DeliveryLoop() {
  jet::UniqueMutexLock lock(mutex_);
  while (true) {
    if (shutdown_) return;
    if (queue_.empty()) {
      cv_.Wait(mutex_, [this]() JET_REQUIRES(mutex_) {
        return shutdown_ || !queue_.empty();
      });
      continue;
    }
    Nanos now = clock_.Now();
    const Delivery& next = queue_.top();
    if (next.due > now) {
      cv_.WaitFor(mutex_, std::chrono::nanoseconds(next.due - now));
      continue;
    }
    // Move the closure out before unlocking.
    auto fn = std::move(const_cast<Delivery&>(next).fn);
    queue_.pop();
    ++delivered_;
    lock.Unlock();
    fn();
    lock.Lock();
  }
}

}  // namespace jet::net
