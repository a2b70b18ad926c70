// Bounded-blocking MPMC channel used as a site mailbox in the threaded
// runtime. Unbounded by default: HyperFile message volume is bounded by the
// termination-weight protocol (a site cannot flood another without weight).
#pragma once

#include <chrono>
#include <deque>
#include <optional>

#include "common/sync.hpp"
#include "common/types.hpp"

namespace hyperfile {

template <typename T>
class Channel {
 public:
  /// Push an item; returns false if the channel is closed.
  bool push(T item) {
    {
      MutexLock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocking pop with timeout. nullopt on timeout, on interrupt(), or when
  /// closed and empty. A timeout <= 0 is a plain locked pop: it never enters
  /// the condition-variable wait (the site loop's inbox burst pops this way
  /// once per frame, and the wait path made it 2x slower over sockets) and
  /// leaves a latched interrupt() for the next waiting pop.
  HF_BLOCKING std::optional<T> pop_wait(Duration timeout) {
    if (timeout <= Duration(0)) return try_pop();
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (items_.empty() && !closed_ && interrupts_ == 0) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
    if (interrupts_ > 0) interrupts_ = 0;  // consumed: one wake per waiter
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Wake one parked pop_wait early (it returns as if it timed out). The
  /// wake is latched, not edge-triggered: an interrupt landing between two
  /// pop_wait calls is consumed by the next one instead of being lost —
  /// exactly the readiness semantics MessageEndpoint::wake_recv() needs.
  void interrupt() {
    {
      MutexLock lock(mu_);
      ++interrupts_;
    }
    cv_.notify_all();
  }

  std::optional<T> try_pop() {
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Undo close() and discard anything queued — a restarted site must start
  /// from an empty mailbox, not replay traffic addressed to its previous
  /// incarnation (crash-stop semantics, DESIGN.md §13).
  void reopen() {
    MutexLock lock(mu_);
    items_.clear();
    closed_ = false;
    interrupts_ = 0;  // wakes meant for the previous incarnation die with it
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ HF_GUARDED_BY(mu_);
  bool closed_ HF_GUARDED_BY(mu_) = false;
  std::uint64_t interrupts_ HF_GUARDED_BY(mu_) = 0;
};

}  // namespace hyperfile
