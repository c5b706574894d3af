// Intrusive multi-producer single-consumer mailbox.
//
// The host scheduler gives every worker shard one of these: any worker or
// off-runtime thread submits with a single CAS, and the owning worker drains
// the whole backlog with one exchange and absorbs it into its policy (see
// src/runtime/host_sched.cpp). The queue is a Treiber stack: Push prepends
// under a release CAS loop, DrainReversed takes the entire chain with an
// acquire exchange. The consumer therefore receives the nodes in REVERSE
// arrival order, and relinks the chain to hand them on oldest-first.
//
// Ownership contract: a node may be in at most one MpscQueue at a time, and
// must not be pushed again until the consumer has drained it (the scheduler
// guarantees this — a task is running, queued once, or parked). Push is
// lock-free (the CAS loop retries only under producer contention);
// DrainReversed is wait-free.
#ifndef SRC_BASE_MPSC_QUEUE_H_
#define SRC_BASE_MPSC_QUEUE_H_

#include <atomic>

#include "src/base/compiler.h"

namespace skyloft {

// Intrusive hook: queued types derive from this (SchedItem does, so the
// runqueue mailboxes need no allocation).
struct MpscNode {
  MpscNode() = default;
  // The link is live only while the node sits inside a queue; copying or
  // moving a node (container reshuffles of un-queued items) never transfers
  // it. Copying a node that IS queued is a caller bug, same as ListNode.
  MpscNode(const MpscNode&) noexcept {}
  MpscNode& operator=(const MpscNode&) noexcept { return *this; }

  std::atomic<MpscNode*> mpsc_next{nullptr};
};

// T must derive from MpscNode.
template <typename T>
class MpscQueue {
 public:
  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Any thread. Returns the number of CAS retries taken (0 on the
  // uncontended path), so callers can feed a contention counter.
  SKYLOFT_NO_SWITCH int Push(T* item) {
    MpscNode* node = item;
    int retries = 0;
    MpscNode* old_head = head_.load(std::memory_order_relaxed);
    node->mpsc_next.store(old_head, std::memory_order_relaxed);
    // Release so the consumer's acquire exchange sees the item's fields;
    // RMWs extend the release sequence, so every producer in the chain
    // synchronizes with the drain, not just the last one.
    while (!head_.compare_exchange_weak(old_head, node, std::memory_order_release,
                                        std::memory_order_relaxed)) {
      node->mpsc_next.store(old_head, std::memory_order_relaxed);
      retries++;
    }
    return retries;
  }

  // Consumer only. Takes the whole backlog in one exchange and returns it as
  // a null-terminated chain (follow with Next) in reverse arrival order.
  SKYLOFT_NO_SWITCH T* DrainReversed() {
    MpscNode* chain = head_.exchange(nullptr, std::memory_order_acquire);
    return static_cast<T*>(chain);
  }

  // Follow the drained chain. Only valid on nodes returned by DrainReversed
  // (the links are stable once the consumer owns the chain).
  SKYLOFT_NO_SWITCH static T* Next(T* item) {
    return static_cast<T*>(item->mpsc_next.load(std::memory_order_relaxed));
  }

  // Racy emptiness hint (placement decisions, preemption tick). Safe to call
  // from the preemption signal handler: one relaxed load, no allocation.
  SKYLOFT_SIGNAL_SAFE bool EmptyApprox() const {
    return head_.load(std::memory_order_relaxed) == nullptr;
  }

 private:
  // Producers from every worker CAS this word; keep it off any neighbor's
  // hot state.
  alignas(kCacheLineSize) std::atomic<MpscNode*> head_{nullptr};
};

}  // namespace skyloft

#endif  // SRC_BASE_MPSC_QUEUE_H_
