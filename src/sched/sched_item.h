// SchedItem: the substrate-neutral unit of scheduling.
//
// The paper's Table 2 operations schedule "tasks", but nothing in a policy
// needs to know whether a task is a simulated work segment (src/libos Task)
// or a real user-level thread (src/runtime UThread). Both embed this base:
// intrusive runqueue linkage, a stable id for deterministic tie-breaks, and
// the policy-defined per-task field (the extra word in the paper's task_t).
// Policies written against SchedItem therefore compile unchanged into both
// execution substrates — the repo's version of the paper's generality claim.
#ifndef SRC_SCHED_SCHED_ITEM_H_
#define SRC_SCHED_SCHED_ITEM_H_

#include <cstddef>
#include <cstdint>

#include "src/base/intrusive_list.h"
#include "src/base/mpsc_queue.h"

namespace skyloft {

// Flags passed to SchedPolicy::TaskEnqueue (paper: task_enqueue flags).
enum EnqueueFlags : unsigned {
  kEnqueueNew = 1u << 0,        // first enqueue after creation
  kEnqueueWakeup = 1u << 1,     // task was blocked and is waking (CFS sleeper credit)
  kEnqueuePreempted = 1u << 2,  // task was preempted mid-segment
  kEnqueueYield = 1u << 3,      // task voluntarily yielded
};

// ListNode links the item into a policy's IntrusiveList runqueues; MpscNode
// links it into a worker's lock-free submission mailbox (the two linkages are
// never live at once: an item is either inside a policy or in flight to one).
struct SchedItem : ListNode, MpscNode {
  std::uint64_t id = 0;
  // EnqueueFlags of a submission in flight through a host mailbox, read by
  // the worker that absorbs it into its policy.
  unsigned enqueue_flags = 0;

  // ---- policy-defined per-task state (paper: the extra field in task_t) ----
  static constexpr std::size_t kPolicyDataSize = 64;
  alignas(8) unsigned char policy_data[kPolicyDataSize] = {};

  template <typename T>
  T* PolicyData() {
    static_assert(sizeof(T) <= kPolicyDataSize, "policy data too large");
    return reinterpret_cast<T*>(policy_data);
  }
};

}  // namespace skyloft

#endif  // SRC_SCHED_SCHED_ITEM_H_
