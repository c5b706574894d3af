// Host-side adapter for the Table 2 scheduling-operations interface.
//
// The sim engines (src/libos) drive a SchedPolicy from a single event loop;
// the host runtime has N real worker pthreads, so the policy must be driven
// concurrently. HostSched gives every worker a shard (DESIGN.md section 9):
// a short spinlock, the worker's own policy instance (SchedInit'ed with a
// one-worker EngineView), an MPSC mailbox for submissions, and the queued
// count published under the lock. Every policy, work stealing included, runs
// its own TaskEnqueue/TaskDequeue/SchedTimerTick here, as in the sim.
//
//   - Submissions push onto the target worker's mailbox (one CAS) with the
//     enqueue flags carried on the SchedItem.
//   - The owner absorbs its mailbox into its policy, in arrival order, first
//     thing in every Dequeue/Requeue/Retire/Tick, under its own lock.
//   - An idle worker steals up to half (at most 8) of the first other shard
//     whose published count is non-zero: TaskDequeue under the victim's
//     lock, then TaskEnqueue(kEnqueueWakeup) under its own. It never holds
//     both locks. Mailboxes are invisible to thieves, so a fresh wakeup stays
//     on the worker whose engine woke it.
//   - A centralized policy (IsCentralized(), e.g. Shinjuku) gets one shard
//     covering every worker; submissions to it take the lock directly.
//     The host never calls SchedBalance.
//
// Locking model: callers on a uthread stack must hold a Runtime::PreemptGuard
// (a preemption signal landing while a shard lock is held would deadlock the
// worker's tick on its own lock). The runtime's scheduler stack always runs
// with preemption disabled, so WorkerLoop-side calls are safe by
// construction.
#ifndef SRC_RUNTIME_HOST_SCHED_H_
#define SRC_RUNTIME_HOST_SCHED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/compiler.h"
#include "src/base/metrics.h"
#include "src/sched/policy.h"

namespace skyloft {

// Which policy the host runtime schedules uthreads with (Table 4 policies
// that make sense without a centralized dispatcher thread).
enum class RuntimePolicy {
  kWorkStealing,  // per-worker FIFO + steal-half
  kFifo,          // run-to-completion round-robin placement, no preemption
  kRoundRobin,    // FIFO + slice-based preemption via the signal timer
  kCfs,
  kEevdf,
};

struct HostSchedOptions {
  RuntimePolicy policy = RuntimePolicy::kWorkStealing;
  // Slice/quantum override in microseconds; 0 keeps the policy default
  // (12.5 us RR slice, 5 us work-stealing quantum).
  std::int64_t time_slice_us = 0;
  // Builds the policy instead of `policy` (the registry's `make`
  // signature): called once per worker shard, or once for a centralized
  // policy.
  std::unique_ptr<SchedPolicy> (*custom_policy)() = nullptr;
  // Ignored: there is one driver. Kept only because the repo benchmark's
  // ladder still sets it.
  bool force_locked = false;
};

class HostSched {
 public:
  HostSched(int workers, const HostSchedOptions& options);
  ~HostSched();  // out of line: Shard is an incomplete type here

  // Every operation below runs policy code under a shard spinlock, so it
  // must never reach a switch primitive — hence the blanket
  // SKYLOFT_NO_SWITCH.

  // task_enqueue (and task_init when `flags` has kEnqueueNew). `worker_hint`
  // is a global worker index (or -1): a valid hint routes to that worker's
  // shard, no hint places the item with ExternalTarget().
  SKYLOFT_NO_SWITCH void Enqueue(SchedItem* item, unsigned flags, int worker_hint);
  SKYLOFT_NO_SWITCH void EnqueueNew(SchedItem* item, unsigned flags, int worker_hint) {
    Enqueue(item, flags | kEnqueueNew, worker_hint);
  }

  // task_terminate + task_dequeue fused: retire a finished item and fetch
  // the worker's next task in one acquisition (the exit fast path).
  SKYLOFT_NO_SWITCH SchedItem* Retire(SchedItem* dead, int worker);

  // task_dequeue for `worker`; on an empty shard steals (the paper's idle
  // path). A stolen item counts as a steal.
  SKYLOFT_NO_SWITCH SchedItem* Dequeue(int worker);

  // Enqueue(item, flags, worker) + Dequeue(worker) fused — the scheduler's
  // yield-completion fast path. Work absorbed from the mailbox is queued
  // ahead of `item`, so a fresh wakeup runs before the yielder.
  SKYLOFT_NO_SWITCH SchedItem* Requeue(SchedItem* item, unsigned flags, int worker);

  // sched_timer_tick for `worker`; true => preempt `current`.
  SKYLOFT_NO_SWITCH bool Tick(int worker, SchedItem* current, DurationNs ran_ns);

  // Live quantum control (the adaptive controller's fast knob), forwarded to
  // the policy under the shard lock. Callable from any thread. `worker` < 0
  // targets all workers; `quantum_ns` <= 0 disables tick preemption.
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns, int worker);
  // The quantum in force for `worker`, in the policy's own convention.
  SKYLOFT_NO_SWITCH DurationNs QuantumFor(int worker) const;

  // Placement target for submissions that originate off-runtime (external
  // Unpark, Run()'s main thread): first idle worker (one bitmap word scan),
  // else the worker with the (approximately) shortest queue.
  SKYLOFT_NO_SWITCH int ExternalTarget() const;

  SKYLOFT_NO_SWITCH void SetIdle(int worker, bool idle);

  std::uint64_t steals() const { return steals_->Value(); }
  const char* PolicyName() const;
  int workers() const { return workers_; }

 private:
  struct Shard;

  Shard& ShardOf(int worker) const;
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(host_shard) static void LockShard(Shard& s);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(host_shard) static void UnlockShard(Shard& s);
  // Under the owner's lock: moves `worker`'s mailbox into its policy.
  SKYLOFT_NO_SWITCH void Absorb(Shard& s, int worker);
  // Under `s`'s lock: task_init for kEnqueueNew, then task_enqueue.
  SKYLOFT_NO_SWITCH static void EnqueueLocked(Shard& s, SchedItem* item, unsigned flags,
                                              int worker);
  // Under `s`'s lock: republishes the shard's queued count.
  SKYLOFT_NO_SWITCH static void Publish(Shard& s);
  SKYLOFT_NO_SWITCH SchedItem* Steal(int worker);

  int workers_;
  // One shard per worker, or a single shard covering every worker for a
  // centralized policy.
  std::vector<std::unique_ptr<Shard>> shards_;

  // Worker state the policies read through EngineView and ExternalTarget
  // reads for placement.
  AtomicBitmap idle_map_;

  MetricGroup metrics_{"host_sched"};
  // All owned by metrics_; one cache-line lane per worker so hot-path
  // accounting never contends on a shared counter word.
  ShardedCounter* steals_ = nullptr;           // items gained by stealing
  ShardedCounter* mailbox_drains_ = nullptr;   // non-empty mailbox drains
  ShardedCounter* steal_attempts_ = nullptr;   // locked probes of a victim
  ShardedCounter* steal_successes_ = nullptr;  // probes that won an item
  ShardedCounter* cas_retries_ = nullptr;      // mailbox-push CAS retries
};

// Per-worker view of HostSched: what the runtime's WorkerLoop holds.
class HostSchedCore {
 public:
  void Bind(HostSched* sched, int worker) {
    sched_ = sched;
    worker_ = worker;
  }
  SKYLOFT_NO_SWITCH SchedItem* Dequeue() { return sched_->Dequeue(worker_); }
  SKYLOFT_NO_SWITCH void Enqueue(SchedItem* item, unsigned flags) {
    sched_->Enqueue(item, flags, worker_);
  }
  SKYLOFT_NO_SWITCH SchedItem* Requeue(SchedItem* item, unsigned flags) {
    return sched_->Requeue(item, flags, worker_);
  }
  SKYLOFT_NO_SWITCH SchedItem* Retire(SchedItem* dead) { return sched_->Retire(dead, worker_); }
  SKYLOFT_NO_SWITCH bool Tick(SchedItem* current, DurationNs ran_ns) {
    // skylint:allow(switch-in-noswitch) -- HostSched::Tick is shard-locked; name collides with the sim engines' Tick
    return sched_->Tick(worker_, current, ran_ns);
  }
  SKYLOFT_NO_SWITCH void SetIdle(bool idle) { sched_->SetIdle(worker_, idle); }

 private:
  HostSched* sched_ = nullptr;
  int worker_ = 0;
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_HOST_SCHED_H_
