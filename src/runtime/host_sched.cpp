#include "src/runtime/host_sched.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "src/base/logging.h"
#include "src/base/mpsc_queue.h"
#include "src/policies/cfs.h"
#include "src/policies/eevdf.h"
#include "src/policies/round_robin.h"
#include "src/policies/work_stealing.h"

namespace skyloft {

namespace {

TimeNs HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<SchedPolicy> MakeHostPolicy(RuntimePolicy policy, std::int64_t time_slice_us) {
  switch (policy) {
    case RuntimePolicy::kFifo:
      return std::make_unique<RoundRobinPolicy>(kInfiniteSlice);
    case RuntimePolicy::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>(
          time_slice_us > 0 ? Micros(time_slice_us) : Micros(12) + 500);
    case RuntimePolicy::kCfs: {
      CfsParams params;
      if (time_slice_us > 0) {
        // The override sets the slice floor; widen sched_latency when the
        // requested granularity would otherwise exceed it, so the dynamic
        // slice actually lengthens instead of saturating at the old latency.
        params.min_granularity = Micros(time_slice_us);
        params.sched_latency = std::max(params.sched_latency, 4 * params.min_granularity);
      }
      return std::make_unique<CfsPolicy>(params);
    }
    case RuntimePolicy::kEevdf: {
      EevdfParams params;
      if (time_slice_us > 0) {
        params.base_slice = Micros(time_slice_us);
      }
      return std::make_unique<EevdfPolicy>(params);
    }
    case RuntimePolicy::kWorkStealing:
      break;
  }
  WorkStealingParams params;
  if (time_slice_us > 0) {
    params.quantum = Micros(time_slice_us);
  }
  return std::make_unique<WorkStealingPolicy>(params);
}

// At most this many items move per steal: half of a huge backlog would hold
// the victim's lock for a long scan.
constexpr int kStealBatchMax = 8;

}  // namespace

// One policy instance and the EngineView it schedules through. It covers
// workers [base, base + count): one worker, or every worker for a
// centralized policy. Policy worker indices are local (worker - base).
// Cache-line aligned so neighbor shards never share a line. The published
// count and the mailbox's head each sit on a line of their own, so idle
// thieves polling the count never contend with the owner's lock word.
struct alignas(kCacheLineSize) HostSched::Shard : EngineView {
  Shard(std::unique_ptr<SchedPolicy> p, const AtomicBitmap* idle, int first, int n)
      : policy(std::move(p)), idle_map(idle), base(first), count(n) {}

  std::atomic_flag spin;
  std::unique_ptr<SchedPolicy> policy;
  const AtomicBitmap* idle_map;
  int base;
  int count;
  // policy->QueuedTasks(), published under the lock for thieves and
  // placement to read without it.
  alignas(kCacheLineSize) std::atomic<int> queued{0};
  // Submissions to a per-worker shard; only the owner drains it.
  MpscQueue<SchedItem> mailbox;

  TimeNs Now() const override { return HostNowNs(); }
  int NumWorkers() const override { return count; }
  int WorkerCore(int index) const override { return base + index; }
  bool IsWorkerIdle(int index) const override { return idle_map->Test(base + index); }
};

HostSched::HostSched(int workers, const HostSchedOptions& options)
    : workers_(workers), idle_map_(workers >= 1 ? workers : 1) {
  SKYLOFT_CHECK(workers_ >= 1);
  steals_ = metrics_.AddSharded("steals", workers_);
  mailbox_drains_ = metrics_.AddSharded("mailbox_drains", workers_);
  steal_attempts_ = metrics_.AddSharded("steal_attempts", workers_);
  steal_successes_ = metrics_.AddSharded("steal_successes", workers_);
  cas_retries_ = metrics_.AddSharded("mailbox_cas_retries", workers_);

  const auto make = [&options] {
    return options.custom_policy != nullptr
               ? options.custom_policy()
               : MakeHostPolicy(options.policy, options.time_slice_us);
  };
  std::unique_ptr<SchedPolicy> first = make();
  const bool centralized = first->IsCentralized();
  const int shards = centralized ? 1 : workers_;
  for (int s = 0; s < shards; s++) {
    shards_.push_back(std::make_unique<Shard>(s == 0 ? std::move(first) : make(), &idle_map_,
                                              s, centralized ? workers_ : 1));
    shards_.back()->policy->SchedInit(shards_.back().get());
  }
}

HostSched::~HostSched() = default;

HostSched::Shard& HostSched::ShardOf(int worker) const {
  return *shards_[shards_.size() == 1 ? 0 : static_cast<std::size_t>(worker)];
}

void HostSched::LockShard(Shard& s) {
  SpinBackoff backoff;
  while (s.spin.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void HostSched::UnlockShard(Shard& s) { s.spin.clear(std::memory_order_release); }

void HostSched::Publish(Shard& s) {
  const int queued = static_cast<int>(s.policy->QueuedTasks());
  if (s.queued.load(std::memory_order_relaxed) != queued) {
    s.queued.store(queued, std::memory_order_relaxed);
  }
}

void HostSched::Absorb(Shard& s, int worker) {
  if (s.mailbox.EmptyApprox()) {
    return;
  }
  // Only the owner drains, so the chain is non-empty. It arrives
  // newest-first: relink it oldest-first so the policy sees submissions in
  // arrival order.
  SchedItem* chain = s.mailbox.DrainReversed();
  mailbox_drains_->Inc(worker);
  SchedItem* oldest = nullptr;
  while (chain != nullptr) {
    SchedItem* next = MpscQueue<SchedItem>::Next(chain);
    chain->mpsc_next.store(oldest, std::memory_order_relaxed);
    oldest = chain;
    chain = next;
  }
  while (oldest != nullptr) {
    SchedItem* item = oldest;
    oldest = MpscQueue<SchedItem>::Next(item);
    EnqueueLocked(s, item, item->enqueue_flags, worker);
  }
}

void HostSched::EnqueueLocked(Shard& s, SchedItem* item, unsigned flags, int worker) {
  if (flags & kEnqueueNew) {
    s.policy->TaskInit(item);
  }
  s.policy->TaskEnqueue(item, flags, worker - s.base);
}

void HostSched::Enqueue(SchedItem* item, unsigned flags, int worker_hint) {
  const int target =
      (worker_hint >= 0 && worker_hint < workers_) ? worker_hint : ExternalTarget();
  Shard& s = ShardOf(target);
  if (s.count > 1) {
    // A shared shard has no single owner to drain a mailbox.
    LockShard(s);
    EnqueueLocked(s, item, flags, target);
    Publish(s);
    UnlockShard(s);
    return;
  }
  item->enqueue_flags = flags;
  const int retries = s.mailbox.Push(item);
  if (SKYLOFT_UNLIKELY(retries != 0)) {
    cas_retries_->Inc(target, static_cast<std::uint64_t>(retries));
  }
}

SchedItem* HostSched::Dequeue(int worker) {
  Shard& s = ShardOf(worker);
  SchedItem* item = nullptr;
  // An idle worker keeps off its own lock (and its published count's line)
  // until something arrives.
  if (s.queued.load(std::memory_order_relaxed) != 0 || !s.mailbox.EmptyApprox()) {
    LockShard(s);
    Absorb(s, worker);
    item = s.policy->TaskDequeue(worker - s.base);
    Publish(s);
    UnlockShard(s);
  }
  return item != nullptr ? item : Steal(worker);
}

SchedItem* HostSched::Requeue(SchedItem* item, unsigned flags, int worker) {
  Shard& s = ShardOf(worker);
  LockShard(s);
  Absorb(s, worker);
  s.policy->TaskEnqueue(item, flags, worker - s.base);
  SchedItem* next = s.policy->TaskDequeue(worker - s.base);
  Publish(s);
  UnlockShard(s);
  return next;
}

SchedItem* HostSched::Retire(SchedItem* dead, int worker) {
  Shard& s = ShardOf(worker);
  LockShard(s);
  Absorb(s, worker);
  s.policy->TaskTerminate(dead);
  SchedItem* next = s.policy->TaskDequeue(worker - s.base);
  Publish(s);
  UnlockShard(s);
  return next != nullptr ? next : Steal(worker);
}

bool HostSched::Tick(int worker, SchedItem* current, DurationNs ran_ns) {
  Shard& s = ShardOf(worker);
  LockShard(s);
  Absorb(s, worker);  // a tick sees fresh wakeups
  const bool preempt = s.policy->SchedTimerTick(worker - s.base, current, ran_ns);
  Publish(s);
  UnlockShard(s);
  return preempt;
}

// Takes up to half (at most kStealBatchMax) of the first other shard whose
// published count is non-zero, then runs the best of them by its own policy.
SchedItem* HostSched::Steal(int worker) {
  const int shards = static_cast<int>(shards_.size());
  for (int i = 1; i < shards; i++) {
    Shard& victim = *shards_[static_cast<std::size_t>((worker + i) % shards)];
    if (victim.queued.load(std::memory_order_relaxed) <= 0) {
      continue;
    }
    steal_attempts_->Inc(worker);
    SchedItem* batch[kStealBatchMax];
    int got = 0;
    LockShard(victim);
    const int want =
        std::min(kStealBatchMax, static_cast<int>(victim.policy->QueuedTasks() + 1) / 2);
    while (got < want) {
      SchedItem* item = victim.policy->TaskDequeue(0);
      if (item == nullptr) {
        break;
      }
      batch[got++] = item;
    }
    Publish(victim);
    UnlockShard(victim);
    if (got == 0) {
      continue;
    }
    steal_successes_->Inc(worker);
    steals_->Inc(worker, static_cast<std::uint64_t>(got));
    Shard& me = *shards_[static_cast<std::size_t>(worker)];
    LockShard(me);
    Absorb(me, worker);
    for (int k = 0; k < got; k++) {
      me.policy->TaskEnqueue(batch[k], kEnqueueWakeup, 0);
    }
    SchedItem* next = me.policy->TaskDequeue(0);
    Publish(me);
    UnlockShard(me);
    return next;
  }
  return nullptr;
}

int HostSched::ExternalTarget() const {
  const int idle = idle_map_.FindFirstSet();
  if (idle >= 0 && idle < workers_) {
    return idle;
  }
  // Least loaded by published counts, plus one for an undrained mailbox
  // (its exact size is unknowable without draining it).
  int best = 0;
  int best_len = INT32_MAX;
  for (int w = 0; w < workers_; w++) {
    const Shard& s = ShardOf(w);
    const int len = s.queued.load(std::memory_order_relaxed) + (s.mailbox.EmptyApprox() ? 0 : 1);
    if (len < best_len) {
      best_len = len;
      best = w;
    }
  }
  return best;
}

void HostSched::SetIdle(int worker, bool idle) {
  // The idle loop republishes its state every poll round; only transitions
  // touch the shared bitmap word, so steady-state idle polling stays a load.
  if (idle_map_.Test(worker) != idle) {
    if (idle) {
      idle_map_.Set(worker);
    } else {
      idle_map_.Clear(worker);
    }
  }
}

void HostSched::SetQuantum(DurationNs quantum_ns, int worker) {
  if (worker >= 0 && worker < workers_) {
    Shard& s = ShardOf(worker);
    LockShard(s);
    s.policy->SetQuantum(quantum_ns, worker - s.base);
    UnlockShard(s);
    return;
  }
  for (const auto& s : shards_) {
    LockShard(*s);
    s->policy->SetQuantum(quantum_ns, SchedPolicy::kAllWorkers);
    UnlockShard(*s);
  }
}

DurationNs HostSched::QuantumFor(int worker) const {
  if (worker < 0 || worker >= workers_) {
    worker = 0;
  }
  Shard& s = ShardOf(worker);
  LockShard(s);
  const DurationNs quantum = s.policy->QuantumFor(worker - s.base);
  UnlockShard(s);
  return quantum;
}

const char* HostSched::PolicyName() const { return shards_[0]->policy->Name(); }

}  // namespace skyloft
