// Work-stealing policy (paper §5.3, Table 4: "Skyloft Work-Stealing
// (Preemptive)", 150 LOC in the original).
//
// Shenango-style: per-worker FIFO deques; an idle worker steals half of a
// random victim's queue. The same policy runs in two modes:
//   - non-preemptive (Shenango-equivalent): tasks run to completion, which
//     suffers head-of-line blocking on heavy-tailed workloads (Fig. 8b)
//   - preemptive: the engine's user-space timer ticks call SchedTimerTick,
//     and any task that has run a full quantum while work is waiting gets
//     preempted — the paper's 5 us quantum gives 1.9x Shenango's load at the
//     same slowdown SLO
#ifndef SRC_POLICIES_WORK_STEALING_H_
#define SRC_POLICIES_WORK_STEALING_H_

#include <vector>

#include "src/base/intrusive_list.h"
#include "src/base/random.h"
#include "src/sched/policy.h"

namespace skyloft {

struct WorkStealingParams {
  // Preemption quantum consulted on timer ticks; kInfiniteSliceWs disables.
  DurationNs quantum = Micros(5);
  std::uint64_t steal_seed = 1;
};

inline constexpr DurationNs kInfiniteSliceWs = INT64_MAX;

class WorkStealingPolicy : public SchedPolicy {
 public:
  explicit WorkStealingPolicy(WorkStealingParams params)
      : params_(params),
        rng_(params.steal_seed),
        quantum_(params.quantum, kInfiniteSliceWs) {}

  SKYLOFT_NO_SWITCH void SchedInit(EngineView* view) override;
  SKYLOFT_NO_SWITCH void TaskInit(SchedItem* task) override;
  SKYLOFT_NO_SWITCH void TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) override;
  SKYLOFT_NO_SWITCH SchedItem* TaskDequeue(int worker) override;
  SKYLOFT_NO_SWITCH bool SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) override;
  SKYLOFT_NO_SWITCH void SchedBalance(int worker) override;
  SKYLOFT_NO_SWITCH std::size_t QueuedTasks() const override { return queued_; }
  const char* Name() const override { return "skyloft-ws"; }

  // Live quantum control (sim engines, and the host under the shard lock).
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns, int worker) override {
    quantum_.Set(quantum_ns, worker);
  }
  SKYLOFT_NO_SWITCH DurationNs QuantumFor(int worker) const override {
    return quantum_.For(worker);
  }

  std::uint64_t steals() const { return steals_; }

 private:
  struct WsData {
    DurationNs ran = 0;
  };

  WorkStealingParams params_;
  Rng rng_;
  QuantumTable quantum_;
  std::vector<IntrusiveList<SchedItem>> queues_;
  std::size_t queued_ = 0;
  std::uint64_t steals_ = 0;
  int next_queue_ = 0;
};

}  // namespace skyloft

#endif  // SRC_POLICIES_WORK_STEALING_H_
