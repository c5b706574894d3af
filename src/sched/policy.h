// The general scheduling-operations interface (paper §3.4, Table 2).
//
// A scheduling policy implements these operations and nothing else; the
// engines drive it. Two kinds of engine exist:
//   - the simulated engines (src/libos: per-CPU with user-space timer
//     interrupts, or centralized with a dispatcher), scheduling simulated
//     Tasks, and
//   - the host runtime (src/runtime), scheduling real user-level threads
//     through the HostSchedCore adapter.
// This header deliberately depends only on src/base: the same policy
// translation units compile into both substrates. That is the paper's
// central claim of generality — RR, CFS, EEVDF, Shinjuku,
// Shinjuku+Shenango and preemptive work stealing are each a few hundred
// lines against this interface.
#ifndef SRC_SCHED_POLICY_H_
#define SRC_SCHED_POLICY_H_

#include <cstddef>
#include <vector>

#include "src/base/compiler.h"
#include "src/base/time.h"
#include "src/sched/sched_item.h"

namespace skyloft {

// Read-only view of engine state offered to policies (e.g. for stealing
// decisions and congestion detection). Implemented by the simulated Engine
// and by the host runtime's per-shard view.
class EngineView {
 public:
  virtual ~EngineView() = default;
  virtual TimeNs Now() const = 0;
  virtual int NumWorkers() const = 0;
  // The physical core (sim) or global worker index (host) behind a worker.
  virtual int WorkerCore(int index) const = 0;
  virtual bool IsWorkerIdle(int index) const = 0;
};

// Every Table 2 operation is SKYLOFT_NO_SWITCH: policies run under the host
// runtime's shard locks (or inside the sim event loop) and must never reach
// a context-switch primitive. skylint enforces this transitively over every
// policy implementation.
class SchedPolicy {
 public:
  virtual ~SchedPolicy() = default;

  // sched_init: policy-defined scheduler state.
  SKYLOFT_NO_SWITCH virtual void SchedInit(EngineView* view) { view_ = view; }

  // task_init / task_terminate: manage the policy-defined field of a task.
  SKYLOFT_NO_SWITCH virtual void TaskInit(SchedItem* item) {}
  SKYLOFT_NO_SWITCH virtual void TaskTerminate(SchedItem* item) {}

  // task_enqueue: puts a task on a runqueue. `worker_hint` is the engine
  // worker index the event originated from (kInvalidCore-like -1 when none).
  SKYLOFT_NO_SWITCH virtual void TaskEnqueue(SchedItem* item, unsigned flags,
                                             int worker_hint) = 0;

  // task_dequeue: selects and removes the next task for the given worker.
  // Centralized policies ignore `worker` (single global queue).
  SKYLOFT_NO_SWITCH virtual SchedItem* TaskDequeue(int worker) = 0;

  // sched_timer_tick: updates policy state on each tick; returns true when
  // the current task must be preempted. `ran_ns` is wall time the task has
  // run since it was last charged; `current` may be nullptr (idle tick).
  SKYLOFT_NO_SWITCH virtual bool SchedTimerTick(int worker, SchedItem* current,
                                                DurationNs ran_ns) = 0;

  // sched_balance: per-CPU only; invoked when `worker` would go idle.
  SKYLOFT_NO_SWITCH virtual void SchedBalance(int worker) {}

  // True when the policy uses a single global queue fed by a dispatcher
  // (sched_poll model) rather than per-CPU queues.
  SKYLOFT_NO_SWITCH virtual bool IsCentralized() const { return false; }

  // ---- Dynamic quantum control ----
  //
  // Worker argument meaning "every worker" for SetQuantum/QuantumFor.
  static constexpr int kAllWorkers = -1;

  // Updates the policy's preemption quantum (time slice / granularity) for
  // `worker`, or for all workers when kAllWorkers. Drivers call this under
  // the same serialization as the Table 2 methods (shard lock on the host,
  // event loop in the sim), so implementations may use plain fields; the
  // change takes effect from the next tick/enqueue that consults it —
  // in-flight slices are not re-evaluated retroactively. `quantum_ns` <= 0
  // means "infinite" (disable tick preemption). The default ignores the
  // request, for policies with no quantum notion (e.g. FIFO).
  SKYLOFT_NO_SWITCH virtual void SetQuantum(DurationNs quantum_ns, int worker) {}

  // The quantum currently in force for `worker` (same units/sentinel rules as
  // SetQuantum); 0 when the policy has no quantum notion.
  SKYLOFT_NO_SWITCH virtual DurationNs QuantumFor(int worker) const { return 0; }

  // Number of runnable tasks currently queued (all queues). Used by engines
  // for work-conservation checks and by core allocators for congestion.
  SKYLOFT_NO_SWITCH virtual std::size_t QueuedTasks() const = 0;

  virtual const char* Name() const = 0;

 protected:
  EngineView* view_ = nullptr;
};

// Per-worker quantum table backing the built-in policies' SetQuantum /
// QuantumFor implementations: a global value plus sparse per-worker
// overrides, normalized so requests <= 0 become the policy's "infinite"
// sentinel. Grows on demand, so it works even before SchedInit. Callers
// serialize access the same way they serialize the Table 2 methods.
class QuantumTable {
 public:
  QuantumTable(DurationNs global, DurationNs infinite)
      : infinite_(infinite), global_(Normalize(global)) {}

  SKYLOFT_NO_SWITCH void Set(DurationNs quantum_ns, int worker) {
    const DurationNs q = Normalize(quantum_ns);
    if (worker < 0) {
      global_ = q;
      global_explicit_ = true;
      overrides_.clear();
      return;
    }
    if (static_cast<std::size_t>(worker) >= overrides_.size()) {
      overrides_.resize(static_cast<std::size_t>(worker) + 1, kUnset);
    }
    overrides_[static_cast<std::size_t>(worker)] = q;
  }

  SKYLOFT_NO_SWITCH DurationNs For(int worker) const {
    if (worker >= 0 && static_cast<std::size_t>(worker) < overrides_.size() &&
        overrides_[static_cast<std::size_t>(worker)] != kUnset) {
      return overrides_[static_cast<std::size_t>(worker)];
    }
    return global_;
  }

  // True when SetQuantum has explicitly pinned a value for `worker` (either
  // per-worker or globally). Policies whose default slice is computed (CFS's
  // sched_latency / nr_runnable) bypass the formula only in that case.
  SKYLOFT_NO_SWITCH bool IsExplicit(int worker) const {
    if (worker >= 0 && static_cast<std::size_t>(worker) < overrides_.size() &&
        overrides_[static_cast<std::size_t>(worker)] != kUnset) {
      return true;
    }
    return global_explicit_;
  }

 private:
  static constexpr DurationNs kUnset = -1;

  DurationNs Normalize(DurationNs q) const { return q <= 0 ? infinite_ : q; }

  DurationNs infinite_;
  DurationNs global_;
  bool global_explicit_ = false;
  std::vector<DurationNs> overrides_;
};

}  // namespace skyloft

#endif  // SRC_SCHED_POLICY_H_
