#include "src/runtime/uthread.h"

#include <link.h>
#include <pthread.h>
#include <ucontext.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <ctime>
#include <new>

#include "src/base/logging.h"
#include "src/runtime/context.h"
#include "src/runtime/quantum_controller.h"

// ThreadSanitizer cannot follow hand-rolled stack switches on its own: every
// uthread stack is announced as a TSan "fiber" and each skyloft_ctx_switch
// is bracketed by __tsan_switch_to_fiber so the race detector tracks the
// happens-before of the scheduler correctly.
#if defined(__SANITIZE_THREAD__)
#define SKYLOFT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SKYLOFT_TSAN 1
#endif
#endif

#ifdef SKYLOFT_TSAN
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// AddressSanitizer likewise needs each stack switch announced, or its
// interceptors flag the new stack pointer as outside the pthread's stack.
// Protocol: __sanitizer_start_switch_fiber (with the DESTINATION stack's
// bounds, saving the departing context's fake-stack handle) immediately
// before the switch; __sanitizer_finish_switch_fiber (with the handle this
// context saved when it last left) immediately after landing. A null save
// slot on a definitive exit destroys the departing fiber's fake stack.
#if defined(__SANITIZE_ADDRESS__)
#define SKYLOFT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SKYLOFT_ASAN 1
#endif
#endif

#ifdef SKYLOFT_ASAN
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr, size_t size);
}
#endif

namespace skyloft {

namespace {

// One runtime at a time may be running; the static API resolves through this.
Runtime* g_runtime = nullptr;

// What the uthread asked the scheduler to do when it switched out.
//   kTick: the preemption timer fired; the scheduler runs sched_timer_tick
//   and either requeues the uthread (preempt) or resumes it directly.
enum class SwitchAction : std::uint8_t { kNone, kYield, kPark, kTick, kExit };

constexpr int kPreemptSignal = SIGURG;

// --- Async-preemption safe points -----------------------------------------
//
// The preemption signal can land anywhere, including inside glibc's malloc.
// glibc's tcache is per-pthread and LOCKLESS: it assumes one execution
// context per pthread. If the handler switches away mid-allocation and this
// pthread then runs another uthread that also allocates, the half-updated
// tcache is corrupted ("malloc(): unaligned tcache chunk", random segfaults).
// The same applies to any libc/ld state keyed on the pthread (stdio lock
// ownership, the dynamic-loader lock during lazy PLT resolution, ...).
//
// Like Go's asynchronous preemption, we only preempt at safe points: the
// handler reads the interrupted PC and defers (returns, letting the next
// timer period retry) unless the PC is inside the main executable's own
// text. Application compute — the paper's preemption target — lives there;
// the non-reentrant per-thread state lives in the shared libraries.
struct TextRange {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
};
TextRange g_exe_text[8];
int g_exe_text_count = 0;

int CollectExeText(struct dl_phdr_info* info, std::size_t /*size*/, void* /*data*/) {
  if (info->dlpi_name != nullptr && info->dlpi_name[0] != '\0') {
    return 0;  // a shared object; the main executable has the empty name
  }
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const auto& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0 &&
        g_exe_text_count < static_cast<int>(sizeof(g_exe_text) / sizeof(g_exe_text[0]))) {
      g_exe_text[g_exe_text_count].lo = info->dlpi_addr + ph.p_vaddr;
      g_exe_text[g_exe_text_count].hi = info->dlpi_addr + ph.p_vaddr + ph.p_memsz;
      g_exe_text_count++;
    }
  }
  return 0;
}

bool PreemptSafePc(std::uintptr_t pc) {
  if (g_exe_text_count == 0) {
    return true;  // no map (fully static build?) — preempt everywhere
  }
  for (int i = 0; i < g_exe_text_count; i++) {
    if (pc >= g_exe_text[i].lo && pc < g_exe_text[i].hi) {
      return true;
    }
  }
  return false;
}

void TsanSwitchTo(void* fiber) {
#ifdef SKYLOFT_TSAN
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

SKYLOFT_SIGNAL_SAFE void AsanStartSwitch(void** fake_stack_save, const void* bottom,
                                         std::size_t size) {
#ifdef SKYLOFT_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

SKYLOFT_SIGNAL_SAFE void AsanFinishSwitch(void* fake_stack_save) {
#ifdef SKYLOFT_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, nullptr, nullptr);
#else
  (void)fake_stack_save;
#endif
}

void AsanUnpoisonStack(const void* stack, std::size_t size) {
#ifdef SKYLOFT_ASAN
  __asan_unpoison_memory_region(stack, size);
#else
  (void)stack;
  (void)size;
#endif
}

// ASan surrounds every addressable local with redzones, so its frames are
// several times larger than plain ones, and a stack sized for a plain build
// overflows (16 KiB connection handlers did). ASan builds scale every
// uthread stack by this factor instead of callers sizing for the sanitizer.
#ifdef SKYLOFT_ASAN
constexpr std::size_t kAsanStackScale = 4;
#else
constexpr std::size_t kAsanStackScale = 1;
#endif

std::int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Trace timestamps for the runtime, including from inside the signal
// handler: clock_gettime(CLOCK_MONOTONIC) is async-signal-safe, unlike the
// std::chrono machinery behind MonotonicNs. Same epoch as MonotonicNs on
// glibc (steady_clock is CLOCK_MONOTONIC), so spans and ticks line up.
SKYLOFT_SIGNAL_SAFE std::int64_t TraceClockNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// glibc marks __errno_location() __attribute__((const)), so the compiler
// reuses one pointer for every `errno` in a frame — including across a
// context switch that migrates the uthread to another pthread, where the
// cached pointer names the WRONG thread's errno. This helper re-derives the
// location on every call; the asm clobber stops const/pure inference.
SKYLOFT_RETURNS_TLS SKYLOFT_SIGNAL_SAFE __attribute__((noinline)) int* CurrentErrnoLocation() {
  asm volatile("" ::: "memory");
  return &errno;
}

}  // namespace

struct RuntimeWorker {
  Runtime* runtime = nullptr;
  int index = 0;

  // Per-worker handle into the policy layer (Table 2 ops under shard locks).
  HostSchedCore sched;

  void* sched_sp = nullptr;
  UThread* current = nullptr;
  SwitchAction action = SwitchAction::kNone;
  // When `current` was switched in (or last charged by a tick): the base for
  // the ran_ns passed to sched_timer_tick.
  std::int64_t run_charge = 0;
  // When `current` was switched in, on the trace clock: the start of the
  // occupancy span the scheduler emits when the uthread switches back out.
  // Separate from run_charge, which is conditional on the signal timer.
  std::int64_t trace_run_start = 0;

  // 0 => the preemption signal handler may switch; anything else defers.
  std::atomic<int> preempt_disable{1};

  void* tsan_fiber = nullptr;  // the worker's scheduler stack, under TSan

  // ASan fiber bookkeeping: the pthread stack's bounds (the switch target
  // when a uthread switches out) and the scheduler context's fake-stack
  // handle, saved while a uthread runs.
  const void* asan_stack_bottom = nullptr;
  std::size_t asan_stack_size = 0;
  void* asan_fake_stack = nullptr;

  pthread_t pthread_handle{};
  std::atomic<bool> handle_valid{false};
};

namespace {
thread_local RuntimeWorker* tl_worker = nullptr;

// UThread park/unpark handshake states (see Park/Unpark):
//   0 running, 1 parking (announced), 2 unpark pending, 3 fully parked
constexpr int kParkRunning = 0;
constexpr int kParkParking = 1;
constexpr int kParkUnparkPending = 2;
constexpr int kParkParked = 3;
}  // namespace

// Park handshake word; kept out of UThread's public header to avoid leaking
// scheduler internals. Allocated immediately after the UThread object in the
// same storage block (see AllocUthread).
struct UThreadExtra {
  std::atomic<int> park{kParkRunning};
  // PreemptGuard depth for this uthread; checked by the signal handler in
  // addition to the worker's own preempt_disable. Per-uthread because a
  // guard can span a Park() that resumes on a different worker.
  std::atomic<int> preempt_count{0};
  void* tsan_fiber = nullptr;
  // This uthread's ASan fake-stack handle, saved while it is switched out.
  // Null on first entry and after an exit (ExitCurrent destroys it).
  void* asan_fake_stack = nullptr;
};

namespace {
UThreadExtra* ExtraOf(UThread* t) { return reinterpret_cast<UThreadExtra*>(t + 1); }

// ASan's fiber switch is only complete once the landing side calls
// __sanitizer_finish_switch_fiber. A timer signal taken on the uthread's
// stack before that point would start a second switch inside the first
// ("starting fiber switch while in fiber switch"), so under ASan SwitchTo
// holds the incoming uthread's PreemptGuard depth across the switch and the
// uthread lifts it once it has landed. Other builds have no such window.
// skylint:allow(preempt-balance) -- hold taken on the scheduler stack for the incoming uthread; AsanLand lifts it on that uthread's stack
void AsanHoldPreempt(UThread* next) {
#ifdef SKYLOFT_ASAN
  ExtraOf(next)->preempt_count.fetch_add(1, std::memory_order_acq_rel);
#else
  (void)next;
#endif
}

// skylint:allow(preempt-balance) -- lifts the hold AsanHoldPreempt took before the switch that landed here
SKYLOFT_SIGNAL_SAFE void AsanLand(UThread* self, void* fake_stack_save) {
  AsanFinishSwitch(fake_stack_save);
#ifdef SKYLOFT_ASAN
  ExtraOf(self)->preempt_count.fetch_sub(1, std::memory_order_acq_rel);
#else
  (void)self;
#endif
}
}  // namespace

Runtime::Runtime(RuntimeOptions options) : options_(options) {
  SKYLOFT_CHECK(options_.workers >= 1);
  SKYLOFT_CHECK(options_.stack_size >= 4096);
  preempt_period_us_.store(options_.preempt_period_us > 0 ? options_.preempt_period_us : 0,
                           std::memory_order_relaxed);
  sched_ = std::make_unique<HostSched>(options_.workers, options_.sched);
  preemptions_ = metrics_.AddCounter("preemptions");
  preempt_deferrals_ = metrics_.AddCounter("preempt_deferrals");
  external_placements_ = metrics_.AddCounter("external_placements");
  metrics_.LinkValue("live_uthreads", [this] { return live_uthreads_.load(std::memory_order_relaxed); });
  tracer_ = options_.tracer;
  for (int i = 0; i < options_.workers; i++) {
    auto worker = std::make_unique<RuntimeWorker>();
    worker->runtime = this;
    worker->index = i;
    worker->sched.Bind(sched_.get(), i);
    workers_.push_back(std::move(worker));
  }
  if (options_.io_engine) {
    io_stats_.polls = io_metrics_.AddSharded("polls", options_.workers);
    io_stats_.events = io_metrics_.AddSharded("events", options_.workers);
    io_stats_.wakeups = io_metrics_.AddSharded("wakeups", options_.workers);
    io_stats_.registered = io_metrics_.AddSharded("registered", options_.workers);
    io_stats_.retired = io_metrics_.AddSharded("retired", options_.workers);
    io_stats_.uring_fallbacks = io_metrics_.AddSharded("uring_fallbacks", options_.workers);
    // Data-path syscall accounting (the bench's syscalls/request family):
    // engines count their io_uring_enter calls and the read/write/accept
    // syscalls their epoll data calls make.
    io_stats_.sys_enter = io_metrics_.AddSharded("sys_enter", options_.workers);
    io_stats_.sys_read = io_metrics_.AddSharded("sys_read", options_.workers);
    io_stats_.sys_write = io_metrics_.AddSharded("sys_write", options_.workers);
    io_stats_.sys_accept = io_metrics_.AddSharded("sys_accept", options_.workers);
    // Completion data-path traffic.
    io_stats_.recv_segments = io_metrics_.AddSharded("recv_segments", options_.workers);
    io_stats_.send_ops = io_metrics_.AddSharded("send_ops", options_.workers);
    io_stats_.completion_accepts = io_metrics_.AddSharded("completion_accepts", options_.workers);
    io_stats_.buf_exhaustions = io_metrics_.AddSharded("buf_exhaustions", options_.workers);
    for (int i = 0; i < options_.workers; i++) {
      engines_.push_back(std::make_unique<IoEngine>(i, options_.io, io_stats_));
    }
  }
}

std::uint64_t Runtime::io_data_syscalls() const {
  if (engines_.empty()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const ShardedCounter* c : {io_stats_.sys_enter, io_stats_.sys_read, io_stats_.sys_write,
                                  io_stats_.sys_accept}) {
    if (c != nullptr) {
      total += c->Value();
    }
  }
  return total;
}

Runtime::~Runtime() {
  // Destroy the placement-new'd UThreads before their storage goes away.
  for (auto& storage : uthread_storage_) {
    auto* t = reinterpret_cast<UThread*>(storage.get());
#ifdef SKYLOFT_TSAN
    if (ExtraOf(t)->tsan_fiber != nullptr) {
      __tsan_destroy_fiber(ExtraOf(t)->tsan_fiber);
    }
#endif
    t->~UThread();
  }
}

UThread* Runtime::AllocUthread(std::function<void()> fn) {
  UThread* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(pool_lock_);
    if (!free_pool_.empty()) {
      t = free_pool_.back();
      free_pool_.pop_back();
    }
  }
  if (t == nullptr) {
    // UThread and its handshake word share one allocation.
    auto storage = std::make_unique<unsigned char[]>(sizeof(UThread) + sizeof(UThreadExtra));
    t = new (storage.get()) UThread();
    new (storage.get() + sizeof(UThread)) UThreadExtra();
    // for_overwrite: zero-initializing would touch (and commit) every stack
    // page up front, which at 10k+ connection-handler uthreads is hundreds
    // of MB of RSS for pages most uthreads never reach.
    t->stack_size = options_.stack_size * kAsanStackScale;
    t->stack = std::make_unique_for_overwrite<unsigned char[]>(t->stack_size);
#ifdef SKYLOFT_TSAN
    ExtraOf(t)->tsan_fiber = __tsan_create_fiber(0);
#endif
    {
      std::lock_guard<std::mutex> lock(pool_lock_);
      uthread_storage_.push_back(std::move(storage));
    }
  }
  t->fn = std::move(fn);
  t->state.store(UthreadState::kRunnable, std::memory_order_relaxed);
  t->joiners.clear();
  t->detached = false;
  ExtraOf(t)->park.store(kParkRunning, std::memory_order_relaxed);
  ExtraOf(t)->preempt_count.store(0, std::memory_order_relaxed);
  ExtraOf(t)->asan_fake_stack = nullptr;  // a recycled uthread is a fresh fiber
  // A recycled stack still carries ASan poison from the frames its previous
  // incarnation abandoned at its final context switch (ExitCurrent never
  // returns, so no epilogue unpoisons them); clear it before reuse.
  AsanUnpoisonStack(t->stack.get(), t->stack_size);
  t->sp = InitContext(t->stack.get(), t->stack_size, &Runtime::UthreadMain, t);
  // Fresh id every incarnation: policies use it for deterministic
  // tie-breaking (CFS), and recycled uthreads are logically new tasks.
  // task_init runs later, fused with the first enqueue (see Schedule).
  t->id = next_uthread_id_.fetch_add(1, std::memory_order_relaxed);
  return t;
}

void Runtime::FreeUthread(UThread* thread) {
  std::lock_guard<std::mutex> lock(pool_lock_);
  free_pool_.push_back(thread);
}

void Runtime::Run(std::function<void()> main_fn) {
  SKYLOFT_CHECK(g_runtime == nullptr) << "only one Runtime may run at a time";
  g_runtime = this;
  stopping_.store(false);

  // Install the preemption signal handler (idempotent). SA_SIGINFO: the
  // handler needs the interrupted PC for the safe-point check.
  if (options_.preempt_period_us > 0) {
    if (g_exe_text_count == 0) {
      dl_iterate_phdr(&CollectExeText, nullptr);
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &Runtime::PreemptSignalHandler;
    sa.sa_flags = SA_NODEFER | SA_RESTART | SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    SKYLOFT_CHECK(sigaction(kPreemptSignal, &sa, nullptr) == 0);
  }

  live_uthreads_.store(1);
  UThread* main_thread = AllocUthread(std::move(main_fn));
  Schedule(main_thread, kEnqueueNew);  // external submission: placed idle-first

  for (int i = 0; i < options_.workers; i++) {
    worker_threads_.emplace_back([this, i] { WorkerLoop(i); });
  }

  // Housekeeping thread: wakes expired sleepers and (when enabled) delivers
  // the preemption signal to every worker each period — the host stand-in
  // for per-core user timer interrupts. The signal only enters the
  // scheduler; the policy's sched_timer_tick decides whether to preempt.
  //
  // The periodic loop tracks an ABSOLUTE deadline, not a relative sleep: the
  // signal fan-out plus sleeper wakeups cost a variable amount per round, and
  // a relative sleep_for would add that cost to every period — the delivered
  // tick rate used to drift well below the configured one. The period is
  // reread each round so SetPreemptPeriodUs retunes the running timer.
  //
  // With neither the preemption timer nor a quantum controller there is
  // nothing periodic to do: the thread blocks until the earliest sleeper's
  // deadline (SleepFor kicks it when it inserts an earlier one, and the stop
  // below kicks it out), so it never wakes the workers' CPUs for nothing.
  const bool periodic = options_.preempt_period_us > 0 || options_.quantum_controller != nullptr;
  std::thread timer_thread([this, periodic] {
    auto next = std::chrono::steady_clock::now();
    auto next_controller_poll = next;
    while (!stopping_.load(std::memory_order_relaxed)) {
      const std::int64_t period_us = preempt_period_us_.load(std::memory_order_relaxed);
      // The handler is only installed when the runtime started with
      // preemption on; a live period of 0 pauses delivery.
      if (options_.preempt_period_us > 0 && period_us > 0) {
        for (auto& worker : workers_) {
          if (worker->handle_valid.load(std::memory_order_acquire)) {
            pthread_kill(worker->pthread_handle, kPreemptSignal);
          }
        }
      }
      // Wake sleepers whose deadline passed.
      const auto now = std::chrono::steady_clock::now();
      std::vector<UThread*> due;
      {
        std::lock_guard<std::mutex> lock(sleep_lock_);
        auto it = sleepers_.begin();
        while (it != sleepers_.end() && it->first <= now) {
          due.push_back(it->second);
          it = sleepers_.erase(it);
        }
      }
      for (UThread* t : due) {
        Unpark(t);
      }
      if (!periodic) {
        std::unique_lock<std::mutex> lock(sleep_lock_);
        if (stopping_.load(std::memory_order_relaxed)) {
          break;
        }
        if (sleepers_.empty()) {
          sleep_kick_.wait(lock);
        } else {
          sleep_kick_.wait_until(lock, sleepers_.begin()->first);
        }
        continue;
      }
      // Slow-path quantum-controller poll: runs on this housekeeping thread
      // (never a worker, never a signal handler), so allocation is fine.
      if (options_.quantum_controller != nullptr && now >= next_controller_poll) {
        options_.quantum_controller->Poll(MonotonicNs());
        next_controller_poll =
            now + std::chrono::microseconds(
                      options_.quantum_poll_us > 0 ? options_.quantum_poll_us : 5000);
      }
      next += std::chrono::microseconds(period_us > 0 ? period_us : 100);
      const auto after = std::chrono::steady_clock::now();
      if (next <= after) {
        // Overran the period (heavy fan-out round, scheduler hiccup, or the
        // period was just shortened): re-base to now rather than burst-firing
        // a catch-up train of signals.
        next = after + std::chrono::microseconds(period_us > 0 ? period_us : 100);
      }
      // skylint:allow(blocking-call-on-worker) -- timer lambda runs on its own dedicated std::thread, not a runtime worker; sleeping is its job
      std::this_thread::sleep_until(next);
    }
  });

  // Wait for every user thread to finish; the last exit notifies.
  for (std::int64_t live = live_uthreads_.load(std::memory_order_acquire); live > 0;
       live = live_uthreads_.load(std::memory_order_acquire)) {
    live_uthreads_.wait(live, std::memory_order_acquire);
  }
  {
    // Under sleep_lock_ so the timer thread cannot miss the kick between its
    // stopping_ check and its wait.
    std::lock_guard<std::mutex> lock(sleep_lock_);
    stopping_.store(true);
  }
  sleep_kick_.notify_all();
  for (auto& t : worker_threads_) {
    t.join();
  }
  worker_threads_.clear();
  timer_thread.join();
  g_runtime = nullptr;
}

void Runtime::SleepFor(std::int64_t duration_us) {
  Runtime* rt = g_runtime;
  SKYLOFT_CHECK(rt != nullptr);
  UThread* self = Current();
  {
    Runtime::PreemptGuard guard;
    bool earliest = false;
    {
      std::lock_guard<std::mutex> lock(rt->sleep_lock_);
      const auto it = rt->sleepers_.emplace(
          std::chrono::steady_clock::now() + std::chrono::microseconds(duration_us), self);
      earliest = it == rt->sleepers_.begin();
    }
    if (earliest) {
      rt->sleep_kick_.notify_one();  // a blocked timer thread must rearm
    }
  }
  Park();
}

void Runtime::WorkerLoop(int index) {
  RuntimeWorker* worker = workers_[static_cast<std::size_t>(index)].get();
  tl_worker = worker;
  worker->pthread_handle = pthread_self();
#ifdef SKYLOFT_TSAN
  worker->tsan_fiber = __tsan_get_current_fiber();
#endif
#ifdef SKYLOFT_ASAN
  {
    // Uthreads switching out target this pthread's stack; ASan needs its
    // bounds at every such start_switch_fiber call.
    pthread_attr_t attr;
    SKYLOFT_CHECK(pthread_getattr_np(pthread_self(), &attr) == 0);
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    SKYLOFT_CHECK(pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0);
    pthread_attr_destroy(&attr);
    worker->asan_stack_bottom = stack_addr;
    worker->asan_stack_size = stack_size;
  }
#endif
  worker->handle_valid.store(true, std::memory_order_release);

  IoEngine* engine = io_engine(index);

  // One scheduling round: run `next`; once it switches out, poll the engine;
  // then complete the uthread's action, which may pick the next round's
  // `next` directly (a requeue winner, or a tick that resumes `prev`). The
  // poll comes before the completion (I/O first): handlers woken by socket
  // readiness land in THIS worker's mailbox, which the completion absorbs
  // into the policy ahead of a requeued yielder and before a tick's
  // preemption decision. Polled after the completion, a request that
  // arrived during the segment would wait one more batch unit or quantum
  // (DESIGN.md §10, "Round order").
  UThread* next = nullptr;
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (next == nullptr) {
      next = FindWork(worker);
    }
    if (next == nullptr) {
      // Out of runnable work: push any deferred io_uring submissions before
      // the OS yield (which can cost a whole timeslice on a loaded box) so
      // the kernel processes them while this worker is off-CPU, then poll
      // for whatever arrived meanwhile.
      if (engine != nullptr) {
        engine->FlushSubmissions();
      }
      worker->sched.SetIdle(true);
      std::this_thread::yield();
      if (engine != nullptr) {
        engine->Poll();
      }
      continue;
    }
    worker->sched.SetIdle(false);
    SwitchTo(worker, next);
    next = nullptr;

    // Back on the scheduler stack: poll, then complete whatever the uthread
    // asked.
    UThread* prev = worker->current;
    worker->current = nullptr;
    if (tracer_ != nullptr) {
      // Occupancy span for the segment that just ended ("ph":"X" in the
      // chrome-trace output). Recorded here, not in the uthread, so exits
      // and preemption entries are covered too.
      const std::int64_t span_end = TraceClockNs();
      tracer_->RecordEvent(worker->trace_run_start, TraceEventType::kRun, index, prev->id, 0,
                           span_end - worker->trace_run_start);
    }
    if (engine != nullptr) {
      engine->Poll();
    }
    const SwitchAction action = worker->action;
    worker->action = SwitchAction::kNone;
    switch (action) {
      case SwitchAction::kYield:
        // Fused enqueue+dequeue: one shard-lock round trip on the hot path.
        next = static_cast<UThread*>(worker->sched.Requeue(prev, kEnqueueYield));
        break;
      case SwitchAction::kTick: {
        // sched_timer_tick with the wall time the uthread ran since it was
        // switched in (or last ticked); the policy decides preemption.
        const std::int64_t ran_ns = MonotonicNs() - worker->run_charge;
        if (worker->sched.Tick(prev, ran_ns)) {
          preemptions_->Inc();
          if (tracer_ != nullptr) {
            tracer_->RecordEvent(TraceClockNs(), TraceEventType::kPreempt, index, prev->id, 0);
          }
          prev->state.store(UthreadState::kRunnable, std::memory_order_relaxed);
          next = static_cast<UThread*>(worker->sched.Requeue(prev, kEnqueuePreempted));
        } else {
          next = prev;  // resume without touching the runqueues
        }
        break;
      }
      case SwitchAction::kPark: {
        // Publish "fully parked"; if an unpark raced in, requeue now.
        auto& park = ExtraOf(prev)->park;
        int old = park.exchange(kParkParked, std::memory_order_acq_rel);
        if (old == kParkUnparkPending) {
          park.store(kParkRunning, std::memory_order_release);
          prev->state.store(UthreadState::kRunnable, std::memory_order_release);
          worker->sched.Enqueue(prev, kEnqueueWakeup);
        }
        break;
      }
      case SwitchAction::kExit: {
        // Fused task_terminate + task_dequeue, then release the storage.
        next = static_cast<UThread*>(worker->sched.Retire(prev));
        FreeUthread(prev);
        if (live_uthreads_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          live_uthreads_.notify_all();  // Run() waits for the last exit
        }
        break;
      }
      case SwitchAction::kNone:
        SKYLOFT_CHECK(false) << "uthread switched out without an action";
    }
  }
  worker->handle_valid.store(false, std::memory_order_release);
  tl_worker = nullptr;
}

UThread* Runtime::FindWork(RuntimeWorker* worker) {
  // task_dequeue, with a steal from another worker's shard as the idle
  // fallback.
  return static_cast<UThread*>(worker->sched.Dequeue());
}

void Runtime::SwitchTo(RuntimeWorker* worker, UThread* next) {
  next->state.store(UthreadState::kRunning, std::memory_order_relaxed);
  worker->current = next;
  // run_charge feeds sched_timer_tick; without the signal timer nothing
  // reads it, and the clock call would tax every switch (~30 ns here).
  if (options_.preempt_period_us > 0) {
    worker->run_charge = MonotonicNs();
  }
  if (tracer_ != nullptr) {
    worker->trace_run_start = TraceClockNs();
    tracer_->RecordEvent(worker->trace_run_start, TraceEventType::kAssign, worker->index, next->id,
                         0);
  }
  // Enable preemption for the duration of the uthread's execution. The
  // signal handler additionally verifies it is on the uthread's stack, so
  // the window between this store and the switch is safe.
  AsanHoldPreempt(next);
  worker->preempt_disable.store(0, std::memory_order_release);
  TsanSwitchTo(ExtraOf(next)->tsan_fiber);
  AsanStartSwitch(&worker->asan_fake_stack, next->stack.get(), next->stack_size);
  skyloft_ctx_switch(&worker->sched_sp, next->sp);
  AsanFinishSwitch(worker->asan_fake_stack);
  // Returned from the uthread (it yielded/parked/ticked/exited).
  worker->preempt_disable.store(1, std::memory_order_release);
}

void Runtime::UthreadMain(void* arg) {
  auto* self = static_cast<UThread*>(arg);
  AsanLand(self, nullptr);  // first entry on this stack: nothing to restore
  self->fn();
  g_runtime->ExitCurrent();
  SKYLOFT_CHECK(false) << "resumed an exited uthread";
}

UThread* Runtime::Current() {
  SKYLOFT_CHECK(tl_worker != nullptr && tl_worker->current != nullptr)
      << "not inside a user thread";
  return tl_worker->current;
}

UThread* Runtime::Spawn(std::function<void()> fn) {
  Runtime* rt = g_runtime;
  SKYLOFT_CHECK(rt != nullptr);
  PreemptGuard guard;
  rt->live_uthreads_.fetch_add(1, std::memory_order_acq_rel);
  UThread* t = rt->AllocUthread(std::move(fn));
  rt->Schedule(t, kEnqueueNew);
  return t;
}

// Precondition: uthread-context callers hold a PreemptGuard (Spawn and
// Unpark do) — the shard lock must not be interrupted by the signal timer.
void Runtime::Schedule(UThread* thread, unsigned flags) {
  RuntimeWorker* worker = tl_worker;
  if (worker != nullptr) {
    worker->sched.Enqueue(thread, flags);  // task_init too for kEnqueueNew
    return;
  }
  // Off-runtime submission (external Unpark, Run()'s main thread): place on
  // the first idle worker, falling back to the least-loaded queue, instead
  // of unconditionally piling onto worker 0.
  external_placements_->Inc();
  sched_->Enqueue(thread, flags, sched_->ExternalTarget());
}

// NOTE on the switch-out protocol (Yield / PreemptTick / Park / ExitCurrent):
// the fetch_add on worker->preempt_disable closes the window between setting
// `action` and reaching the scheduler stack — a signal landing there would
// overwrite the action. There is deliberately NO matching fetch_sub after the
// context switch returns: SwitchTo re-arms preemption with an absolute
// store(0) before resuming any uthread, so the counter is scheduler-owned at
// that point. (Touching tl_worker after skyloft_ctx_switch is also unsafe —
// the uthread may have migrated, and the compiler may have cached the old
// pthread's TLS slot address from before the switch.)
// skylint:allow(preempt-balance) -- switch-out protocol: SwitchTo re-arms with store(0), see NOTE
void Runtime::Yield() {
  RuntimeWorker* worker = tl_worker;
  SKYLOFT_CHECK(worker != nullptr && worker->current != nullptr);
  worker->preempt_disable.fetch_add(1, std::memory_order_acq_rel);
  UThread* self = worker->current;
  self->state.store(UthreadState::kRunnable, std::memory_order_relaxed);
  worker->action = SwitchAction::kYield;
  TsanSwitchTo(worker->tsan_fiber);
  AsanStartSwitch(&ExtraOf(self)->asan_fake_stack, worker->asan_stack_bottom,
                  worker->asan_stack_size);
  skyloft_ctx_switch(&self->sp, worker->sched_sp);
  // `worker` is stale here (the uthread may have migrated); `self` is not.
  AsanLand(self, ExtraOf(self)->asan_fake_stack);
}

// Signal-timer entry: hand control to the scheduler stack so the policy tick
// (which takes the shard lock — unsafe in signal context) runs there.
// skylint:allow(preempt-balance) -- switch-out protocol: SwitchTo re-arms with store(0), see NOTE
void Runtime::PreemptTick() {
  RuntimeWorker* worker = tl_worker;
  worker->preempt_disable.fetch_add(1, std::memory_order_acq_rel);
  UThread* self = worker->current;
  worker->action = SwitchAction::kTick;
  TsanSwitchTo(worker->tsan_fiber);
  AsanStartSwitch(&ExtraOf(self)->asan_fake_stack, worker->asan_stack_bottom,
                  worker->asan_stack_size);
  skyloft_ctx_switch(&self->sp, worker->sched_sp);
  AsanLand(self, ExtraOf(self)->asan_fake_stack);
}

// skylint:allow(preempt-balance) -- main path's +1 is re-armed by SwitchTo's store(0), see NOTE
void Runtime::Park() {
  RuntimeWorker* worker = tl_worker;
  SKYLOFT_CHECK(worker != nullptr && worker->current != nullptr);
  worker->preempt_disable.fetch_add(1, std::memory_order_acq_rel);
  UThread* self = worker->current;
  auto& park = ExtraOf(self)->park;
  int expected = kParkRunning;
  if (!park.compare_exchange_strong(expected, kParkParking, std::memory_order_acq_rel)) {
    // An unpark already arrived: consume it and keep running.
    SKYLOFT_CHECK(expected == kParkUnparkPending);
    park.store(kParkRunning, std::memory_order_release);
    worker->preempt_disable.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  self->state.store(UthreadState::kBlocked, std::memory_order_relaxed);
  worker->action = SwitchAction::kPark;
  TsanSwitchTo(worker->tsan_fiber);
  AsanStartSwitch(&ExtraOf(self)->asan_fake_stack, worker->asan_stack_bottom,
                  worker->asan_stack_size);
  skyloft_ctx_switch(&self->sp, worker->sched_sp);
  AsanLand(self, ExtraOf(self)->asan_fake_stack);
}

void Runtime::Unpark(UThread* thread) {
  Runtime* rt = g_runtime;
  SKYLOFT_CHECK(rt != nullptr);
  auto& park = ExtraOf(thread)->park;
  const int old = park.exchange(kParkUnparkPending, std::memory_order_acq_rel);
  if (old == kParkParked) {
    // Fully parked: we own the wakeup.
    park.store(kParkRunning, std::memory_order_release);
    thread->state.store(UthreadState::kRunnable, std::memory_order_release);
    PreemptGuard guard;
    rt->Schedule(thread, kEnqueueWakeup);
  }
  // old == kParkRunning or kParkParking: the parker (or its scheduler
  // completion) observes kParkUnparkPending and self-requeues.
}

void Runtime::Join(UThread* thread) {
  Runtime* rt = g_runtime;
  SKYLOFT_CHECK(rt != nullptr);
  // Loop: Park may return spuriously (e.g. a stale unpark token left by the
  // mutex fast-path race), so completion is re-checked every wake. `self` is
  // read once, before the first switch: Current() goes through tl_worker,
  // which must not be touched after a Park that may migrate us.
  UThread* self = Current();
  // Non-preemptible while wait_lock_ is held: a tick there could queue this
  // uthread behind its joinee, whose exit would then block the worker pthread
  // on the mutex this uthread holds. The guard is taken once, before the
  // loop, and spans the Parks (its depth travels with the uthread): taking
  // it inside the loop would read tl_worker after a Park, through a TLS
  // address the compiler may have cached on the previous worker.
  Runtime::PreemptGuard guard;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(rt->wait_lock_);
      if (thread->state.load(std::memory_order_acquire) == UthreadState::kDone) {
        return;
      }
      thread->joiners.push_back(self);
    }
    Park();
  }
}

// skylint:allow(preempt-balance) -- the uthread never returns; SwitchTo re-arms with store(0)
void Runtime::ExitCurrent() {
  RuntimeWorker* worker = tl_worker;
  UThread* self = worker->current;
  worker->preempt_disable.fetch_add(1, std::memory_order_acq_rel);
  {
    // Scoped: this frame is abandoned at the switch below (ExitCurrent never
    // returns), so the vector's buffer must be released before it.
    std::vector<UThread*> joiners;
    {
      std::lock_guard<std::mutex> lock(wait_lock_);
      self->state.store(UthreadState::kDone, std::memory_order_release);
      joiners.swap(self->joiners);
    }
    for (UThread* j : joiners) {
      Unpark(j);
    }
  }
  worker->action = SwitchAction::kExit;
  TsanSwitchTo(worker->tsan_fiber);
  // Null save slot: this fiber is leaving for good, destroy its fake stack.
  AsanStartSwitch(nullptr, worker->asan_stack_bottom, worker->asan_stack_size);
  skyloft_ctx_switch(&self->sp, worker->sched_sp);
  SKYLOFT_CHECK(false) << "resumed an exited uthread";
}

Runtime::PreemptGuard::PreemptGuard() {
  RuntimeWorker* worker = tl_worker;
  if (worker != nullptr && worker->current != nullptr) {
    counter_ = &ExtraOf(worker->current)->preempt_count;
    counter_->fetch_add(1, std::memory_order_acq_rel);
  }
  // Off-runtime threads never see the preemption signal; the scheduler stack
  // runs with worker->preempt_disable != 0. Neither needs the guard.
}

Runtime::PreemptGuard::~PreemptGuard() {
  if (counter_ != nullptr) {
    counter_->fetch_sub(1, std::memory_order_acq_rel);
  }
}

void Runtime::PreemptSignalHandler(int /*signo*/, siginfo_t* /*info*/, void* uctx) {
  RuntimeWorker* worker = tl_worker;
  if (worker == nullptr || worker->runtime == nullptr) {
    return;
  }
  if (worker->preempt_disable.load(std::memory_order_acquire) != 0) {
    return;  // scheduler or a sync primitive is mid-flight
  }
  UThread* current = worker->current;
  if (current == nullptr) {
    return;
  }
  if (ExtraOf(current)->preempt_count.load(std::memory_order_acquire) != 0) {
    return;  // the uthread holds a PreemptGuard (possibly taken on another worker)
  }
  // Only switch if we interrupted code running on the uthread's own stack;
  // anything else means we're in a transition window.
  char probe;
  const auto sp = reinterpret_cast<std::uintptr_t>(&probe);
  const auto lo = reinterpret_cast<std::uintptr_t>(current->stack.get());
  const auto hi = lo + current->stack_size;
  if (sp < lo || sp >= hi) {
    return;
  }
  // Safe-point check (see TextRange above): defer rather than preempt inside
  // libc/ld/libstdc++, where per-pthread state (malloc tcache, stdio locks,
  // the loader lock) may be mid-update. The next timer period retries.
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  if (!PreemptSafePc(pc)) {
    worker->runtime->preempt_deferrals_->Inc();
    if (worker->runtime->tracer_ != nullptr) {
      worker->runtime->tracer_->RecordEvent(TraceClockNs(), TraceEventType::kDeferred,
                                            worker->index, current->id, 0);
    }
    return;
  }
#else
  (void)uctx;
#endif
  // Enter the scheduler; the policy's sched_timer_tick makes the call.
  // errno is saved on the uthread's stack: while it is switched out, other
  // uthreads (and the scheduler) run on this pthread and clobber the
  // thread-local errno, so it must be restored when the uthread resumes —
  // into the errno of whichever pthread it resumed on, hence the re-derived
  // location (see CurrentErrnoLocation).
  // Trace the accepted signal delivery before entering the scheduler. Both
  // RecordEvent and TraceClockNs are allocation-free and signal-safe.
  if (worker->runtime->tracer_ != nullptr) {
    worker->runtime->tracer_->RecordEvent(TraceClockNs(), TraceEventType::kSignal, worker->index,
                                          current->id, 0);
  }
  const int saved_errno = *CurrentErrnoLocation();
  PreemptTick();
  *CurrentErrnoLocation() = saved_errno;
}

}  // namespace skyloft
