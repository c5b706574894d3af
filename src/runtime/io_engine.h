// Per-worker I/O engine cores for the host runtime (DESIGN.md section 10).
//
// Skyloft's latency argument needs a real wakeup path: a NIC-driven readiness
// event must turn into a runnable uthread in microseconds. Each runtime
// worker owns one IoEngine, polled from the worker's scheduler loop between
// uthread switches. Connections are sharded at accept time (SO_REUSEPORT
// listeners, one per worker) and an fd never changes engines; only the
// *handler uthread* migrates, via ordinary work stealing. An event therefore
// always fires on the fd's home engine, and the resulting Unpark enqueues
// through that worker's own runqueue — the remote-enqueue mailbox path when
// the handler was stolen.
//
// Both backends are always compiled; IoEngineOptions::backend picks one per
// engine at run time, and each backend has one job:
//
//   - readiness (every kReadiness handle, on either backend): the fd sits in
//     the engine's edge-triggered epoll set. A uthread that would block parks
//     through WaitForReadable/WaitForWritable (src/runtime/sync.h) and the
//     worker runs other uthreads until the engine latches readiness:
//
//       engine Poll():  ready.fetch_or(bits); wake parked reader/writer
//       WaitForReadable: wait for the latch, consume it, caller then drains
//                        the socket until EAGAIN (edge-triggered contract)
//
//   - completion (kStream/kListener/kDatagram handles on a kIoUring engine):
//     a multishot RECV/RECVMSG/ACCEPT stays armed and its completions carry
//     the data itself — payload bytes land in engine-owned provided buffers
//     (IORING_REGISTER_PBUF_RING), accepted fds and datagrams land in
//     per-handle queues, and responses go out as engine-owned async
//     SEND/SENDMSG submissions with short-send continuation. SQEs are
//     batched, so a worker's steady state is ~0 syscalls per request. The
//     same latch/park machinery signals the handler: kIoReadable means
//     "segments (or fds) queued", kIoWritable means "send queue drained".
//
// A kIoUring engine watches its epoll set with one multishot POLL_ADD on the
// epoll fd, so readiness handles cost no syscall until one of them fires. A
// kIoUring engine whose kernel fails the feature probe is an epoll engine
// (counted in uring_fallbacks); completion-mode registers on an epoll engine
// degrade to kReadiness.
//
// Handle lifetime. Readiness handles: Deregister unlinks the fd from the
// epoll set, closes it, and pushes the handle onto the engine's retire list;
// the engine frees retired handles at the top of a later Poll, after any
// in-flight event batch that might still reference them has been processed
// (events on a closed handle are skipped via the `closed` flag). This lets a
// handler uthread close its connection from whatever worker it was stolen to
// while the home engine is mid-poll. Completion handles are completion-
// counted instead: every armed op (recv, accept, send, cancel) owes one
// terminal CQE, and the free point is the expected-CQE count reaching zero
// after close.
#ifndef SRC_RUNTIME_IO_ENGINE_H_
#define SRC_RUNTIME_IO_ENGINE_H_

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/compiler.h"
#include "src/base/metrics.h"

namespace skyloft {

struct UThread;
class IoEngine;
struct IoCompletionState;

// Readiness bits latched in IoHandle::ready. kIoHup/kIoError are sticky:
// once the peer is gone the condition never clears, so waits return
// immediately and the handler can tear the connection down.
enum IoReady : unsigned {
  kIoReadable = 1u << 0,
  kIoWritable = 1u << 1,
  kIoHup = 1u << 2,
  kIoError = 1u << 3,
};

// What a Register()ed fd is, which selects the io_uring completion op kept
// armed for it. kReadiness is the epoll contract (pipes, anything the caller
// read()s itself); the other modes opt into the completion data path and
// silently degrade to kReadiness on an epoll engine (check
// IoEngine::completion()).
enum class IoRegisterMode {
  kReadiness,  // readiness only; caller does its own read/write/accept
  kStream,     // connected TCP: multishot RECV + engine-owned async sends
  kListener,   // listening TCP: multishot ACCEPT into an fd queue
  kDatagram,   // UDP: multishot RECVMSG (peer addr in-buffer) + SENDMSG out
};

// One received completion segment: `data/len` point into the engine's
// provided-buffer arena and stay valid until the consumer returns the buffer
// with IoEngine::RecycleBuffer(buf_id). Consumers may be on any worker (a
// stolen handler); recycling is thread-safe.
struct IoRecvSlice {
  const char* data = nullptr;
  std::uint32_t len = 0;
  std::uint16_t buf_id = 0;
};

// A decoded datagram completion (kDatagram handles): payload view into the
// slice's provided buffer plus the sender address recovered from the
// multishot RECVMSG header that the kernel packs in front of the payload.
struct IoDatagram {
  sockaddr_in peer{};
  const char* data = nullptr;
  std::uint32_t len = 0;
};

// One registered fd. Created by IoEngine::Register, destroyed by the engine
// after Deregister. At most one waiting reader and one waiting writer at a
// time (the KV server's one-uthread-per-connection model; a second concurrent
// waiter on the same direction is a caller bug).
struct alignas(kCacheLineSize) IoHandle {
  int fd = -1;
  IoEngine* engine = nullptr;
  // Effective mode: what Register actually armed (a completion-mode request
  // on an epoll engine records kReadiness here).
  IoRegisterMode mode = IoRegisterMode::kReadiness;
  std::atomic<unsigned> ready{0};
  std::atomic<UThread*> reader{nullptr};
  std::atomic<UThread*> writer{nullptr};
  std::atomic<bool> closed{false};
  // Completion handles only. Whether the multishot main op (RECV, RECVMSG or
  // ACCEPT depending on mode) is in flight, so Deregister knows to cancel it;
  // and a count of terminal CQEs still expected (+1 per armed op, +1 per
  // submitted cancel, +1 held by Deregister itself while it queues the
  // cancels, +1 while parked on the engine's buffer-exhaustion stall list).
  // The kernel does NOT order a cancelled op's CQE before its cancel's CQE
  // (task-work can post it later), so the free point is the count reaching
  // zero after close, not any particular completion.
  std::atomic<bool> main_op_armed{false};
  std::atomic<int> pending_cqes{0};
  IoHandle* retire_next = nullptr;  // readiness retire list linkage
  // Completion-mode state (recv/accept/send queues); null for kReadiness
  // handles. Owned by the engine, freed with the handle.
  IoCompletionState* cs = nullptr;
};

// Counter lanes shared by every engine of one Runtime; `worker` indexes the
// lane, so per-engine accounting never bounces a cache line. All pointers are
// owned by the Runtime's MetricGroup (null in standalone/unit contexts).
struct IoEngineStats {
  ShardedCounter* polls = nullptr;         // Poll() calls that found events
  ShardedCounter* events = nullptr;        // readiness events dispatched
  ShardedCounter* wakeups = nullptr;       // parked uthreads unparked
  ShardedCounter* registered = nullptr;    // fds registered (lifetime total)
  ShardedCounter* retired = nullptr;       // fds deregistered
  ShardedCounter* uring_fallbacks = nullptr;  // kIoUring engine that runs epoll
  // Data-path syscall accounting, the bench's syscalls/request numerator.
  // The engine counts its own io_uring_enter calls; the readiness serving
  // paths self-report their read/write/accept syscalls via CountSys*.
  ShardedCounter* sys_enter = nullptr;     // io_uring_enter calls
  ShardedCounter* sys_read = nullptr;      // read/recvfrom on the data path
  ShardedCounter* sys_write = nullptr;     // writev/sendto on the data path
  ShardedCounter* sys_accept = nullptr;    // accept4 on the data path
  // Completion data-path traffic.
  ShardedCounter* recv_segments = nullptr;    // provided-buffer segments queued
  ShardedCounter* send_ops = nullptr;         // async send submissions armed
  ShardedCounter* completion_accepts = nullptr;  // fds from multishot accept
  ShardedCounter* buf_exhaustions = nullptr;  // recv stalled on empty buf ring
};

struct IoEngineOptions {
  enum class Backend {
    kEpoll,    // readiness only
    kIoUring,  // completion data path; epoll if the kernel fails the probe
  };
  Backend backend = Backend::kEpoll;
};

// Entry points callable from uthreads (Register, Deregister, the
// completion-path calls, DumpDebug) hold a Runtime::PreemptGuard while
// they run: they take the engine's spinlocks, and a preemption tick inside one
// would run this worker's Poll, which takes the same locks and would spin
// forever on a holder queued behind it.
class IoEngine {
 public:
  // `worker` is the owning runtime worker's index (stats lane + diagnostics).
  IoEngine(int worker, const IoEngineOptions& options, const IoEngineStats& stats);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Registers `fd` with this engine: sets O_NONBLOCK and adds it to the
  // epoll set for edge-triggered read/write/hup monitoring — or, for
  // completion modes on a kIoUring engine, arms the mode's multishot op.
  // Callable from any worker (registration is spinlocked); returns null if
  // the kernel rejects the fd.
  SKYLOFT_NO_SWITCH IoHandle* Register(int fd, IoRegisterMode mode = IoRegisterMode::kReadiness);

  // Unlinks the fd, closes it, and retires the handle (freed by a later
  // Poll on the home engine, or by its last CQE). Callable from any worker;
  // the caller must not touch the handle afterwards.
  SKYLOFT_NO_SWITCH void Deregister(IoHandle* handle);

  // Reaps completions and readiness events, latches them into handles, and
  // unparks waiters. Returns the number of events dispatched. Must only be
  // called from the owning worker's scheduler loop (single consumer).
  SKYLOFT_NO_SWITCH int Poll();

  // Pushes any deferred submission-queue entries to the kernel now (io_uring
  // backend; no-op on epoll). Poll() batches submissions across scheduler
  // rounds; the worker loop calls this right before idling so a lone queued
  // send is never held hostage to the batching heuristic while the worker
  // sleeps. Home-worker only, like Poll().
  SKYLOFT_NO_SWITCH void FlushSubmissions();

  // Re-latches readability on a handle — used by batched accept loops that
  // stop before EAGAIN (the consumed edge must be restored or the remaining
  // backlog would wait for the next connection attempt).
  SKYLOFT_NO_SWITCH static void RelatchReadable(IoHandle* handle);

  // Latches kIoError and unparks any waiters without touching the kernel
  // set — the shutdown path: a server's Stop() interrupts uthreads blocked
  // in WaitFor* so they can observe their stop flag and exit. Callable from
  // any thread.
  SKYLOFT_NO_SWITCH static void Interrupt(IoHandle* handle);

  // ---- Completion data path (kIoUring engines; see completion()) ----
  //
  // All of these are callable from any worker: the handler uthread migrates
  // via work stealing while the fd's completions keep landing on the home
  // engine, which fills the per-handle queues these drain.

  // Pops the next received segment of a kStream/kDatagram handle. Returns
  // false when no segment is queued (wait for kIoReadable and retry). The
  // caller owns the slice's buffer until RecycleBuffer(slice.buf_id).
  SKYLOFT_NO_SWITCH bool PopRecv(IoHandle* handle, IoRecvSlice* slice);

  // Returns a provided buffer to this engine's ring. Must be called exactly
  // once per popped slice, on the handle's HOME engine (slice buffers belong
  // to the engine that produced them, not to whichever worker consumed).
  SKYLOFT_NO_SWITCH void RecycleBuffer(std::uint16_t buf_id);

  // Pops the next accepted connection fd of a kListener handle; -1 when the
  // queue is empty (wait for kIoReadable and retry).
  SKYLOFT_NO_SWITCH int TakeAccepted(IoHandle* handle);

  // Queues `frame` on a kStream handle's async send queue and arms a send if
  // none is in flight (short sends re-arm from the CQE until drained; frames
  // are coalesced up to 16 iovecs per submission). Returns the bytes
  // now queued, or 0 if the handle is closed/errored and the frame was
  // dropped. Single writer per handle (the one-uthread-per-connection
  // contract). Backpressure: callers above a high-water mark of
  // SendQueuedBytes should WaitForWritable, which returns once the final
  // send CQE drains the queue.
  SKYLOFT_NO_SWITCH std::size_t SendEnqueue(IoHandle* handle, std::string frame);
  SKYLOFT_NO_SWITCH std::size_t SendQueuedBytes(IoHandle* handle);

  // Fire-and-forget datagram reply on a kDatagram handle (async SENDMSG; the
  // op owns the payload until its CQE). Returns false if the frame was
  // dropped (closed handle or submission-queue pressure) — UDP semantics.
  SKYLOFT_NO_SWITCH bool SendDatagram(IoHandle* handle, const sockaddr_in& to, std::string frame);

  // Decodes a kDatagram slice (kernel-packed io_uring_recvmsg_out + sender
  // address + payload) into an IoDatagram view. False on truncated input.
  static bool ParseDatagram(const IoRecvSlice& slice, IoDatagram* out);

  // Syscall self-reporting hooks for the READINESS data path: the serving
  // loops count their per-request read/writev/accept4/recvfrom/sendto calls
  // here so the bench's syscalls/request column covers both paths.
  SKYLOFT_NO_SWITCH void CountSysRead(std::uint64_t n = 1) {
    if (stats_.sys_read != nullptr) stats_.sys_read->Inc(worker_, n);
  }
  SKYLOFT_NO_SWITCH void CountSysWrite(std::uint64_t n = 1) {
    if (stats_.sys_write != nullptr) stats_.sys_write->Inc(worker_, n);
  }
  SKYLOFT_NO_SWITCH void CountSysAccept(std::uint64_t n = 1) {
    if (stats_.sys_accept != nullptr) stats_.sys_accept->Inc(worker_, n);
  }

  // Diagnostics: one-line-per-handle snapshot of queue depths, latch bits,
  // armed ops and ring positions. Callable from any thread (takes the handle
  // and queue spinlocks briefly); for post-mortem debugging of stuck serving
  // loops, not for hot paths.
  SKYLOFT_NO_SWITCH void DumpDebug(std::FILE* out);

  bool using_io_uring() const { return uring_ != nullptr; }
  // True when the completion data path is active, which is exactly when the
  // engine runs io_uring. When false, completion-mode registers degrade to
  // readiness and the caller must use its readiness path.
  bool completion() const { return using_io_uring(); }
  int worker() const { return worker_; }

 private:
  struct UringState;  // mmap'd ring pointers (io_uring backend only)
  struct DgramSendOp;  // heap-owned async SENDMSG (payload + msghdr + addr)

  SKYLOFT_NO_SWITCH void DeliverReady(IoHandle* handle, unsigned bits);
  SKYLOFT_NO_SWITCH void FreeRetired();
  SKYLOFT_NO_SWITCH void TrackHandle(IoHandle* handle);
  SKYLOFT_NO_SWITCH void UntrackHandle(IoHandle* handle);

  // Live-handle table spinlock (lock class `io_handles`): annotated so
  // skylint tracks hold windows across the registration/teardown paths.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(io_handles) void LockHandles();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(io_handles) void UnlockHandles();

  // io_uring submission-queue spinlock (lock class `uring_sq`); guards the
  // SQ tail/to_submit producer state shared by every worker that arms or
  // cancels an op on this engine.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(uring_sq) static void SqLock(UringState* s);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(uring_sq) static void SqUnlock(UringState* s);

  // Per-handle completion-queue spinlock (lock class `io_handle_q`); guards
  // the rx/accepted/tx queues shared between the home engine's reaping and
  // the (possibly stolen) handler uthread. Ordered before uring_sq: send
  // arming nests SqLock inside the queue lock, never the reverse.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(io_handle_q) static void QLock(IoCompletionState* cs);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(io_handle_q) static void QUnlock(IoCompletionState* cs);

  // Provided-buffer-ring producer spinlock (lock class `uring_buf`); guards
  // the ring tail shared by every worker that recycles a consumed buffer
  // back to this engine. Leaf lock: nothing nests inside it.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(uring_buf) static void BufLock(UringState* s);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(uring_buf) static void BufUnlock(UringState* s);

  // Readiness: drains the epoll set until a short batch (both backends).
  SKYLOFT_NO_SWITCH int EpollPoll();

  // io_uring backend.
  bool UringInit();  // ring + feature probe + pbuf ring + registered files
  void UringShutdown();
  SKYLOFT_NO_SWITCH int UringPoll();
  // SQE slot claim/commit under the SQ lock. Prepare zeroes the next slot
  // (flushing inline once if the ring is full; null if still full); commit
  // publishes it.
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(uring_sq) void* SqePrepareLocked();
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(uring_sq) void SqeCommitLocked();
  SKYLOFT_NO_SWITCH void UringFinishCqe(IoHandle* handle);
  SKYLOFT_NO_SWITCH void UringSubmit();
  // The epoll bridge: one multishot POLL_ADD on epoll_fd_.
  SKYLOFT_NO_SWITCH bool ArmEpollBridge();

  // Completion data path internals.
  SKYLOFT_NO_SWITCH bool ArmMainOp(IoHandle* handle);  // RECV/RECVMSG/ACCEPT by mode
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(io_handle_q) bool ArmSendLocked(IoHandle* handle);
  SKYLOFT_NO_SWITCH void QueueCancel(IoHandle* handle, std::uintptr_t target_tag);
  SKYLOFT_NO_SWITCH void HandleRecvCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags);
  SKYLOFT_NO_SWITCH void HandleAcceptCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags);
  SKYLOFT_NO_SWITCH void HandleSendCqe(IoHandle* handle, std::int32_t res);
  SKYLOFT_NO_SWITCH void StallHandle(IoHandle* handle);
  SKYLOFT_NO_SWITCH void RearmStalled();
  SKYLOFT_NO_SWITCH void FreeCompletionResources(IoHandle* handle);
  SKYLOFT_NO_SWITCH int AllocFixedSlot(int fd);       // -1 when the table is full
  SKYLOFT_NO_SWITCH void ReleaseFixedSlot(int slot);

  int worker_;
  IoEngineStats stats_;

  int epoll_fd_ = -1;  // every readiness handle, on both backends
  int uring_fd_ = -1;
  UringState* uring_ = nullptr;  // non-null => io_uring backend active
  // The epoll bridge (home worker only): whether its multishot poll is in
  // flight, and whether a CQE from it asked for an epoll drain.
  bool bridge_armed_ = false;
  bool bridge_fired_ = false;

  std::vector<unsigned char> event_buf_;  // epoll_event array storage

  // Live-handle table for teardown; spinlocked (registration is off the hot
  // path — Poll never takes it).
  std::atomic_flag handles_spin_ = ATOMIC_FLAG_INIT;
  std::vector<IoHandle*> handles_;

  // Retired handles awaiting a safe free point (MPSC: any worker pushes,
  // the home engine's Poll frees).
  std::atomic<IoHandle*> retired_head_{nullptr};
  // Handles that survived one Poll on the retire list and are freed at the
  // next: by then no event batch fetched before their epoll_ctl(DEL) can
  // still be in flight. Advanced at the top of every Poll on both backends.
  std::vector<IoHandle*> retire_graveyard_;

  // Completion-mode handles whose multishot op died on -ENOBUFS (buffer ring
  // empty) or a transient accept error, awaiting a poll-round re-arm. Home
  // worker only; each entry holds one pending_cqes reference.
  std::vector<IoHandle*> stalled_;
  std::uint64_t last_recycled_ = 0;  // buf-recycle epoch at last re-arm sweep

  // Poll rounds since the last submission flush with SQEs still queued — the
  // deferred-submission clock (home worker only; see UringPoll's flush
  // policy).
  int submit_rounds_ = 0;
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_IO_ENGINE_H_
