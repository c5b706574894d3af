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
// engine at run time. Callers see one data path either way:
//
//   - kReadiness handles (pipes, anything the caller reads itself) sit in the
//     engine's edge-triggered epoll set. A uthread that would block parks
//     through WaitForReadable/WaitForWritable (src/runtime/sync.h) and the
//     worker runs other uthreads until the engine latches readiness:
//
//       engine Poll():  ready.fetch_or(bits); wake parked reader/writer
//       WaitForReadable: wait for the latch, consume it, caller then drains
//                        the fd until EAGAIN (edge-triggered contract)
//
//   - kStream/kListener/kDatagram handles are served through the engine's
//     read()-shaped data calls: Recv/Send on a connection, Accept on a
//     listener, RecvFrom/SendTo on a UDP socket. The caller waits with the
//     same WaitFor* primitives and then calls until "nothing yet". What the
//     calls do is the backend's business:
//       epoll:    they make the syscall from the caller (read, send, accept4,
//                 recvfrom, sendto) and count it in the sys_* lanes. A send
//                 the socket cannot take whole leaves its remainder in the
//                 handle's queue; the home engine's Poll writes it on
//                 EPOLLOUT and latches kIoWritable once the queue is empty.
//       io_uring: a multishot RECV/RECVMSG/ACCEPT stays armed and its
//                 completions carry the data itself — payload bytes land in
//                 engine-owned provided buffers (IORING_REGISTER_PBUF_RING)
//                 that Recv/RecvFrom copy out of and recycle, accepted fds
//                 and datagrams land in per-handle queues, and Send/SendTo
//                 queue engine-owned async SEND/SENDMSG submissions with
//                 short-send continuation. SQEs are batched, so a worker's
//                 steady state is ~0 syscalls per request. kIoReadable means
//                 "segments (or fds) queued", kIoWritable "send queue
//                 drained".
//
// A kIoUring engine watches its epoll set with one multishot POLL_ADD on the
// epoll fd, so readiness handles cost no syscall until one of them fires. A
// kIoUring engine whose kernel fails the feature probe is an epoll engine
// (counted in uring_fallbacks) and serves the data calls with syscalls.
//
// Handle lifetime. Handles in the epoll set: Deregister unlinks the fd from
// the epoll set, closes it, and pushes the handle onto the engine's retire
// list; the engine frees retired handles at the top of a later Poll, after
// any in-flight event batch that might still reference them has been
// processed (events on a closed handle are skipped via the `closed` flag).
// This lets a handler uthread close its connection from whatever worker it
// was stolen to while the home engine is mid-poll. Completion handles are
// completion-counted instead: every armed op (recv, accept, send, cancel)
// owes one terminal CQE, the handle holds one more count while it is open,
// and the free point is the count reaching zero.
#ifndef SRC_RUNTIME_IO_ENGINE_H_
#define SRC_RUNTIME_IO_ENGINE_H_

#include <netinet/in.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <vector>

#include "src/base/compiler.h"
#include "src/base/metrics.h"

namespace skyloft {

struct UThread;
class IoEngine;
struct IoQueues;

// Readiness bits latched in IoHandle::ready. kIoHup/kIoError are sticky:
// once the peer is gone the condition never clears, so waits return
// immediately and the handler can tear the connection down.
enum IoReady : unsigned {
  kIoReadable = 1u << 0,
  kIoWritable = 1u << 1,
  kIoHup = 1u << 2,
  kIoError = 1u << 3,
};

// What a Register()ed fd is, which selects the data calls it is served
// through (and, on a kIoUring engine, the completion op kept armed for it).
// kReadiness is the plain epoll contract; the other modes hand the fd's data
// path to the engine on both backends.
enum class IoRegisterMode {
  kReadiness,  // readiness only; caller does its own read/write/accept
  kStream,     // connected TCP: Recv/Send/SendQueuedBytes
  kListener,   // listening TCP: Accept
  kDatagram,   // UDP: RecvFrom/SendTo
};

// Recv results besides a byte count, in read()'s shape: 0 is end of stream.
inline constexpr std::ptrdiff_t kIoEof = 0;
inline constexpr std::ptrdiff_t kIoAgain = -1;  // nothing yet: WaitForReadable, then retry
inline constexpr std::ptrdiff_t kIoReset = -2;  // the connection failed (reset, send error)

// One registered fd. Created by IoEngine::Register, destroyed by the engine
// after Deregister. At most one waiting reader and one waiting writer at a
// time (the KV server's one-uthread-per-connection model; a second concurrent
// waiter on the same direction is a caller bug).
struct alignas(kCacheLineSize) IoHandle {
  int fd = -1;
  IoEngine* engine = nullptr;
  IoRegisterMode mode = IoRegisterMode::kReadiness;
  std::atomic<unsigned> ready{0};
  std::atomic<UThread*> reader{nullptr};
  std::atomic<UThread*> writer{nullptr};
  std::atomic<bool> closed{false};
  // Completion handles (data modes on a kIoUring engine) only. Whether the
  // multishot main op (RECV, RECVMSG or ACCEPT depending on mode) is in
  // flight, so Deregister knows to cancel it; and a count of terminal CQEs
  // still expected (+1 per armed op, +1 per submitted cancel, +1 while
  // parked on the engine's buffer-exhaustion stall list), plus one open
  // reference held from Register until the end of Deregister.
  // The kernel does NOT order a cancelled op's CQE before its cancel's CQE
  // (task-work can post it later), so the free point is the count reaching
  // zero, not any particular completion.
  std::atomic<bool> main_op_armed{false};
  std::atomic<int> pending_cqes{0};
  IoHandle* retire_next = nullptr;  // readiness retire list linkage
  // The engine's receive, accept and send queues of a kStream/kListener/
  // kDatagram handle; null for kReadiness handles. Owned by the engine,
  // freed with the handle.
  IoQueues* queues = nullptr;
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
  // Data-path syscall accounting, the bench's syscalls/request numerator:
  // io_uring_enter calls, and the syscalls an epoll engine's data calls and
  // send-queue flushes make.
  ShardedCounter* sys_enter = nullptr;     // io_uring_enter calls
  ShardedCounter* sys_read = nullptr;      // read/recvfrom on the data path
  ShardedCounter* sys_write = nullptr;     // send/sendmsg/sendto on the data path
  ShardedCounter* sys_accept = nullptr;    // accept4 on the data path
  // Completion data-path traffic.
  ShardedCounter* recv_segments = nullptr;    // provided-buffer segments queued
  ShardedCounter* send_ops = nullptr;         // async send submissions armed
  ShardedCounter* completion_accepts = nullptr;  // fds from multishot accept
  ShardedCounter* buf_exhaustions = nullptr;  // recv stalled on empty buf ring
};

struct IoEngineOptions {
  enum class Backend {
    kEpoll,    // data calls make their syscalls
    kIoUring,  // completion data path; epoll if the kernel fails the probe
  };
  Backend backend = Backend::kEpoll;
};

// Entry points callable from uthreads (Register, Deregister, the data
// calls, DumpDebug) hold a Runtime::PreemptGuard while
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
  // epoll set for edge-triggered read/write/hup monitoring — or, for the
  // data modes on a kIoUring engine, arms the mode's multishot op.
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

  // ---- Data calls (kStream/kListener/kDatagram handles) ----
  //
  // Call them on the handle's own engine (handle->engine), from any worker:
  // the handler uthread migrates via work stealing while the fd stays on its
  // home engine. Each is nonblocking; "nothing yet" means WaitForReadable
  // (or WaitForWritable) and retry. One reader and one writer per handle
  // (the one-uthread-per-connection contract).

  // Copies up to `cap` (> 0) received bytes of a kStream handle into `buf`.
  // Returns the byte count, kIoAgain, kIoEof once the peer's FIN is reached,
  // or kIoReset when the connection failed.
  SKYLOFT_NO_SWITCH std::ptrdiff_t Recv(IoHandle* handle, char* buf, std::size_t cap);

  // Sends `bytes` on a kStream handle: what the socket cannot take now stays
  // queued (a copy) and the engine finishes sending it on its own, in order,
  // latching kIoWritable once the queue drains. Returns the bytes still
  // queued (0 once the kernel has them all), or kIoReset, dropping the
  // bytes, when the connection already failed. Backpressure: callers above
  // a high-water mark of queued bytes should WaitForWritable.
  SKYLOFT_NO_SWITCH std::ptrdiff_t Send(IoHandle* handle, std::string_view bytes);
  // Bytes queued on a kStream handle and not yet sent.
  SKYLOFT_NO_SWITCH std::size_t SendQueuedBytes(IoHandle* handle);

  // Takes the next connection of a kListener handle: a nonblocking fd, or
  // -1 when none is waiting.
  SKYLOFT_NO_SWITCH int Accept(IoHandle* handle);

  // Copies the next datagram of a kDatagram handle into `buf` (truncated to
  // `cap`) and its sender into `peer`. Returns the payload length or
  // kIoAgain. A datagram too large for an io_uring provided buffer reads as
  // an empty one.
  SKYLOFT_NO_SWITCH std::ptrdiff_t RecvFrom(IoHandle* handle, char* buf, std::size_t cap,
                                            sockaddr_in* peer);

  // Best-effort datagram to `peer` on a kDatagram handle. Returns false if it
  // was dropped (closed handle, full socket buffer or submission queue) —
  // UDP semantics.
  SKYLOFT_NO_SWITCH bool SendTo(IoHandle* handle, const sockaddr_in& peer,
                                std::string_view bytes);

  // Diagnostics: one-line-per-handle snapshot of queue depths, latch bits,
  // armed ops and ring positions. Callable from any thread (takes the handle
  // and queue spinlocks briefly); for post-mortem debugging of stuck serving
  // loops, not for hot paths.
  SKYLOFT_NO_SWITCH void DumpDebug(std::FILE* out);

  bool using_io_uring() const { return uring_ != nullptr; }
  // True when the data calls are served by the completion data path, which
  // is exactly when the engine runs io_uring; false when they make their
  // syscalls on epoll.
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

  // Per-handle queue spinlock (lock class `io_handle_q`); guards the
  // rx/accepted/tx queues shared between the home engine's Poll and the
  // (possibly stolen) handler uthread. Ordered before uring_sq and
  // uring_buf: send arming nests SqLock and Recv's recycling nests BufLock
  // inside the queue lock, never the reverse.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(io_handle_q) static void QLock(IoQueues* q);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(io_handle_q) static void QUnlock(IoQueues* q);

  // Provided-buffer-ring producer spinlock (lock class `uring_buf`); guards
  // the ring tail shared by every worker that recycles a consumed buffer
  // back to this engine. Leaf lock: nothing nests inside it.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(uring_buf) static void BufLock(UringState* s);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(uring_buf) static void BufUnlock(UringState* s);

  // Readiness: drains the epoll set until a short batch (both backends).
  SKYLOFT_NO_SWITCH int EpollPoll();
  // Whether `handle` is served by io_uring completions (else by syscalls).
  bool Completion(const IoHandle* handle) const {
    return uring_ != nullptr && handle->queues != nullptr;
  }
  // epoll data path: writes a kStream handle's queued bytes until the queue
  // is empty (returns kIoWritable), the socket is full (0) or the connection
  // failed (kIoError; the queue is dropped).
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(io_handle_q) unsigned WriteQueuedLocked(IoHandle* handle);

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
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(io_handle_q) bool EnqueueSendLocked(IoHandle* handle,
                                                                          std::string_view bytes);
  // Returns a provided buffer to this engine's ring; thread-safe.
  SKYLOFT_NO_SWITCH void RecycleBuffer(std::uint16_t buf_id);
  SKYLOFT_NO_SWITCH void QueueCancel(IoHandle* handle, std::uintptr_t target_tag);
  SKYLOFT_NO_SWITCH void HandleRecvCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags);
  SKYLOFT_NO_SWITCH void HandleAcceptCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags);
  SKYLOFT_NO_SWITCH void HandleSendCqe(IoHandle* handle, std::int32_t res);
  SKYLOFT_NO_SWITCH void StallHandle(IoHandle* handle);
  SKYLOFT_NO_SWITCH void RearmStalled();
  // Frees a handle's queues at its free point, returning what they still
  // hold: buffers to the ring, untaken accepted fds to the kernel.
  SKYLOFT_NO_SWITCH void FreeQueues(IoHandle* handle);
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
