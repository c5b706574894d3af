#include "src/runtime/io_engine.h"

#include <fcntl.h>
#include <linux/io_uring.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <string>

#include "src/base/logging.h"
#include "src/runtime/uthread.h"

namespace skyloft {

namespace {

// Low bits of a CQE user_data say what completed (IoHandle is cache-line
// aligned and DgramSendOp heap-allocated, so the bits are free). The epoll
// bridge's poll carries no pointer: its user_data is the bare tag.
constexpr std::uintptr_t kTagMask = 0x7;
constexpr std::uintptr_t kTagEpoll = 0;   // the epoll bridge's multishot POLL_ADD
constexpr std::uintptr_t kTagCancel = 1;  // ASYNC_CANCEL queued by Deregister
constexpr std::uintptr_t kTagRecv = 2;    // multishot RECV/RECVMSG segment
constexpr std::uintptr_t kTagAccept = 3;  // multishot ACCEPT
constexpr std::uintptr_t kTagSend = 4;    // stream async send (SEND/SENDMSG)
constexpr std::uintptr_t kTagDgram = 5;   // datagram async SENDMSG (op ptr)

// Events handled per batch: one epoll_wait's worth, and the CQE budget of
// one Poll.
constexpr int kPollBatch = 256;
// Ring sizes. Multishot recv can post many CQEs per submitted SQE, so the
// CQ is far deeper than the SQ.
constexpr unsigned kSqEntries = 256;
constexpr unsigned kCqEntries = 4096;
// Provided buffers per engine (a power of two) and bytes per buffer.
constexpr unsigned kBufEntries = 1024;
constexpr std::size_t kBufSize = 2048;
// Registered-file table size; connections past it use raw fds.
constexpr int kFixedFileSlots = 4096;
// Iovecs, so queued sends, folded into one stream send.
constexpr int kMaxSendIovs = 16;

// Every engine registers its provided-buffer ring under one group id; rings
// are per-engine (per ring fd), so the ids never collide across engines.
constexpr std::uint16_t kBufGroup = 0;

// Deferred-submission thresholds (see the flush policy at the end of
// UringPoll): flush once this many SQEs are queued, or after this many poll
// rounds with anything queued at all, whichever comes first.
constexpr unsigned kSubmitEagerBatch = 32;
constexpr int kSubmitRoundLimit = 8;

void IncLane(ShardedCounter* c, int lane, std::uint64_t n = 1) {
  if (c != nullptr) {
    c->Inc(lane, n);
  }
}

// io_uring through raw syscalls; liburing is not a dependency.
int SysIoUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags,
                                  nullptr, 0));
}

int SysIoUringRegister(int fd, unsigned opcode, void* arg, unsigned nr_args) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

void* MapRing(int fd, std::size_t len, off_t offset) {
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE, fd, offset);
  return p == MAP_FAILED ? nullptr : p;
}

// Logged once per process, not per engine: every worker's engine probes the
// same kernel, and a line per engine would just repeat it.
void LogUringFallbackOnce(const char* why) {
  static std::atomic<bool> logged{false};
  if (!logged.exchange(true, std::memory_order_acq_rel)) {
    SKYLOFT_LOG(kInfo) << "io_uring completion data path unavailable (" << why
                       << "); the engine serves on epoll";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// io_uring backend.
// ---------------------------------------------------------------------------

struct IoEngine::UringState {
  io_uring_params params{};
  // SQ ring.
  void* sq_ring = nullptr;
  std::size_t sq_ring_len = 0;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  unsigned* sq_flags = nullptr;  // CQ_OVERFLOW
  io_uring_sqe* sqes = nullptr;
  std::size_t sqes_len = 0;
  // CQ ring (separate mmap unless IORING_FEAT_SINGLE_MMAP).
  void* cq_ring = nullptr;
  std::size_t cq_ring_len = 0;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;
  // SQE production is multi-producer (Deregister and the completion path's
  // Send run on whatever worker the handler uthread was stolen to);
  // short spinlock.
  std::atomic_flag sqe_spin = ATOMIC_FLAG_INIT;
  // Mutated under sqe_spin; atomic so UringPoll's flush heuristic can read it
  // without taking the lock (a stale value just defers one round).
  std::atomic<unsigned> to_submit{0};

  // Provided buffer ring (IORING_REGISTER_PBUF_RING) + its backing arena.
  // Producer side (recycling consumed buffers) is multi-worker: a stolen
  // handler returns buffers from wherever it runs; buf_spin guards the
  // shadow tail. NOTE: slots are addressed via `bufs` (the ring base), NOT
  // io_uring_buf_ring::bufs — that flex-array member sits behind a
  // __DECLARE_FLEX_ARRAY empty struct whose size is 0 in C but >= 1 in C++,
  // shifting the member to offset 8 and silently corrupting every
  // descriptor the kernel reads from offset 0.
  io_uring_buf_ring* buf_ring = nullptr;
  io_uring_buf* bufs = nullptr;  // == ring base; slot i at bufs[i]
  std::unique_ptr<char[]> buf_arena;
  std::atomic_flag buf_spin = ATOMIC_FLAG_INIT;
  std::uint16_t buf_tail = 0;  // producer shadow of buf_ring->tail
  // Recycle epoch: bumped on every returned buffer so the home engine knows
  // when re-arming an ENOBUFS-stalled recv can make progress.
  std::atomic<std::uint64_t> buf_recycled{0};
  // Registered-file table (IORING_REGISTER_FILES, sparse): free slot indices,
  // guarded by the engine's handles lock.
  std::vector<int> free_slots;
};

// Heap-owned async datagram reply: the SENDMSG op's msghdr, destination and
// payload must all outlive submission, so they travel with the op and are
// freed when its CQE arrives (tag kTagDgram carries the op pointer).
struct IoEngine::DgramSendOp {
  IoHandle* handle = nullptr;
  sockaddr_in to{};
  std::string payload;
  iovec iov{};
  msghdr msg{};
};

// One queued received segment: `len` payload bytes in provided buffer `bid`.
struct IoRecvSeg {
  std::uint32_t len = 0;
  std::uint16_t bid = 0;
};

// Per-handle queues of a kStream/kListener/kDatagram handle. On io_uring the
// home engine's reaping fills rx/accepted and the handler uthread drains
// them from whichever worker stole it; on epoll only tx is used, holding
// what a Send could not write, which the home engine's Poll writes on
// EPOLLOUT. q_spin (lock class io_handle_q) guards the queues. Single-writer
// send contract: only the one handler uthread enqueues, so tx ordering
// needs no further synchronization beyond the spinlock.
struct IoQueues {
  int fixed_slot = -1;  // registered-file table index; -1 = raw fd
  std::atomic_flag q_spin = ATOMIC_FLAG_INIT;
  std::deque<IoRecvSeg> rx;
  std::size_t rx_off = 0;  // bytes of rx.front() already copied out by Recv
  std::deque<int> accepted;
  // Send queue. tx_off = bytes of tx.front() already sent; tx_bytes = total
  // unsent bytes. While tx_inflight (io_uring), tx_iov/tx_msg describe the
  // submitted batch and the referenced front entries must not be popped
  // (only the send CQE pops, under q_spin, before any re-arm).
  std::deque<std::string> tx;
  std::size_t tx_off = 0;
  std::size_t tx_bytes = 0;
  bool tx_inflight = false;
  iovec tx_iov[kMaxSendIovs];
  msghdr tx_msg{};
  // Multishot RECVMSG template (kDatagram): namelen reserves space for the
  // sender address that the kernel packs into the provided buffer.
  msghdr rx_msg{};
};

namespace {

// Points `iov` at the queued sends, the front one past its sent prefix.
// Returns the iovec count (0 for an empty queue).
int FillSendIovs(const IoQueues& q, iovec* iov) {
  int niov = 0;
  std::size_t skip = q.tx_off;
  for (const std::string& bytes : q.tx) {
    if (niov >= kMaxSendIovs) {
      break;
    }
    iov[niov].iov_base = const_cast<char*>(bytes.data()) + skip;
    iov[niov].iov_len = bytes.size() - skip;
    skip = 0;  // only the front entry carries an offset
    niov++;
  }
  return niov;
}

// Drops `sent` bytes from the front of the send queue.
void ConsumeSent(IoQueues* q, std::size_t sent) {
  q->tx_bytes -= std::min(sent, q->tx_bytes);
  std::size_t consumed = q->tx_off + sent;
  while (!q->tx.empty() && consumed >= q->tx.front().size()) {
    consumed -= q->tx.front().size();
    q->tx.pop_front();
  }
  q->tx_off = consumed;
}

void DropSends(IoQueues* q) {
  q->tx.clear();
  q->tx_off = 0;
  q->tx_bytes = 0;
  q->tx_inflight = false;
}

// Decodes one multishot RECVMSG buffer: the kernel packs
// [io_uring_recvmsg_out][name area][control area][payload] into it, and the
// armed msghdr reserved sizeof(sockaddr_in) of name space and no control
// space. False when the datagram or its sender address did not fit.
bool ParseDatagram(const char* buf, std::uint32_t len, sockaddr_in* peer, const char** payload,
                   std::uint32_t* payload_len) {
  const auto* hdr = reinterpret_cast<const io_uring_recvmsg_out*>(buf);
  if (len < sizeof(*hdr)) {
    return false;
  }
  const std::size_t payload_off = sizeof(*hdr) + sizeof(sockaddr_in);
  if (len < payload_off || len - payload_off < hdr->payloadlen ||
      hdr->namelen < sizeof(sockaddr_in)) {
    return false;
  }
  std::memcpy(peer, buf + sizeof(*hdr), sizeof(*peer));
  *payload = buf + payload_off;
  *payload_len = hdr->payloadlen;
  return true;
}

}  // namespace

void IoEngine::QLock(IoQueues* q) {
  SpinBackoff backoff;
  while (q->q_spin.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void IoEngine::QUnlock(IoQueues* q) { q->q_spin.clear(std::memory_order_release); }

void IoEngine::BufLock(UringState* s) {
  SpinBackoff backoff;
  while (s->buf_spin.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void IoEngine::BufUnlock(UringState* s) { s->buf_spin.clear(std::memory_order_release); }

// Sets up the ring, then checks every feature the completion data path
// needs. Any shortfall tears the ring down again: a kIoUring engine either
// runs the whole completion path or is an epoll engine.
bool IoEngine::UringInit() {
  uring_ = new UringState;
  UringState* s = uring_;
  const auto fail = [this](const char* why) {
    LogUringFallbackOnce(why);
    UringShutdown();
    return false;
  };
  s->params.flags = IORING_SETUP_CQSIZE;
  s->params.cq_entries = kCqEntries;
  uring_fd_ = SysIoUringSetup(kSqEntries, &s->params);
  if (uring_fd_ < 0) {
    return fail("io_uring_setup refused");
  }
  // Feature probe: every op the engine arms must be supported.
  // IORING_OP_SEND_ZC doubles as the kernel >= 6.0 marker — the generation
  // where multishot RECV and provided buffer rings are complete — since
  // probe flags only say an opcode exists, not which sqe flags it honours.
  constexpr unsigned kProbeOps = 256;
  std::vector<unsigned char> probe_mem(
      sizeof(io_uring_probe) + kProbeOps * sizeof(io_uring_probe_op), 0);
  auto* probe = reinterpret_cast<io_uring_probe*>(probe_mem.data());
  if (SysIoUringRegister(uring_fd_, IORING_REGISTER_PROBE, probe, kProbeOps) < 0) {
    return fail("probe rejected");
  }
  for (const unsigned op : {static_cast<unsigned>(IORING_OP_POLL_ADD),
                            static_cast<unsigned>(IORING_OP_RECV),
                            static_cast<unsigned>(IORING_OP_SEND),
                            static_cast<unsigned>(IORING_OP_SENDMSG),
                            static_cast<unsigned>(IORING_OP_RECVMSG),
                            static_cast<unsigned>(IORING_OP_ACCEPT),
                            static_cast<unsigned>(IORING_OP_ASYNC_CANCEL),
                            static_cast<unsigned>(IORING_OP_SEND_ZC)}) {
    if (op > probe->last_op || (probe->ops[op].flags & IO_URING_OP_SUPPORTED) == 0) {
      return fail("op probe short");
    }
  }

  s->sq_ring_len = s->params.sq_off.array + s->params.sq_entries * sizeof(unsigned);
  s->cq_ring_len = s->params.cq_off.cqes + s->params.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (s->params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    s->sq_ring_len = s->cq_ring_len = std::max(s->sq_ring_len, s->cq_ring_len);
  }
  s->sq_ring = MapRing(uring_fd_, s->sq_ring_len, IORING_OFF_SQ_RING);
  s->cq_ring = single_mmap ? s->sq_ring : MapRing(uring_fd_, s->cq_ring_len, IORING_OFF_CQ_RING);
  s->sqes_len = s->params.sq_entries * sizeof(io_uring_sqe);
  s->sqes = static_cast<io_uring_sqe*>(MapRing(uring_fd_, s->sqes_len, IORING_OFF_SQES));
  if (s->sq_ring == nullptr || s->cq_ring == nullptr || s->sqes == nullptr) {
    return fail("ring mmap failed");
  }
  auto* sq = static_cast<unsigned char*>(s->sq_ring);
  s->sq_head = reinterpret_cast<unsigned*>(sq + s->params.sq_off.head);
  s->sq_tail = reinterpret_cast<unsigned*>(sq + s->params.sq_off.tail);
  s->sq_mask = *reinterpret_cast<unsigned*>(sq + s->params.sq_off.ring_mask);
  s->sq_array = reinterpret_cast<unsigned*>(sq + s->params.sq_off.array);
  s->sq_flags = reinterpret_cast<unsigned*>(sq + s->params.sq_off.flags);
  auto* cq = static_cast<unsigned char*>(s->cq_ring);
  s->cq_head = reinterpret_cast<unsigned*>(cq + s->params.cq_off.head);
  s->cq_tail = reinterpret_cast<unsigned*>(cq + s->params.cq_off.tail);
  s->cq_mask = *reinterpret_cast<unsigned*>(cq + s->params.cq_off.ring_mask);
  s->cqes = reinterpret_cast<io_uring_cqe*>(cq + s->params.cq_off.cqes);

  // Provided buffer ring: one page-aligned ring of descriptors plus a flat
  // arena the kernel scatters received bytes into. The arena is left
  // uninitialized, so a page costs memory only once a recv lands in it.
  void* ring_mem = mmap(nullptr, kBufEntries * sizeof(io_uring_buf), PROT_READ | PROT_WRITE,
                        MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
  if (ring_mem == MAP_FAILED) {
    return fail("buffer ring mmap failed");
  }
  s->buf_ring = static_cast<io_uring_buf_ring*>(ring_mem);
  s->bufs = static_cast<io_uring_buf*>(ring_mem);
  io_uring_buf_reg reg{};
  reg.ring_addr = reinterpret_cast<std::uintptr_t>(ring_mem);
  reg.ring_entries = kBufEntries;
  reg.bgid = kBufGroup;
  // Registered files, sparse: every slot starts empty (-1).
  std::vector<int> table(kFixedFileSlots, -1);
  if (SysIoUringRegister(uring_fd_, IORING_REGISTER_PBUF_RING, &reg, 1) < 0 ||
      SysIoUringRegister(uring_fd_, IORING_REGISTER_FILES, table.data(), kFixedFileSlots) < 0) {
    return fail("buffer ring or file table registration refused");
  }
  s->buf_arena = std::make_unique_for_overwrite<char[]>(kBufEntries * kBufSize);
  for (unsigned i = 0; i < kBufEntries; i++) {
    io_uring_buf* slot = &s->bufs[i];
    slot->addr = reinterpret_cast<std::uintptr_t>(s->buf_arena.get() + i * kBufSize);
    slot->len = static_cast<std::uint32_t>(kBufSize);
    slot->bid = static_cast<std::uint16_t>(i);
  }
  s->buf_tail = static_cast<std::uint16_t>(kBufEntries);
  __atomic_store_n(&s->buf_ring->tail, s->buf_tail, __ATOMIC_RELEASE);
  s->free_slots.reserve(kFixedFileSlots);
  for (int slot = kFixedFileSlots - 1; slot >= 0; slot--) {
    s->free_slots.push_back(slot);
  }
  return true;
}

void IoEngine::UringShutdown() {
  UringState* s = uring_;
  if (s == nullptr) {
    return;
  }
  if (s->buf_ring != nullptr) {
    munmap(s->buf_ring, kBufEntries * sizeof(io_uring_buf));
  }
  if (s->sqes != nullptr) {
    munmap(s->sqes, s->sqes_len);
  }
  if (s->cq_ring != nullptr && s->cq_ring != s->sq_ring) {
    munmap(s->cq_ring, s->cq_ring_len);
  }
  if (s->sq_ring != nullptr) {
    munmap(s->sq_ring, s->sq_ring_len);
  }
  if (uring_fd_ >= 0) {
    close(uring_fd_);
  }
  uring_fd_ = -1;
  delete s;
  uring_ = nullptr;
}

void IoEngine::SqLock(UringState* s) {
  SpinBackoff backoff;
  while (s->sqe_spin.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void IoEngine::SqUnlock(UringState* s) { s->sqe_spin.clear(std::memory_order_release); }

void* IoEngine::SqePrepareLocked() {
  UringState* s = uring_;
  const unsigned head = __atomic_load_n(s->sq_head, __ATOMIC_ACQUIRE);
  const unsigned tail = *s->sq_tail;
  if (tail - head >= s->params.sq_entries) {
    // SQ full: flush what is queued inline and retry once; a second failure
    // means the ring is badly undersized — report it to the caller.
    SysIoUringEnter(uring_fd_, s->to_submit.load(std::memory_order_relaxed), 0, 0);
    IncLane(stats_.sys_enter, worker_);
    s->to_submit.store(0, std::memory_order_relaxed);
    if (*s->sq_tail - __atomic_load_n(s->sq_head, __ATOMIC_ACQUIRE) >= s->params.sq_entries) {
      return nullptr;
    }
  }
  io_uring_sqe* sqe = &s->sqes[*s->sq_tail & s->sq_mask];
  std::memset(sqe, 0, sizeof(*sqe));
  return sqe;
}

void IoEngine::SqeCommitLocked() {
  UringState* s = uring_;
  const unsigned tail = *s->sq_tail;
  const unsigned index = tail & s->sq_mask;
  s->sq_array[index] = index;
  __atomic_store_n(s->sq_tail, tail + 1, __ATOMIC_RELEASE);
  s->to_submit.fetch_add(1, std::memory_order_relaxed);
}

// One multishot POLL_ADD on the epoll fd watches every readiness handle of
// the engine. It posts a CQE per wakeup of the epoll set, not per event and
// not while the set stays ready, so each CQE is answered by draining
// epoll_wait until it returns a short batch (EpollPoll).
bool IoEngine::ArmEpollBridge() {
  // Single unlock point (no early unlock-and-return): skylint's lock walk is
  // lexical, so an SqUnlock inside a return branch would mark the commit
  // below as unlocked. Same shape in every SQE-arming function here.
  UringState* s = uring_;
  SqLock(s);
  auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
  if (sqe != nullptr) {
    sqe->opcode = IORING_OP_POLL_ADD;
    sqe->fd = epoll_fd_;
    sqe->poll32_events = POLLIN;
    sqe->len = IORING_POLL_ADD_MULTI;
    sqe->user_data = kTagEpoll;
    SqeCommitLocked();
  }
  SqUnlock(s);
  return sqe != nullptr;
}

// Retires one expected CQE (or the open reference Deregister drops). Whoever
// drops the count to zero owns the free — which the open reference defers
// until after Deregister; until then some op or cancel completion may still
// reference the handle. Must be the caller's LAST touch of the handle.
void IoEngine::UringFinishCqe(IoHandle* handle) {
  if (handle->pending_cqes.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FreeQueues(handle);
    UntrackHandle(handle);
    delete handle;
  }
}

void IoEngine::UringSubmit() {
  UringState* s = uring_;
  SqLock(s);
  const unsigned n = s->to_submit.load(std::memory_order_relaxed);
  s->to_submit.store(0, std::memory_order_relaxed);
  SqUnlock(s);
  if (n > 0) {
    SysIoUringEnter(uring_fd_, n, 0, 0);
    IncLane(stats_.sys_enter, worker_);
  }
}

int IoEngine::UringPoll() {
  UringState* s = uring_;
  RearmStalled();
  if (!bridge_armed_) {
    // The engine's first round, or the kernel ended the bridge's multishot:
    // arm it and submit now (the CQE posts to the submitting task, so this
    // belongs on the home worker), and drain whatever became ready while the
    // set was unwatched. If the SQ stays jammed, the drain repeats every
    // round until an arm succeeds.
    bridge_armed_ = ArmEpollBridge();
    bridge_fired_ = true;
    submit_rounds_ = 0;
    UringSubmit();
  }
  int dispatched = 0;
  unsigned head = __atomic_load_n(s->cq_head, __ATOMIC_ACQUIRE);
  const unsigned tail = __atomic_load_n(s->cq_tail, __ATOMIC_ACQUIRE);
  while (head != tail && dispatched < kPollBatch) {
    const io_uring_cqe* cqe = &s->cqes[head & s->cq_mask];
    const std::uintptr_t tag = cqe->user_data & kTagMask;
    head++;
    if (tag == kTagEpoll) {
      bridge_fired_ = true;
      if ((cqe->flags & IORING_CQE_F_MORE) == 0) {
        bridge_armed_ = false;  // re-armed at the top of the next round
      }
      continue;
    }
    if (tag == kTagDgram) {
      // The op pointer travels in the user_data; its CQE is the free point
      // for the payload and one expected CQE of the owning handle. Send
      // errors are intentionally dropped — UDP replies are best-effort.
      auto* op = reinterpret_cast<DgramSendOp*>(cqe->user_data & ~kTagMask);
      IoHandle* handle = op->handle;
      delete op;
      UringFinishCqe(handle);
      dispatched++;
      continue;
    }
    auto* handle = reinterpret_cast<IoHandle*>(cqe->user_data & ~kTagMask);
    if (tag == kTagCancel) {
      // One CQE per ASYNC_CANCEL submitted by Deregister.
      UringFinishCqe(handle);
      continue;
    }
    dispatched++;
    if (tag == kTagRecv) {
      HandleRecvCqe(handle, cqe->res, cqe->flags);
    } else if (tag == kTagAccept) {
      HandleAcceptCqe(handle, cqe->res, cqe->flags);
    } else {  // kTagSend
      HandleSendCqe(handle, cqe->res);
    }
  }
  __atomic_store_n(s->cq_head, head, __ATOMIC_RELEASE);
  if (bridge_fired_) {
    bridge_fired_ = false;
    dispatched += EpollPoll();
  }
  if ((__atomic_load_n(s->sq_flags, __ATOMIC_ACQUIRE) & IORING_SQ_CQ_OVERFLOW) != 0) {
    // A CQ overflow parked completions kernel-side; flush them into the ring
    // so the next Poll can reap (the deep CQ makes this rare).
    SysIoUringEnter(uring_fd_, 0, 0, IORING_ENTER_GETEVENTS);
    IncLane(stats_.sys_enter, worker_);
  }
  // The batched-submission point: every op queued since the last round —
  // handler sends, registrations, cancels, plus the re-arms above — goes to
  // the kernel in one enter. Reaping above is pure shared-memory work, so it
  // runs every scheduler round; the enter() is DEFERRED until a worthwhile
  // batch accumulated or a flush is overdue — the scheduler polls between
  // every two uthread segments, so an eager flush here would pay one syscall
  // per handler send. The worker loop's pre-idle FlushSubmissions() bounds
  // the added latency whenever the runqueue drains; the round limit bounds it
  // when a yield-spinning uthread keeps the worker out of the idle path.
  const unsigned pending = s->to_submit.load(std::memory_order_relaxed);
  if (pending == 0) {
    submit_rounds_ = 0;
  } else if (pending >= kSubmitEagerBatch || ++submit_rounds_ >= kSubmitRoundLimit) {
    submit_rounds_ = 0;
    UringSubmit();
  }
  return dispatched;
}

void IoEngine::FlushSubmissions() {
  UringState* s = uring_;
  if (s != nullptr && s->to_submit.load(std::memory_order_relaxed) > 0) {
    submit_rounds_ = 0;
    UringSubmit();
  }
}

// ---------------------------------------------------------------------------
// Completion data path (multishot RECV/RECVMSG/ACCEPT + provided buffers +
// async sends).
// ---------------------------------------------------------------------------

int IoEngine::AllocFixedSlot(int fd) {
  UringState* s = uring_;
  int slot = -1;
  LockHandles();
  if (!s->free_slots.empty()) {
    slot = s->free_slots.back();
    s->free_slots.pop_back();
  }
  UnlockHandles();
  if (slot < 0) {
    return -1;
  }
  io_uring_files_update up{};
  up.offset = static_cast<unsigned>(slot);
  up.fds = reinterpret_cast<std::uintptr_t>(&fd);
  if (SysIoUringRegister(uring_fd_, IORING_REGISTER_FILES_UPDATE, &up, 1) < 0) {
    LockHandles();
    s->free_slots.push_back(slot);
    UnlockHandles();
    return -1;
  }
  return slot;
}

void IoEngine::ReleaseFixedSlot(int slot) {
  UringState* s = uring_;
  int minus_one = -1;
  io_uring_files_update up{};
  up.offset = static_cast<unsigned>(slot);
  up.fds = reinterpret_cast<std::uintptr_t>(&minus_one);
  // Clearing the slot releases the table's file reference — the last one by
  // now, since Deregister already closed the fd number.
  SysIoUringRegister(uring_fd_, IORING_REGISTER_FILES_UPDATE, &up, 1);
  LockHandles();
  s->free_slots.push_back(slot);
  UnlockHandles();
}

bool IoEngine::ArmMainOp(IoHandle* handle) {
  UringState* s = uring_;
  IoQueues* q = handle->queues;
  SKYLOFT_CHECK(q != nullptr) << "ArmMainOp on a readiness handle";
  SqLock(s);
  auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
  if (sqe != nullptr) {
    const bool fixed = q->fixed_slot >= 0;
    sqe->fd = fixed ? q->fixed_slot : handle->fd;
    if (fixed) {
      sqe->flags |= IOSQE_FIXED_FILE;
    }
    switch (handle->mode) {
      case IoRegisterMode::kStream:
        sqe->opcode = IORING_OP_RECV;
        sqe->ioprio = IORING_RECV_MULTISHOT;
        sqe->flags |= IOSQE_BUFFER_SELECT;
        sqe->buf_group = kBufGroup;
        sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagRecv;
        break;
      case IoRegisterMode::kDatagram:
        sqe->opcode = IORING_OP_RECVMSG;
        sqe->ioprio = IORING_RECV_MULTISHOT;
        sqe->flags |= IOSQE_BUFFER_SELECT;
        sqe->buf_group = kBufGroup;
        sqe->addr = reinterpret_cast<std::uintptr_t>(&q->rx_msg);
        sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagRecv;
        break;
      case IoRegisterMode::kListener:
        sqe->opcode = IORING_OP_ACCEPT;
        sqe->ioprio = IORING_ACCEPT_MULTISHOT;
        sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
        sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagAccept;
        break;
      case IoRegisterMode::kReadiness:
        break;  // unreachable, checked on entry
    }
    SqeCommitLocked();
  }
  SqUnlock(s);
  return sqe != nullptr;
}

// Arms the next SEND/SENDMSG for the queued front entries. Caller holds the
// handle's queue lock; nests the SQ lock inside it (lock order
// io_handle_q -> uring_sq, everywhere). MSG_NOSIGNAL keeps a reset peer from
// raising SIGPIPE out of the kernel's async context.
bool IoEngine::ArmSendLocked(IoHandle* handle) {
  IoQueues* q = handle->queues;
  const int niov = FillSendIovs(*q, q->tx_iov);
  SKYLOFT_CHECK(niov > 0) << "ArmSendLocked with an empty send queue";
  UringState* s = uring_;
  SqLock(s);
  auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
  if (sqe != nullptr) {
    const bool fixed = q->fixed_slot >= 0;
    sqe->fd = fixed ? q->fixed_slot : handle->fd;
    if (fixed) {
      sqe->flags |= IOSQE_FIXED_FILE;
    }
    if (niov == 1) {
      sqe->opcode = IORING_OP_SEND;
      sqe->addr = reinterpret_cast<std::uintptr_t>(q->tx_iov[0].iov_base);
      sqe->len = static_cast<std::uint32_t>(q->tx_iov[0].iov_len);
    } else {
      sqe->opcode = IORING_OP_SENDMSG;
      q->tx_msg.msg_iov = q->tx_iov;
      q->tx_msg.msg_iovlen = static_cast<std::size_t>(niov);
      sqe->addr = reinterpret_cast<std::uintptr_t>(&q->tx_msg);
    }
    sqe->msg_flags = MSG_NOSIGNAL;
    sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagSend;
    SqeCommitLocked();
  }
  SqUnlock(s);
  if (sqe == nullptr) {
    return false;
  }
  IncLane(stats_.send_ops, worker_);
  return true;
}

void IoEngine::QueueCancel(IoHandle* handle, std::uintptr_t target_tag) {
  // Must not fail (a dropped cancel means a leaked handle); the inline flush
  // in SqePrepareLocked drains a full SQ, so the retry terminates.
  UringState* s = uring_;
  SpinBackoff backoff;
  while (true) {
    SqLock(s);
    auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
    if (sqe != nullptr) {
      sqe->opcode = IORING_OP_ASYNC_CANCEL;
      sqe->addr = reinterpret_cast<std::uintptr_t>(handle) | target_tag;
      sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagCancel;
      SqeCommitLocked();
      SqUnlock(s);
      return;
    }
    SqUnlock(s);
    backoff.Pause();
  }
}

void IoEngine::StallHandle(IoHandle* handle) {
  // Home-worker only (called while reaping). The terminal CQE's expected-CQE
  // reference transfers to the list entry, keeping the handle alive until
  // RearmStalled either re-arms (reference moves back to the op) or observes
  // the close (reference dropped via UringFinishCqe).
  stalled_.push_back(handle);
}

void IoEngine::RearmStalled() {
  if (stalled_.empty()) {
    return;
  }
  UringState* s = uring_;
  const std::uint64_t recycled = s->buf_recycled.load(std::memory_order_acquire);
  const bool bufs_back = recycled != last_recycled_;
  std::size_t kept = 0;
  for (IoHandle* handle : stalled_) {
    if (handle->closed.load(std::memory_order_acquire)) {
      UringFinishCqe(handle);  // drop the list reference; may free
      continue;
    }
    // ENOBUFS-stalled recvs only retry once a buffer came back; accept
    // stalls (EMFILE bursts) retry every round — their resource isn't ours
    // to observe.
    const bool listener = handle->mode == IoRegisterMode::kListener;
    if (!listener && !bufs_back) {
      stalled_[kept++] = handle;
      continue;
    }
    // Publish-then-recheck against a concurrent Deregister (which stores
    // closed, then reads armed): with seq_cst on both sides at least one of
    // us sees the other, so a re-armed op always has a cancel coming or is
    // never armed at all.
    handle->main_op_armed.store(true, std::memory_order_seq_cst);
    if (handle->closed.load(std::memory_order_seq_cst)) {
      handle->main_op_armed.store(false, std::memory_order_release);
      UringFinishCqe(handle);
      continue;
    }
    if (!ArmMainOp(handle)) {
      handle->main_op_armed.store(false, std::memory_order_release);
      stalled_[kept++] = handle;
    }
  }
  stalled_.resize(kept);
  last_recycled_ = recycled;
}

void IoEngine::HandleRecvCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags) {
  const bool more = (flags & IORING_CQE_F_MORE) != 0;
  const bool has_buf = (flags & IORING_CQE_F_BUFFER) != 0;
  const auto bid = static_cast<std::uint16_t>(flags >> IORING_CQE_BUFFER_SHIFT);
  if (handle->closed.load(std::memory_order_acquire)) {
    // Stale completion for a deregistered handle: the buffer still belongs
    // to the ring, the data does not belong to anyone.
    if (has_buf) {
      RecycleBuffer(bid);
    }
    if (!more) {
      handle->main_op_armed.store(false, std::memory_order_release);
      UringFinishCqe(handle);
    }
    return;
  }
  if (res < 0) {
    // Errors are terminal for the multishot (the kernel never sets F_MORE on
    // them).
    handle->main_op_armed.store(false, std::memory_order_release);
    if (res == -ENOBUFS) {
      // Provided-buffer ring ran dry: park on the stall list and re-arm once
      // a consumer recycles — the backpressure path, not an error.
      IncLane(stats_.buf_exhaustions, worker_);
      StallHandle(handle);
      return;
    }
    DeliverReady(handle, kIoError);
    UringFinishCqe(handle);
    return;
  }
  if (res == 0) {
    // Stream EOF. Terminal: re-arming would just replay 0-byte completions.
    if (has_buf) {
      RecycleBuffer(bid);
    }
    handle->main_op_armed.store(false, std::memory_order_release);
    DeliverReady(handle, kIoHup);
    if (!more) {
      UringFinishCqe(handle);
    }
    return;
  }
  if (has_buf) {
    IoQueues* q = handle->queues;
    QLock(q);
    q->rx.push_back(IoRecvSeg{static_cast<std::uint32_t>(res), bid});
    QUnlock(q);
    IncLane(stats_.recv_segments, worker_);
    DeliverReady(handle, kIoReadable);
  }
  if (!more) {
    // The kernel retired the multishot without an error (e.g. bufs were
    // momentarily short); re-arm inline so the data path keeps flowing.
    if (!ArmMainOp(handle)) {
      handle->main_op_armed.store(false, std::memory_order_release);
      DeliverReady(handle, kIoError);
      UringFinishCqe(handle);
    }
  }
}

void IoEngine::HandleAcceptCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags) {
  const bool more = (flags & IORING_CQE_F_MORE) != 0;
  if (handle->closed.load(std::memory_order_acquire)) {
    if (res >= 0) {
      close(res);  // accepted after the listener was torn down
    }
    if (!more) {
      handle->main_op_armed.store(false, std::memory_order_release);
      UringFinishCqe(handle);
    }
    return;
  }
  if (res < 0) {
    handle->main_op_armed.store(false, std::memory_order_release);
    if (res == -ECANCELED) {
      UringFinishCqe(handle);
      return;
    }
    // Transient accept failure (ECONNABORTED, EMFILE burst): retry from the
    // stall list next poll round rather than killing the listener.
    StallHandle(handle);
    return;
  }
  IoQueues* q = handle->queues;
  QLock(q);
  q->accepted.push_back(res);
  QUnlock(q);
  IncLane(stats_.completion_accepts, worker_);
  DeliverReady(handle, kIoReadable);
  if (!more) {
    if (!ArmMainOp(handle)) {
      handle->main_op_armed.store(false, std::memory_order_release);
      DeliverReady(handle, kIoError);
      UringFinishCqe(handle);
    }
  }
}

void IoEngine::HandleSendCqe(IoHandle* handle, std::int32_t res) {
  IoQueues* q = handle->queues;
  unsigned latch = 0;
  bool finished = true;  // this CQE retires the in-flight send unless re-armed
  QLock(q);
  if (res < 0) {
    // EPIPE/ECONNRESET and friends: the connection is done writing; drop the
    // queue so teardown doesn't wait on bytes that can never leave.
    DropSends(q);
    latch = kIoError;
  } else {
    ConsumeSent(q, static_cast<std::size_t>(res));
    if (q->tx.empty()) {
      q->tx_inflight = false;
      latch = kIoWritable;  // drained: wake a backpressured writer
    } else if (handle->closed.load(std::memory_order_acquire)) {
      DropSends(q);
    } else if (ArmSendLocked(handle)) {
      finished = false;  // short send: continuation keeps the expected CQE
    } else {
      q->tx_inflight = false;
      latch = kIoError;
    }
  }
  QUnlock(q);
  if (latch != 0) {
    DeliverReady(handle, latch);  // no-op on closed handles
  }
  if (finished) {
    UringFinishCqe(handle);
  }
}

void IoEngine::RecycleBuffer(std::uint16_t buf_id) {
  UringState* s = uring_;
  BufLock(s);
  const std::uint16_t tail = s->buf_tail;
  io_uring_buf* slot = &s->bufs[tail & (kBufEntries - 1)];
  slot->addr = reinterpret_cast<std::uintptr_t>(
      s->buf_arena.get() + static_cast<std::size_t>(buf_id) * kBufSize);
  slot->len = static_cast<std::uint32_t>(kBufSize);
  slot->bid = buf_id;
  s->buf_tail = static_cast<std::uint16_t>(tail + 1);
  __atomic_store_n(&s->buf_ring->tail, s->buf_tail, __ATOMIC_RELEASE);
  BufUnlock(s);
  s->buf_recycled.fetch_add(1, std::memory_order_release);
}

// Queues `bytes` on a completion handle's send queue and arms a send if none
// is in flight (short sends re-arm from the CQE until drained).
bool IoEngine::EnqueueSendLocked(IoHandle* handle, std::string_view bytes) {
  IoQueues* q = handle->queues;
  q->tx_bytes += bytes.size();
  q->tx.emplace_back(bytes);
  if (q->tx_inflight) {
    return true;
  }
  // Count the send's expected CQE before the kernel can post it (the open
  // reference keeps the count above zero meanwhile).
  handle->pending_cqes.fetch_add(1, std::memory_order_acq_rel);
  if (ArmSendLocked(handle)) {
    q->tx_inflight = true;
    return true;
  }
  handle->pending_cqes.fetch_sub(1, std::memory_order_acq_rel);
  DropSends(q);
  return false;
}

unsigned IoEngine::WriteQueuedLocked(IoHandle* handle) {
  IoQueues* q = handle->queues;
  while (!q->tx.empty()) {
    iovec iov[kMaxSendIovs];
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(FillSendIovs(*q, iov));
    // skylint:allow(blocking-call-on-worker) -- Register made the fd nonblocking
    const ssize_t n = sendmsg(handle->fd, &msg, MSG_NOSIGNAL);
    IncLane(stats_.sys_write, worker_);
    if (n >= 0) {
      ConsumeSent(q, static_cast<std::size_t>(n));
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return 0;  // the next EPOLLOUT edge resumes the flush
    } else if (errno != EINTR) {
      DropSends(q);  // EPIPE / ECONNRESET: these bytes can never leave
      return kIoError;
    }
  }
  return kIoWritable;
}

std::ptrdiff_t IoEngine::Recv(IoHandle* handle, char* buf, std::size_t cap) {
  if (!Completion(handle)) {
    while (true) {
      // skylint:allow(blocking-call-on-worker) -- Register made the fd nonblocking
      const ssize_t n = read(handle->fd, buf, cap);
      IncLane(stats_.sys_read, worker_);
      if (n > 0) {
        return n;
      }
      if (n == 0) {
        // A failed send may already have taken the socket's error, leaving
        // only the EOF behind it; the latched error still says "reset".
        return (handle->ready.load(std::memory_order_acquire) & kIoError) != 0 ? kIoReset
                                                                              : kIoEof;
      }
      if (errno != EINTR) {
        return errno == EAGAIN || errno == EWOULDBLOCK ? kIoAgain : kIoReset;
      }
    }
  }
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  // Latches first: the home engine queues a stream's last segments before it
  // latches the EOF or error behind them, so a latch seen here means an
  // empty queue below really is the end.
  const unsigned ready = handle->ready.load(std::memory_order_acquire);
  IoQueues* q = handle->queues;
  const char* arena = uring_->buf_arena.get();
  std::size_t copied = 0;
  QLock(q);
  while (copied < cap && !q->rx.empty()) {
    const IoRecvSeg seg = q->rx.front();
    const std::size_t take = std::min<std::size_t>(seg.len - q->rx_off, cap - copied);
    std::memcpy(buf + copied, arena + seg.bid * kBufSize + q->rx_off, take);
    copied += take;
    q->rx_off += take;
    if (q->rx_off == seg.len) {
      q->rx.pop_front();
      q->rx_off = 0;
      RecycleBuffer(seg.bid);
    }
  }
  QUnlock(q);
  if (copied > 0) {
    return static_cast<std::ptrdiff_t>(copied);
  }
  if ((ready & kIoError) != 0) {
    return kIoReset;
  }
  return (ready & kIoHup) != 0 ? kIoEof : kIoAgain;
}

std::ptrdiff_t IoEngine::Send(IoHandle* handle, std::string_view bytes) {
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  IoQueues* q = handle->queues;
  bool ok = true;
  // The queue lock is held across the epoll send too: a Poll that flushes
  // on EPOLLOUT then either ran before this send (whose own EAGAIN arms the
  // next edge) or sees the remainder queued below.
  QLock(q);
  if (handle->closed.load(std::memory_order_acquire) ||
      (handle->ready.load(std::memory_order_acquire) & kIoError) != 0) {
    ok = false;  // the connection already failed: drop the bytes
  } else if (Completion(handle)) {
    ok = EnqueueSendLocked(handle, bytes);
  } else if (!q->tx.empty()) {
    q->tx_bytes += bytes.size();  // behind an unsent remainder, in order
    q->tx.emplace_back(bytes);
  } else {
    // The common case: the socket takes the batch whole, with no copy.
    std::size_t off = 0;
    while (ok && off < bytes.size()) {
      // skylint:allow(blocking-call-on-worker) -- Register made the fd nonblocking
      const ssize_t n = send(handle->fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      IncLane(stats_.sys_write, worker_);
      if (n >= 0) {
        off += static_cast<std::size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        q->tx_bytes += bytes.size() - off;
        q->tx.emplace_back(bytes.substr(off));
        break;
      } else if (errno != EINTR) {
        ok = false;  // EPIPE / ECONNRESET: the peer is gone
      }
    }
  }
  const std::size_t queued = q->tx_bytes;
  QUnlock(q);
  if (!ok) {
    // No send is left to finish, so a writer could wait forever; latch an
    // error so the handler fails the connection instead.
    DeliverReady(handle, kIoError);
    return kIoReset;
  }
  return static_cast<std::ptrdiff_t>(queued);
}

std::size_t IoEngine::SendQueuedBytes(IoHandle* handle) {
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  IoQueues* q = handle->queues;
  QLock(q);
  const std::size_t n = q->tx_bytes;
  QUnlock(q);
  return n;
}

int IoEngine::Accept(IoHandle* handle) {
  if (!Completion(handle)) {
    while (true) {
      // skylint:allow(blocking-call-on-worker) -- Register made the fd nonblocking
      const int fd = accept4(handle->fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      IncLane(stats_.sys_accept, worker_);
      // EAGAIN: the backlog is drained. Other errors: the next edge retries.
      if (fd >= 0 || errno != EINTR) {
        return fd;
      }
    }
  }
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  IoQueues* q = handle->queues;
  int fd = -1;
  QLock(q);
  if (!q->accepted.empty()) {
    fd = q->accepted.front();
    q->accepted.pop_front();
  }
  QUnlock(q);
  return fd;
}

std::ptrdiff_t IoEngine::RecvFrom(IoHandle* handle, char* buf, std::size_t cap,
                                  sockaddr_in* peer) {
  if (!Completion(handle)) {
    while (true) {
      socklen_t peer_len = sizeof(*peer);
      // skylint:allow(blocking-call-on-worker) -- Register made the fd nonblocking
      const ssize_t n = recvfrom(handle->fd, buf, cap, 0, reinterpret_cast<sockaddr*>(peer),
                                 &peer_len);
      IncLane(stats_.sys_read, worker_);
      if (n >= 0 || errno != EINTR) {
        return n >= 0 ? n : kIoAgain;  // EAGAIN: drained
      }
    }
  }
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  IoQueues* q = handle->queues;
  bool popped = false;
  IoRecvSeg seg;
  QLock(q);
  if (!q->rx.empty()) {
    seg = q->rx.front();
    q->rx.pop_front();
    popped = true;
  }
  QUnlock(q);
  if (!popped) {
    return kIoAgain;
  }
  const char* payload = nullptr;
  std::uint32_t len = 0;
  if (!ParseDatagram(uring_->buf_arena.get() + seg.bid * kBufSize, seg.len, peer, &payload,
                     &len)) {
    len = 0;  // did not fit the provided buffer: read as an empty datagram
    *peer = sockaddr_in{};
  }
  const std::size_t n = std::min<std::size_t>(len, cap);
  if (n > 0) {
    std::memcpy(buf, payload, n);
  }
  RecycleBuffer(seg.bid);
  return static_cast<std::ptrdiff_t>(n);
}

bool IoEngine::SendTo(IoHandle* handle, const sockaddr_in& peer, std::string_view bytes) {
  if (!Completion(handle)) {
    // skylint:allow(blocking-call-on-worker) -- Register made the fd nonblocking
    const ssize_t n = sendto(handle->fd, bytes.data(), bytes.size(), MSG_NOSIGNAL,
                             reinterpret_cast<const sockaddr*>(&peer), sizeof(peer));
    IncLane(stats_.sys_write, worker_);
    return n >= 0;
  }
  // A fire-and-forget async SENDMSG; the op owns a copy of the payload until
  // its CQE.
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  IoQueues* q = handle->queues;
  if (handle->closed.load(std::memory_order_acquire)) {
    return false;
  }
  auto* op = new DgramSendOp;
  op->handle = handle;
  op->to = peer;
  op->payload.assign(bytes);
  op->iov.iov_base = const_cast<char*>(op->payload.data());
  op->iov.iov_len = op->payload.size();
  op->msg.msg_name = &op->to;
  op->msg.msg_namelen = sizeof(op->to);
  op->msg.msg_iov = &op->iov;
  op->msg.msg_iovlen = 1;
  // Counted before the kernel can post the CQE; the open reference keeps
  // the count above zero meanwhile.
  handle->pending_cqes.fetch_add(1, std::memory_order_acq_rel);
  UringState* s = uring_;
  SqLock(s);
  auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
  if (sqe != nullptr) {
    const bool fixed = q->fixed_slot >= 0;
    sqe->fd = fixed ? q->fixed_slot : handle->fd;
    if (fixed) {
      sqe->flags |= IOSQE_FIXED_FILE;
    }
    sqe->opcode = IORING_OP_SENDMSG;
    sqe->addr = reinterpret_cast<std::uintptr_t>(&op->msg);
    sqe->msg_flags = MSG_NOSIGNAL;
    sqe->user_data = reinterpret_cast<std::uintptr_t>(op) | kTagDgram;
    SqeCommitLocked();
  }
  SqUnlock(s);
  if (sqe == nullptr) {
    handle->pending_cqes.fetch_sub(1, std::memory_order_acq_rel);
    delete op;
    return false;  // SQ jammed: drop the reply, exactly like UDP overload
  }
  IncLane(stats_.send_ops, worker_);
  return true;
}

void IoEngine::FreeQueues(IoHandle* handle) {
  IoQueues* q = handle->queues;
  if (q == nullptr) {
    return;
  }
  // The free point: no op references the handle any more, so queued-but-
  // unconsumed resources return to their owners — buffers to the ring,
  // never-taken accepted fds to the kernel.
  for (const IoRecvSeg& seg : q->rx) {
    RecycleBuffer(seg.bid);
  }
  for (const int fd : q->accepted) {
    close(fd);
  }
  if (q->fixed_slot >= 0) {
    ReleaseFixedSlot(q->fixed_slot);
  }
  delete q;
  handle->queues = nullptr;
}

// ---------------------------------------------------------------------------
// Backend-neutral engine.
// ---------------------------------------------------------------------------

IoEngine::IoEngine(int worker, const IoEngineOptions& options, const IoEngineStats& stats)
    : worker_(worker), stats_(stats) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  SKYLOFT_CHECK(epoll_fd_ >= 0) << "epoll_create1 failed: " << std::strerror(errno);
  event_buf_.resize(kPollBatch * sizeof(epoll_event));
  if (options.backend == IoEngineOptions::Backend::kIoUring && !UringInit()) {
    IncLane(stats_.uring_fallbacks, worker_);
  }
}

IoEngine::~IoEngine() {
  // Drain the retire pipeline, then close out whatever the application left
  // registered (a server torn down mid-connection). The stall list holds
  // references to handles that are also in handles_; just drop the list —
  // the sweep below frees them.
  stalled_.clear();
  FreeRetired();
  FreeRetired();
  for (IoHandle* handle : handles_) {
    if (!handle->closed.load(std::memory_order_relaxed)) {
      close(handle->fd);
    }
    FreeQueues(handle);
    delete handle;
  }
  handles_.clear();
  UringShutdown();
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

void IoEngine::LockHandles() {
  SpinBackoff backoff;
  while (handles_spin_.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void IoEngine::UnlockHandles() { handles_spin_.clear(std::memory_order_release); }

void IoEngine::TrackHandle(IoHandle* handle) {
  LockHandles();
  handles_.push_back(handle);
  UnlockHandles();
}

void IoEngine::UntrackHandle(IoHandle* handle) {
  LockHandles();
  for (std::size_t i = 0; i < handles_.size(); i++) {
    if (handles_[i] == handle) {
      handles_[i] = handles_.back();
      handles_.pop_back();
      break;
    }
  }
  UnlockHandles();
}

IoHandle* IoEngine::Register(int fd, IoRegisterMode mode) {
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  const int fl = fcntl(fd, F_GETFL, 0);
  if (fl < 0 || fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) {
    return nullptr;
  }
  auto* handle = new IoHandle;
  handle->fd = fd;
  handle->engine = this;
  handle->mode = mode;
  if (mode != IoRegisterMode::kReadiness) {
    handle->queues = new IoQueues;
  }
  if (Completion(handle)) {
    IoQueues* q = handle->queues;
    if (mode == IoRegisterMode::kDatagram) {
      q->rx_msg.msg_namelen = sizeof(sockaddr_in);
    }
    q->fixed_slot = AllocFixedSlot(fd);
    // Pre-publication: count the main op's expected terminal CQE before
    // the kernel can post it, plus the open reference Deregister drops (the
    // count must not reach zero while the handle is open: a completion
    // reaped just before Deregister begins would otherwise free it under
    // Deregister). The SQE rides the next poll round's batched submit.
    handle->main_op_armed.store(true, std::memory_order_relaxed);
    handle->pending_cqes.store(2, std::memory_order_relaxed);
    if (!ArmMainOp(handle)) {
      FreeQueues(handle);
      delete handle;
      return nullptr;
    }
  } else {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.ptr = handle;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      FreeQueues(handle);
      delete handle;
      return nullptr;
    }
  }
  TrackHandle(handle);
  IncLane(stats_.registered, worker_);
  return handle;
}

void IoEngine::Deregister(IoHandle* handle) {
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  SKYLOFT_CHECK(handle != nullptr && handle->engine == this);
  if (Completion(handle)) {
    // The open reference keeps the handle alive until the end of this
    // function. seq_cst pairs with RearmStalled's armed-store/closed-recheck
    // so the two can never both miss each other (a stalled handle re-armed
    // with no cancel queued).
    const bool was_closed = handle->closed.exchange(true, std::memory_order_seq_cst);
    SKYLOFT_CHECK(!was_closed) << "double Deregister of fd " << handle->fd;
    // Cancel every outstanding op — the multishot main op and an in-flight
    // async send. A pending op holds a file reference, so closing the fd
    // alone would not complete it and its CQE could fire after the handle
    // was freed. Each cancel yields its own CQE too; count both before
    // queueing. The fd can be closed right away — ASYNC_CANCEL targets by
    // user_data, not fd.
    if (handle->main_op_armed.load(std::memory_order_seq_cst)) {
      handle->pending_cqes.fetch_add(1, std::memory_order_acq_rel);
      QueueCancel(handle, handle->mode == IoRegisterMode::kListener ? kTagAccept : kTagRecv);
    }
    // An in-flight async send could otherwise stay queued indefinitely
    // (zero-window peer) pinning the handle; cancel unconditionally — a miss
    // just yields a -ENOENT cancel CQE, which the +1 below absorbs either way.
    handle->pending_cqes.fetch_add(1, std::memory_order_acq_rel);
    QueueCancel(handle, kTagSend);
    close(handle->fd);
    IncLane(stats_.retired, worker_);
    UringFinishCqe(handle);  // drop the open reference; may free
    return;
  }
  bool was_closed;
  if (handle->queues != nullptr) {
    // Under the queue lock: Poll's send-queue flush writes only while the
    // handle is open, so it can never reach the fd number after the close
    // below hands it to someone else.
    QLock(handle->queues);
    was_closed = handle->closed.exchange(true, std::memory_order_acq_rel);
    QUnlock(handle->queues);
  } else {
    was_closed = handle->closed.exchange(true, std::memory_order_acq_rel);
  }
  SKYLOFT_CHECK(!was_closed) << "double Deregister of fd " << handle->fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, handle->fd, nullptr);
  close(handle->fd);
  // Two-phase retire (list -> graveyard -> free) so an event batch fetched
  // by a concurrent epoll_wait on the home worker can never outlive the
  // handle it points at.
  IoHandle* head = retired_head_.load(std::memory_order_relaxed);
  do {
    handle->retire_next = head;
  } while (!retired_head_.compare_exchange_weak(head, handle, std::memory_order_release,
                                                std::memory_order_relaxed));
  IncLane(stats_.retired, worker_);
}

void IoEngine::FreeRetired() {
  for (IoHandle* handle : retire_graveyard_) {
    UntrackHandle(handle);
    FreeQueues(handle);
    delete handle;
  }
  retire_graveyard_.clear();
  IoHandle* head = retired_head_.exchange(nullptr, std::memory_order_acquire);
  while (head != nullptr) {
    IoHandle* next = head->retire_next;
    retire_graveyard_.push_back(head);
    head = next;
  }
}

void IoEngine::DeliverReady(IoHandle* handle, unsigned bits) {
  if (bits == 0 || handle->closed.load(std::memory_order_acquire)) {
    return;
  }
  handle->ready.fetch_or(bits, std::memory_order_acq_rel);
  if (bits & (kIoReadable | kIoHup | kIoError)) {
    UThread* waiter = handle->reader.exchange(nullptr, std::memory_order_acq_rel);
    if (waiter != nullptr) {
      Runtime::Unpark(waiter);
      IncLane(stats_.wakeups, worker_);
    }
  }
  if (bits & (kIoWritable | kIoHup | kIoError)) {
    UThread* waiter = handle->writer.exchange(nullptr, std::memory_order_acq_rel);
    if (waiter != nullptr) {
      Runtime::Unpark(waiter);
      IncLane(stats_.wakeups, worker_);
    }
  }
}

int IoEngine::EpollPoll() {
  auto* events = reinterpret_cast<epoll_event*>(event_buf_.data());
  int total = 0;
  while (true) {
    // This epoll_wait only drains already-pending events: the scheduler loop
    // calls it between uthread switches precisely because it cannot block.
    // skylint:allow(blocking-call-on-worker) -- timeout 0 never sleeps
    const int n = epoll_wait(epoll_fd_, events, kPollBatch, 0);
    for (int i = 0; i < n; i++) {
      unsigned bits = 0;
      const unsigned ev = events[i].events;
      if (ev & (EPOLLIN | EPOLLRDHUP)) {
        bits |= kIoReadable;
      }
      if (ev & EPOLLOUT) {
        bits |= kIoWritable;
      }
      if (ev & EPOLLHUP) {
        bits |= kIoHup;
      }
      if (ev & EPOLLERR) {
        bits |= kIoError;
      }
      auto* handle = static_cast<IoHandle*>(events[i].data.ptr);
      if ((ev & EPOLLOUT) != 0 && handle->queues != nullptr) {
        // A data handle is writable for its writer only once the engine has
        // sent what Send left queued.
        IoQueues* q = handle->queues;
        unsigned flushed = kIoWritable;
        QLock(q);
        if (!handle->closed.load(std::memory_order_acquire)) {
          flushed = WriteQueuedLocked(handle);
        }
        QUnlock(q);
        bits = (bits & ~kIoWritable) | flushed;
      }
      DeliverReady(handle, bits);
    }
    // A full batch may have left events behind, and the epoll bridge of an
    // io_uring engine fires only on a new wakeup: drain to a short batch.
    if (n < kPollBatch) {
      return total + std::max(n, 0);
    }
    total += n;
  }
}

int IoEngine::Poll() {
  // Both backends retire readiness handles through the same two-phase list;
  // advancing it here, not on an epoll event, frees a deregistered handle
  // even when its set stays quiet.
  FreeRetired();
  const int n = uring_ != nullptr ? UringPoll() : EpollPoll();
  if (n > 0) {
    IncLane(stats_.polls, worker_);
    IncLane(stats_.events, worker_, static_cast<std::uint64_t>(n));
  }
  return n;
}

void IoEngine::RelatchReadable(IoHandle* handle) {
  handle->ready.fetch_or(kIoReadable, std::memory_order_acq_rel);
  UThread* waiter = handle->reader.exchange(nullptr, std::memory_order_acq_rel);
  if (waiter != nullptr) {
    Runtime::Unpark(waiter);
  }
}

void IoEngine::DumpDebug(std::FILE* out) {
  Runtime::PreemptGuard guard;  // takes engine spinlocks (see io_engine.h)
  std::fprintf(out, "engine[%d] backend=%s completion=%d\n", worker_,
               using_io_uring() ? "io_uring" : "epoll", completion() ? 1 : 0);
  if (uring_ != nullptr) {
    UringState* s = uring_;
    std::fprintf(out,
                 "  sq head=%u tail=%u to_submit=%u flags=%#x cq head=%u tail=%u "
                 "bridge=%d\n",
                 __atomic_load_n(s->sq_head, __ATOMIC_ACQUIRE),
                 __atomic_load_n(s->sq_tail, __ATOMIC_ACQUIRE),
                 s->to_submit.load(std::memory_order_relaxed),
                 __atomic_load_n(s->sq_flags, __ATOMIC_ACQUIRE),
                 __atomic_load_n(s->cq_head, __ATOMIC_ACQUIRE),
                 __atomic_load_n(s->cq_tail, __ATOMIC_ACQUIRE), bridge_armed_ ? 1 : 0);
    std::fprintf(out, "  buf entries=%u tail=%u recycled=%llu stalled=%zu\n", kBufEntries,
                 static_cast<unsigned>(s->buf_tail),
                 static_cast<unsigned long long>(s->buf_recycled.load(std::memory_order_acquire)),
                 stalled_.size());
  }
  LockHandles();
  for (IoHandle* handle : handles_) {
    std::fprintf(out,
                 "  fd=%d mode=%d ready=%#x closed=%d armed=%d pending=%d "
                 "reader=%d writer=%d",
                 handle->fd, static_cast<int>(handle->mode),
                 handle->ready.load(std::memory_order_acquire),
                 handle->closed.load(std::memory_order_acquire) ? 1 : 0,
                 handle->main_op_armed.load(std::memory_order_acquire) ? 1 : 0,
                 handle->pending_cqes.load(std::memory_order_acquire),
                 handle->reader.load(std::memory_order_acquire) != nullptr ? 1 : 0,
                 handle->writer.load(std::memory_order_acquire) != nullptr ? 1 : 0);
    if (handle->queues != nullptr) {
      IoQueues* q = handle->queues;
      QLock(q);
      std::fprintf(out, " rx=%zu acc=%zu tx=%zu tx_bytes=%zu tx_off=%zu inflight=%d",
                   q->rx.size(), q->accepted.size(), q->tx.size(), q->tx_bytes, q->tx_off,
                   q->tx_inflight ? 1 : 0);
      QUnlock(q);
    }
    std::fprintf(out, "\n");
  }
  UnlockHandles();
  std::fflush(out);
}

void IoEngine::Interrupt(IoHandle* handle) {
  handle->ready.fetch_or(kIoError, std::memory_order_acq_rel);
  UThread* reader = handle->reader.exchange(nullptr, std::memory_order_acq_rel);
  if (reader != nullptr) {
    Runtime::Unpark(reader);
  }
  UThread* writer = handle->writer.exchange(nullptr, std::memory_order_acq_rel);
  if (writer != nullptr) {
    Runtime::Unpark(writer);
  }
}

}  // namespace skyloft
