#include "src/apps/kv_server_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "src/base/logging.h"
#include "src/net/frame.h"
#include "src/runtime/io_engine.h"
#include "src/runtime/sync.h"

namespace skyloft {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned RoundUpPow2(unsigned v) {
  unsigned p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

std::uint64_t KeyHash(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

// Creates a bound nonblocking socket on 127.0.0.1:`port` with SO_REUSEPORT
// (the kernel shards incoming connections/datagrams across the per-worker
// sockets of the group). Returns -1 on failure.
int BoundSocket(int type, std::uint16_t port) {
  const int fd = socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

// One queued response frame: header and payload stay separate buffers and go
// out as two iovec entries — the "no intermediate copy" scatter/gather path.
struct OutFrame {
  std::uint8_t hdr[kFrameHeaderSize];
  std::string payload;
};

constexpr std::size_t kMaxFlushIovs = 32;  // iovec budget per writev
// Frames at or below this size are memcpy'd into a per-flush coalescing
// buffer instead of spending two iovec entries each: typical KV replies
// ("VALUE profile-123", "STORED") are tens of bytes, so a burst of pipelined
// responses leaves in one writev instead of ceil(n/16) — keeping the
// readiness baseline's syscalls/request honest next to the completion path.
constexpr std::size_t kCoalesceFrameMax = 512;
constexpr std::size_t kCoalesceBufMax = 16 * 1024;

// Completion-path send backpressure: above this many queued-but-unsent bytes
// the handler parks until the engine's async send queue drains.
constexpr std::size_t kSendHighWater = 256 * 1024;

}  // namespace

// ---------------------------------------------------------------------------
// KvStripedStore
// ---------------------------------------------------------------------------

KvStripedStore::KvStripedStore(int workers, int stripes_override) {
  const int stripes = stripes_override > 0
                          ? stripes_override
                          : static_cast<int>(RoundUpPow2(
                                static_cast<unsigned>(std::max(8, 4 * workers))));
  for (int i = 0; i < stripes; i++) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  const int lanes = static_cast<int>(RoundUpPow2(static_cast<unsigned>(std::max(4, workers))));
  for (int i = 0; i < lanes; i++) {
    lanes_.push_back(std::make_unique<LatencyLane>());
  }
}

void KvStripedStore::SpinLock(std::atomic_flag& flag) {
  SpinBackoff backoff;
  while (flag.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void KvStripedStore::SpinUnlock(std::atomic_flag& flag) {
  flag.clear(std::memory_order_release);
}

void KvStripedStore::LockStripe(Stripe& s) { SpinLock(s.spin); }
void KvStripedStore::UnlockStripe(Stripe& s) { SpinUnlock(s.spin); }
void KvStripedStore::LockLane(LatencyLane& l) { SpinLock(l.spin); }
void KvStripedStore::UnlockLane(LatencyLane& l) { SpinUnlock(l.spin); }

KvStripedStore::Stripe& KvStripedStore::StripeOf(const std::string& key) {
  return *stripes_[KeyHash(key) & (stripes_.size() - 1)];
}

void KvStripedStore::Preload(const std::string& key, const std::string& value) {
  StripeOf(key).store.Set(key, value);
}

bool KvStripedStore::Delete(const std::string& key) {
  Stripe& stripe = StripeOf(key);
  Runtime::PreemptGuard guard;
  LockStripe(stripe);
  const bool found = stripe.store.Delete(key);
  UnlockStripe(stripe);
  return found;
}

std::string KvStripedStore::Serve(const std::string& request, std::uint64_t lane) {
  const std::int64_t t0 = NowNs();
  KvOpKind kind = KvOpKind::kError;
  std::string reply;

  const auto sp1 = request.find(' ');
  const std::string op = request.substr(0, sp1);
  if (op == "GET" && sp1 != std::string::npos) {
    kind = KvOpKind::kGet;
    const std::string key = request.substr(sp1 + 1);
    Stripe& stripe = StripeOf(key);
    // Spin sections are preemption-guarded: a signal-timer preemption while
    // holding the stripe would leave every other worker spinning on it for a
    // full scheduling round.
    Runtime::PreemptGuard guard;
    LockStripe(stripe);
    auto value = stripe.store.Get(key);
    UnlockStripe(stripe);
    reply = value ? "VALUE " + *value : "NOT_FOUND";
  } else if (op == "SET" && sp1 != std::string::npos) {
    const auto sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) {
      kind = KvOpKind::kSet;
      const std::string key = request.substr(sp1 + 1, sp2 - sp1 - 1);
      Stripe& stripe = StripeOf(key);
      Runtime::PreemptGuard guard;
      LockStripe(stripe);
      stripe.store.Set(key, request.substr(sp2 + 1));
      UnlockStripe(stripe);
      reply = "STORED";
    }
  } else if (op == "SCAN" && sp1 != std::string::npos) {
    const auto sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) {
      kind = KvOpKind::kScan;
      const std::string start = request.substr(sp1 + 1, sp2 - sp1 - 1);
      std::size_t limit = 0;
      const std::string limit_str = request.substr(sp2 + 1);
      for (const char c : limit_str) {
        if (c < '0' || c > '9') {
          limit = 0;
          break;
        }
        limit = limit * 10 + static_cast<std::size_t>(c - '0');
        if (limit > 4096) {
          limit = 4096;  // bound the reply; SCAN is the heavy tail op already
          break;
        }
      }
      if (limit == 0) {
        kind = KvOpKind::kError;
      } else {
        reply = ScanReply(start, limit);
      }
    }
  }
  if (kind == KvOpKind::kError) {
    reply = "ERROR";
  }

  const std::int64_t t1 = NowNs();
  LatencyLane& lat = *lanes_[lane & (lanes_.size() - 1)];
  {
    Runtime::PreemptGuard guard;
    LockLane(lat);
    lat.hist[static_cast<int>(kind)].Record(t1 - t0);
    UnlockLane(lat);
  }
  return reply;
}

std::string KvStripedStore::ScanReply(const std::string& start, std::size_t limit) {
  // Each stripe holds a disjoint, hash-chosen subset of the keys, so the
  // first `limit` keys >= start overall are among the first `limit` of each
  // stripe. Take those runs one stripe at a time (never nested), so a heavy
  // scan stalls at most one stripe's GET/SET traffic at a time; the reply is
  // therefore not a snapshot across stripes.
  using Run = std::vector<std::pair<std::string, std::string>>;
  std::vector<Run> runs;
  runs.reserve(stripes_.size());
  for (auto& stripe_ptr : stripes_) {
    Runtime::PreemptGuard guard;
    LockStripe(*stripe_ptr);
    runs.push_back(stripe_ptr->store.Scan(start, limit));
    UnlockStripe(*stripe_ptr);
  }
  // k-way merge of the sorted runs, cut at the global limit. A min-heap of
  // run cursors keyed by each run's next key.
  using Cursor = std::pair<std::size_t, std::size_t>;  // (run, position)
  std::vector<Cursor> heap;
  for (std::size_t r = 0; r < runs.size(); r++) {
    if (!runs[r].empty()) {
      heap.emplace_back(r, 0);
    }
  }
  const auto later = [&runs](const Cursor& a, const Cursor& b) {
    return runs[b.first][b.second].first < runs[a.first][a.second].first;
  };
  std::make_heap(heap.begin(), heap.end(), later);
  std::string reply;
  for (std::size_t taken = 0; taken < limit && !heap.empty(); taken++) {
    std::pop_heap(heap.begin(), heap.end(), later);
    auto& [run, pos] = heap.back();
    const auto& [key, value] = runs[run][pos];
    reply.append(key).append(1, '=').append(value).append(1, ';');
    if (++pos < runs[run].size()) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return reply.empty() ? "EMPTY" : reply;
}

void KvStripedStore::MergeLatencies() {
  for (int k = 0; k < 4; k++) {
    merged_[k].Reset();
    for (auto& lane : lanes_) {
      merged_[k].Merge(lane->hist[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// KvServerNet
// ---------------------------------------------------------------------------

// Per-worker serving slice: the SO_REUSEPORT listener + UDP socket and their
// engine handles. The acceptor registers accepted connections with `engine`
// (its home worker's engine) no matter which worker the acceptor uthread
// currently runs on — sharding is by listener, not by scheduler placement.
struct KvServerNet::Listener {
  int worker = 0;
  IoEngine* engine = nullptr;
  IoHandle* tcp = nullptr;
  IoHandle* udp = nullptr;
};

KvServerNet::KvServerNet(Runtime* rt, const KvServerNetOptions& options)
    : rt_(rt), options_(options), store_(rt->workers(), options.lock_stripes) {
  tcp_conns_ = metrics_.AddCounter("tcp_connections");
  tcp_requests_ = metrics_.AddCounter("tcp_requests");
  udp_requests_ = metrics_.AddCounter("udp_requests");
  frame_errors_ = metrics_.AddCounter("frame_errors");
  peer_resets_ = metrics_.AddCounter("peer_resets");
  metrics_.LinkValue("open_connections",
                     [this] { return open_conns_.load(std::memory_order_relaxed); });
  metrics_.LinkHistogram("get_ns", &store_.latency(KvOpKind::kGet));
  metrics_.LinkHistogram("set_ns", &store_.latency(KvOpKind::kSet));
  metrics_.LinkHistogram("scan_ns", &store_.latency(KvOpKind::kScan));
}

KvServerNet::~KvServerNet() = default;

void KvServerNet::Start() {
  SKYLOFT_CHECK(listeners_.empty()) << "Start() called twice";
  for (int i = 0; i < options_.preload_keys; i++) {
    store_.Preload("user" + std::to_string(i), "profile-" + std::to_string(i));
  }
  for (int w = 0; w < rt_->workers(); w++) {
    IoEngine* engine = rt_->io_engine(w);
    SKYLOFT_CHECK(engine != nullptr) << "KvServerNet needs RuntimeOptions::io_engine";
    auto listener = std::make_unique<Listener>();
    listener->worker = w;
    listener->engine = engine;
    if (options_.tcp) {
      const int fd = BoundSocket(SOCK_STREAM, tcp_port_ != 0 ? tcp_port_ : options_.tcp_port);
      SKYLOFT_CHECK(fd >= 0) << "tcp listener bind failed: " << std::strerror(errno);
      SKYLOFT_CHECK(listen(fd, options_.listen_backlog) == 0);
      if (tcp_port_ == 0) {
        tcp_port_ = BoundPort(fd);  // first bind fixes the group's port
      }
      // kListener arms multishot accept on a kIoUring engine and degrades
      // to epoll readiness on an epoll engine.
      listener->tcp = engine->Register(fd, IoRegisterMode::kListener);
      SKYLOFT_CHECK(listener->tcp != nullptr);
    }
    if (options_.udp) {
      const int fd = BoundSocket(SOCK_DGRAM, udp_port_ != 0 ? udp_port_ : options_.udp_port);
      SKYLOFT_CHECK(fd >= 0) << "udp bind failed: " << std::strerror(errno);
      if (udp_port_ == 0) {
        udp_port_ = BoundPort(fd);
      }
      listener->udp = engine->Register(fd, IoRegisterMode::kDatagram);
      SKYLOFT_CHECK(listener->udp != nullptr);
    }
    listeners_.push_back(std::move(listener));
  }
  for (auto& listener : listeners_) {
    Listener* l = listener.get();
    if (l->tcp != nullptr) {
      live_server_uthreads_.fetch_add(1, std::memory_order_acq_rel);
      Runtime::Spawn([this, l] { AcceptLoop(l); });
    }
    if (l->udp != nullptr) {
      live_server_uthreads_.fetch_add(1, std::memory_order_acq_rel);
      Runtime::Spawn([this, l] { UdpLoop(l); });
    }
  }
}

void KvServerNet::Stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& listener : listeners_) {
    if (listener->tcp != nullptr) {
      IoEngine::Interrupt(listener->tcp);
    }
    if (listener->udp != nullptr) {
      IoEngine::Interrupt(listener->udp);
    }
  }
  // Interrupt live connection handlers under the registry lock: a handler
  // untracks itself (same lock) before deregistering, so no handle is
  // interrupted after its teardown began.
  {
    Runtime::PreemptGuard guard;
    LockConns();
    for (IoHandle* handle : conns_) {
      IoEngine::Interrupt(handle);
    }
    UnlockConns();
  }
  while (live_server_uthreads_.load(std::memory_order_acquire) > 0) {
    Runtime::Yield();
  }
  // All server uthreads are joined, so nothing can race the listener
  // handles any more — only now are they deregistered. (The loops must not
  // do it themselves: a readiness event racing stop_ could otherwise retire
  // a handle while this function concurrently Interrupts it above.)
  for (auto& listener : listeners_) {
    if (listener->tcp != nullptr) {
      listener->engine->Deregister(listener->tcp);
      listener->tcp = nullptr;
    }
    if (listener->udp != nullptr) {
      listener->engine->Deregister(listener->udp);
      listener->udp = nullptr;
    }
  }
  store_.MergeLatencies();
}

void KvServerNet::LockConns() {
  SpinBackoff backoff;
  while (conns_spin_.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void KvServerNet::UnlockConns() { conns_spin_.clear(std::memory_order_release); }

void KvServerNet::TrackConn(IoHandle* handle) {
  Runtime::PreemptGuard guard;
  LockConns();
  conns_.push_back(handle);
  UnlockConns();
}

bool KvServerNet::UntrackConn(IoHandle* handle) {
  Runtime::PreemptGuard guard;
  LockConns();
  bool found = false;
  for (std::size_t i = 0; i < conns_.size(); i++) {
    if (conns_[i] == handle) {
      conns_[i] = conns_.back();
      conns_.pop_back();
      found = true;
      break;
    }
  }
  UnlockConns();
  return found;
}

void KvServerNet::AcceptLoop(Listener* listener) {
  // Path choice is per handle, fixed at Register() time: a completion-mode
  // listener queues fds from multishot-accept CQEs; readiness keeps accept4.
  const bool use_completion = listener->tcp->cs != nullptr;
  while (!stop_.load(std::memory_order_acquire)) {
    const unsigned ready = WaitForReadable(listener->tcp);
    if (stop_.load(std::memory_order_acquire) || (ready & kIoError) != 0) {
      break;
    }
    int accepted = 0;
    while (accepted < options_.accept_batch) {
      int fd;
      if (use_completion) {
        fd = listener->engine->TakeAccepted(listener->tcp);
        if (fd < 0) {
          break;  // queue drained; the next accept CQE re-latches readability
        }
      } else {
        fd = accept4(listener->tcp->fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        listener->engine->CountSysAccept();
        if (fd < 0) {
          if (errno == EINTR) {
            continue;
          }
          break;  // EAGAIN: backlog drained (or transient error; next edge retries)
        }
      }
      accepted++;
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      IoHandle* conn = listener->engine->Register(fd, IoRegisterMode::kStream);
      if (conn == nullptr) {
        close(fd);
        continue;
      }
      tcp_conns_->Inc();
      open_conns_.fetch_add(1, std::memory_order_relaxed);
      TrackConn(conn);
      live_server_uthreads_.fetch_add(1, std::memory_order_acq_rel);
      Runtime::Spawn([this, conn] { HandleConn(conn); });
    }
    if (accepted == options_.accept_batch) {
      // Batch limit hit before EAGAIN: the consumed edge must be restored or
      // the rest of the backlog would wait for the next incoming SYN. Yield
      // so freshly spawned handlers get a turn before we keep accepting.
      IoEngine::RelatchReadable(listener->tcp);
      Runtime::Yield();
    }
  }
  // The listener handle stays registered; Stop() retires it after the join
  // barrier, where no Interrupt can race the teardown.
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

// Flushes queued response frames with writev. `front_off` tracks bytes of
// the front frame already written (partial writev). `coalesce` is the
// connection's scratch buffer for small frames; it keeps its capacity across
// flushes, so a steady stream of small replies does not allocate here.
// Returns false when the connection died (peer reset mid-write).
SKYLOFT_MAY_SWITCH static bool FlushFrames(IoHandle* conn, std::deque<OutFrame>* queue,
                                           std::size_t* front_off, std::string* coalesce_buf) {
  std::string& coalesce = *coalesce_buf;
  while (!queue->empty()) {
    // Plan the iovec batch first: consecutive small frames are copied into
    // `coalesce` and merged into one segment per run; large frames keep the
    // zero-copy two-iovec scatter/gather shape. Segments store offsets into
    // `coalesce` and are resolved to pointers only once the plan is complete,
    // because the string may reallocate while growing.
    struct Seg {
      bool copied;      // true: bytes live at coalesce[pos..pos+len)
      const void* ptr;  // false: borrowed from the frame, [ptr, ptr+len)
      std::size_t pos;
      std::size_t len;
    };
    Seg segs[kMaxFlushIovs];
    int nseg = 0;
    coalesce.clear();
    std::size_t skip = *front_off;
    for (const OutFrame& frame : *queue) {
      const std::size_t frame_len = kFrameHeaderSize + frame.payload.size();
      if (frame_len <= kCoalesceFrameMax && coalesce.size() + frame_len <= kCoalesceBufMax) {
        if (nseg == 0 || !segs[nseg - 1].copied) {
          if (nseg == static_cast<int>(kMaxFlushIovs)) {
            break;
          }
          segs[nseg++] = Seg{true, nullptr, coalesce.size(), 0};
        }
        if (skip < kFrameHeaderSize) {
          coalesce.append(reinterpret_cast<const char*>(frame.hdr) + skip,
                          kFrameHeaderSize - skip);
          skip = 0;
        } else {
          skip -= kFrameHeaderSize;
        }
        if (skip < frame.payload.size()) {
          coalesce.append(frame.payload.data() + skip, frame.payload.size() - skip);
        }
        segs[nseg - 1].len = coalesce.size() - segs[nseg - 1].pos;
        skip = 0;  // only the front frame carries an offset
        continue;
      }
      if (nseg + 2 > static_cast<int>(kMaxFlushIovs)) {
        break;
      }
      if (skip < kFrameHeaderSize) {
        segs[nseg++] = Seg{false, frame.hdr + skip, 0, kFrameHeaderSize - skip};
        skip = 0;
      } else {
        skip -= kFrameHeaderSize;
      }
      if (skip < frame.payload.size()) {
        segs[nseg++] = Seg{false, frame.payload.data() + skip, 0, frame.payload.size() - skip};
      }
      skip = 0;
    }
    iovec iov[kMaxFlushIovs];
    for (int i = 0; i < nseg; i++) {
      iov[i].iov_base = const_cast<void*>(segs[i].copied
                                              ? static_cast<const void*>(coalesce.data() + segs[i].pos)
                                              : segs[i].ptr);
      iov[i].iov_len = segs[i].len;
    }
    const ssize_t wrote = writev(conn->fd, iov, nseg);
    conn->engine->CountSysWrite();
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        const unsigned ready = WaitForWritable(conn);
        if (ready & kIoError) {
          return false;
        }
        continue;
      }
      return false;  // EPIPE / ECONNRESET: peer is gone
    }
    std::size_t remaining = static_cast<std::size_t>(wrote) + *front_off;
    while (!queue->empty()) {
      const std::size_t frame_len = kFrameHeaderSize + queue->front().payload.size();
      if (remaining < frame_len) {
        break;
      }
      remaining -= frame_len;
      queue->pop_front();
    }
    *front_off = remaining;
  }
  return true;
}

// Readiness connection loop: read() to EAGAIN, decode, serve, writev back.
bool KvServerNet::ConnLoopReadiness(IoHandle* conn, std::uint64_t lane) {
  FrameDecoder decoder;
  std::deque<OutFrame> outq;
  std::size_t front_off = 0;
  std::string coalesce;  // FlushFrames' reused small-frame buffer
  std::vector<char> buf(options_.read_buffer);
  bool reset = false;

  while (true) {
    const unsigned ready = WaitForReadable(conn);
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    bool dead = (ready & kIoError) != 0;
    bool peer_eof = false;
    while (!dead) {
      const ssize_t n = read(conn->fd, buf.data(), buf.size());
      conn->engine->CountSysRead();
      if (n > 0) {
        decoder.Feed(buf.data(), static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < buf.size()) {
          continue;  // short read usually means the socket is drained; one
                     // more read() confirms with EAGAIN
        }
        continue;
      }
      if (n == 0) {
        peer_eof = true;
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      reset = errno == ECONNRESET;
      dead = true;
    }
    std::string payload;
    while (!dead && decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
      OutFrame out;
      out.payload = store_.Serve(payload, lane);
      EncodeFrameHeader(out.hdr, static_cast<std::uint32_t>(out.payload.size()));
      outq.push_back(std::move(out));
      tcp_requests_->Inc();
    }
    if (decoder.poisoned()) {
      frame_errors_->Inc();
      dead = true;
    }
    if (!dead && !outq.empty()) {
      if (!FlushFrames(conn, &outq, &front_off, &coalesce)) {
        reset = true;
        dead = true;
      }
    }
    if (dead || peer_eof || (ready & kIoHup) != 0) {
      break;
    }
  }
  return reset;
}

// Completion connection loop: request bytes arrive in kernel-filled provided
// buffers (multishot recv CQEs queued by the home engine's Poll), responses
// leave through the engine's async send queue. The handler makes zero
// syscalls in steady state — it only copies out of provided buffers,
// recycles them, and queues frames for the engine's batched submission.
bool KvServerNet::ConnLoopCompletion(IoHandle* conn, std::uint64_t lane) {
  IoEngine* engine = conn->engine;
  FrameDecoder decoder;
  bool reset = false;

  while (true) {
    const unsigned ready = WaitForReadable(conn);
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    // kIoError latches on a recv/send CQE failure (ECONNRESET and friends);
    // data already queued before the error is still drained below, matching
    // the readiness path's read-until-error behavior.
    bool dead = (ready & kIoError) != 0;
    if (dead) {
      reset = true;
    }
    IoRecvSlice slice;
    while (engine->PopRecv(conn, &slice)) {
      decoder.Feed(slice.data, slice.len);
      // The buffer belongs to the HOME engine's ring; the frame bytes were
      // copied into the decoder, so it can go back before we serve.
      engine->RecycleBuffer(slice.buf_id);
    }
    std::string payload;
    while (!dead && decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
      std::string reply = store_.Serve(payload, lane);
      std::string out;
      out.reserve(kFrameHeaderSize + reply.size());
      std::uint8_t hdr[kFrameHeaderSize];
      EncodeFrameHeader(hdr, static_cast<std::uint32_t>(reply.size()));
      out.append(reinterpret_cast<const char*>(hdr), kFrameHeaderSize);
      out += reply;
      if (engine->SendEnqueue(conn, std::move(out)) == 0) {
        reset = true;  // queue refused: the handle errored under us
        dead = true;
        break;
      }
      tcp_requests_->Inc();
    }
    if (decoder.poisoned()) {
      frame_errors_->Inc();
      dead = true;
    }
    // Backpressure: above the high-water mark, park until the final send CQE
    // drains the queue (kIoWritable latch). A stale latch from an earlier
    // drain just re-checks, hence the loop.
    while (!dead && engine->SendQueuedBytes(conn) > kSendHighWater) {
      const unsigned w = WaitForWritable(conn);
      if (stop_.load(std::memory_order_acquire)) {
        return reset;
      }
      if ((w & kIoError) != 0) {
        reset = true;
        dead = true;
      } else if ((w & kIoWritable) == 0) {
        // Sticky kIoHup makes WaitForWritable non-blocking from here on, and
        // the drain we need (this conn's send CQE) is reaped by our worker's
        // scheduler loop — which never runs if we spin. Yield to it.
        Runtime::Yield();
      }
    }
    if ((ready & kIoHup) != 0 && !dead) {
      // Graceful EOF: all request CQEs precede the hup CQE, so the decoder
      // has everything; finish flushing queued responses before closing
      // (the readiness path's synchronous FlushFrames did this implicitly).
      while (engine->SendQueuedBytes(conn) > 0) {
        const unsigned w = WaitForWritable(conn);
        if (stop_.load(std::memory_order_acquire) || (w & kIoError) != 0) {
          break;
        }
        if ((w & kIoWritable) == 0) {
          // Same sticky-HUP spin hazard as the backpressure loop above: wake
          // reason was the latched hup, not a drained queue. Let the worker
          // poll so the in-flight send CQE can land.
          Runtime::Yield();
        }
      }
      break;
    }
    if (dead) {
      break;
    }
  }
  return reset;
}

void KvServerNet::HandleConn(IoHandle* conn) {
  const std::uint64_t lane = Runtime::Current()->id;
  const bool reset = conn->cs != nullptr ? ConnLoopCompletion(conn, lane)
                                         : ConnLoopReadiness(conn, lane);
  if (reset) {
    peer_resets_->Inc();
  }
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  // Whether or not Stop() already removed us from the registry (and owns any
  // interrupt), releasing the fd is the handler's job.
  UntrackConn(conn);
  conn->engine->Deregister(conn);
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

// Completion UDP loop: datagrams arrive as multishot-RECVMSG CQEs in
// provided buffers (kernel-packed recvmsg_out + sender address + payload);
// replies go out as fire-and-forget async SENDMSG ops. Zero syscalls per
// datagram in steady state.
void KvServerNet::UdpLoopCompletion(Listener* listener, std::uint64_t lane) {
  IoEngine* engine = listener->engine;
  while (!stop_.load(std::memory_order_acquire)) {
    const unsigned ready = WaitForReadable(listener->udp);
    if (stop_.load(std::memory_order_acquire) || (ready & kIoError) != 0) {
      break;
    }
    int handled = 0;
    IoRecvSlice slice;
    while (handled < options_.udp_batch && engine->PopRecv(listener->udp, &slice)) {
      handled++;
      IoDatagram dgram;
      std::string payload;
      if (!IoEngine::ParseDatagram(slice, &dgram) ||
          DecodeFrame(reinterpret_cast<const std::uint8_t*>(dgram.data), dgram.len, &payload) !=
              FrameDecodeStatus::kFrame) {
        frame_errors_->Inc();  // stray/truncated datagram: drop, never assert
        engine->RecycleBuffer(slice.buf_id);
        continue;
      }
      std::string reply = EncodeFrame(store_.Serve(payload, lane));
      // Best-effort reply, UDP semantics: a refused submission (closed
      // handle, SQ pressure) drops the response like a full socket buffer.
      engine->SendDatagram(listener->udp, dgram.peer, std::move(reply));
      engine->RecycleBuffer(slice.buf_id);
      udp_requests_->Inc();
    }
    if (handled == options_.udp_batch) {
      IoEngine::RelatchReadable(listener->udp);
      Runtime::Yield();
    }
  }
}

void KvServerNet::UdpLoop(Listener* listener) {
  const std::uint64_t lane = Runtime::Current()->id;
  if (listener->udp->cs != nullptr) {
    UdpLoopCompletion(listener, lane);
    // As in AcceptLoop, the listener handle is retired by Stop(), not here.
    live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  std::vector<std::uint8_t> buf(65536);
  while (!stop_.load(std::memory_order_acquire)) {
    const unsigned ready = WaitForReadable(listener->udp);
    if (stop_.load(std::memory_order_acquire) || (ready & kIoError) != 0) {
      break;
    }
    int handled = 0;
    while (handled < options_.udp_batch) {
      sockaddr_in peer{};
      socklen_t peer_len = sizeof(peer);
      const ssize_t n = recvfrom(listener->udp->fd, buf.data(), buf.size(), 0,
                                 reinterpret_cast<sockaddr*>(&peer), &peer_len);
      listener->engine->CountSysRead();
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;  // EAGAIN: drained
      }
      handled++;
      std::string payload;
      if (DecodeFrame(buf.data(), static_cast<std::size_t>(n), &payload) !=
          FrameDecodeStatus::kFrame) {
        frame_errors_->Inc();  // stray/truncated datagram: drop, never assert
        continue;
      }
      const std::string reply = EncodeFrame(store_.Serve(payload, lane));
      // Best-effort datagram reply: a full socket buffer drops the response,
      // exactly like a real UDP service under overload.
      sendto(listener->udp->fd, reply.data(), reply.size(), 0,
             reinterpret_cast<sockaddr*>(&peer), peer_len);
      listener->engine->CountSysWrite();
      udp_requests_->Inc();
    }
    if (handled == options_.udp_batch) {
      IoEngine::RelatchReadable(listener->udp);
      Runtime::Yield();
    }
  }
  // As in AcceptLoop, the listener handle is retired by Stop(), not here.
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace skyloft
