#include "src/apps/kv_server_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <iterator>

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

std::uint64_t KeyHash(std::string_view key) {
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

constexpr int kListenBacklog = 4096;
// Accepts and datagrams served per readiness edge before the loop relatches
// and yields, so one busy socket cannot hold a worker.
constexpr int kAcceptBatch = 64;
constexpr int kUdpBatch = 64;
constexpr std::size_t kReadBuffer = 4096;   // per-connection receive buffer
constexpr std::size_t kMaxDatagram = 65536;  // per-worker UDP receive buffer

// Send backpressure: above this many queued-but-unsent bytes a connection
// stops reading requests until the engine has sent the backlog.
constexpr std::size_t kSendHighWater = 256 * 1024;

// Serves `request` and appends its reply frame to `out`: the header's room
// first, then the store writes the payload straight in behind it, then the
// header is filled in with the payload's length.
void AppendReplyFrame(KvStripedStore& store, std::string_view request, std::uint64_t lane,
                      std::string* out) {
  const std::size_t header = out->size();
  out->append(kFrameHeaderSize, '\0');
  store.Serve(request, lane, out);
  EncodeFrameHeader(reinterpret_cast<std::uint8_t*>(out->data() + header),
                    static_cast<std::uint32_t>(out->size() - header - kFrameHeaderSize));
}

// Parks until the connection's send queue holds at most `limit` bytes.
// Returns false if the connection failed, or the server began stopping,
// first.
SKYLOFT_MAY_SWITCH bool AwaitSendQueue(IoHandle* conn, std::size_t limit,
                                       const std::atomic<bool>& stop) {
  while (conn->engine->SendQueuedBytes(conn) > limit) {
    const unsigned ready = WaitForWritable(conn);
    if (stop.load(std::memory_order_acquire) || (ready & kIoError) != 0) {
      return false;
    }
    if ((ready & kIoWritable) == 0) {
      // A sticky kIoHup makes WaitForWritable return at once, and the drain
      // this waits for is reaped by the home worker's scheduler loop, which
      // never runs if we spin. Yield to it.
      Runtime::Yield();
    }
  }
  return true;
}

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

KvStripedStore::Stripe& KvStripedStore::StripeOf(std::string_view key) {
  return *stripes_[KeyHash(key) & (stripes_.size() - 1)];
}

void KvStripedStore::Reserve(std::size_t keys) {
  // FNV-1a spreads keys evenly over the stripes (the 10k preload keys land
  // 1249-1251 per stripe of 8); an eighth more covers the unevenness.
  const std::size_t share = keys / stripes_.size();
  for (auto& stripe : stripes_) {
    stripe->store.Reserve(share + share / 8 + 1);
  }
}

void KvStripedStore::Preload(std::string_view key, std::string_view value) {
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
  std::string reply;
  Serve(request, lane, &reply);
  return reply;
}

void KvStripedStore::Serve(std::string_view request, std::uint64_t lane, std::string* reply) {
  const std::int64_t t0 = NowNs();
  KvOpKind kind = KvOpKind::kError;

  const auto sp1 = request.find(' ');
  const std::string_view op = request.substr(0, sp1);
  if (op == "GET" && sp1 != std::string_view::npos) {
    kind = KvOpKind::kGet;
    const std::string_view key = request.substr(sp1 + 1);
    Stripe& stripe = StripeOf(key);
    // Spin sections are preemption-guarded: a signal-timer preemption while
    // holding the stripe would leave every other worker spinning on it for a
    // full scheduling round.
    Runtime::PreemptGuard guard;
    LockStripe(stripe);
    if (const std::string* value = stripe.store.Find(key)) {
      reply->append("VALUE ").append(*value);
    } else {
      reply->append("NOT_FOUND");
    }
    UnlockStripe(stripe);
  } else if (op == "SET" && sp1 != std::string_view::npos) {
    const auto sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string_view::npos) {
      kind = KvOpKind::kSet;
      const std::string_view key = request.substr(sp1 + 1, sp2 - sp1 - 1);
      Stripe& stripe = StripeOf(key);
      Runtime::PreemptGuard guard;
      LockStripe(stripe);
      stripe.store.Set(key, request.substr(sp2 + 1));
      UnlockStripe(stripe);
      reply->append("STORED");
    }
  } else if (op == "SCAN" && sp1 != std::string_view::npos) {
    const auto sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string_view::npos) {
      kind = KvOpKind::kScan;
      const std::string_view start = request.substr(sp1 + 1, sp2 - sp1 - 1);
      std::size_t limit = 0;
      for (const char c : request.substr(sp2 + 1)) {
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
        ScanReply(start, limit, reply);
      }
    }
  }
  if (kind == KvOpKind::kError) {
    reply->append("ERROR");
  }

  const std::int64_t t1 = NowNs();
  LatencyLane& lat = *lanes_[lane & (lanes_.size() - 1)];
  {
    Runtime::PreemptGuard guard;
    LockLane(lat);
    lat.hist[static_cast<int>(kind)].Record(t1 - t0);
    UnlockLane(lat);
  }
}

void KvStripedStore::ScanReply(std::string_view start, std::size_t limit, std::string* reply) {
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
  if (heap.empty()) {
    reply->append("EMPTY");
  }
  for (std::size_t taken = 0; taken < limit && !heap.empty(); taken++) {
    std::pop_heap(heap.begin(), heap.end(), later);
    auto& [run, pos] = heap.back();
    const auto& [key, value] = runs[run][pos];
    reply->append(key).append(1, '=').append(value).append(1, ';');
    if (++pos < runs[run].size()) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
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
    : rt_(rt), options_(options), store_(rt->workers()) {
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
  // "user<i>" -> "profile-<i>", formatted in place: no temporary strings.
  store_.Reserve(static_cast<std::size_t>(std::max(0, options_.preload_keys)));
  char key[24] = "user";
  char value[24] = "profile-";
  for (int i = 0; i < options_.preload_keys; i++) {
    char* const key_end = std::to_chars(key + 4, std::end(key), i).ptr;
    char* const value_end = std::to_chars(value + 8, std::end(value), i).ptr;
    store_.Preload(std::string_view(key, key_end), std::string_view(value, value_end));
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
      SKYLOFT_CHECK(listen(fd, kListenBacklog) == 0);
      if (tcp_port_ == 0) {
        tcp_port_ = BoundPort(fd);  // first bind fixes the group's port
      }
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
  IoEngine* engine = listener->engine;
  while (!stop_.load(std::memory_order_acquire)) {
    const unsigned ready = WaitForReadable(listener->tcp);
    if (stop_.load(std::memory_order_acquire) || (ready & kIoError) != 0) {
      break;
    }
    int accepted = 0;
    int fd;
    while (accepted < kAcceptBatch && (fd = engine->Accept(listener->tcp)) >= 0) {
      accepted++;
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      IoHandle* conn = engine->Register(fd, IoRegisterMode::kStream);
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
    if (accepted == kAcceptBatch) {
      // Batch limit hit before the queue ran dry: the consumed edge must be
      // restored or the rest of the backlog would wait for the next incoming
      // SYN. Yield so freshly spawned handlers get a turn before we keep
      // accepting.
      IoEngine::RelatchReadable(listener->tcp);
      Runtime::Yield();
    }
  }
  // The listener handle stays registered; Stop() retires it after the join
  // barrier, where no Interrupt can race the teardown.
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

// The connection loop: drain what arrived, decode, serve, and send the read
// batch's replies as one buffer, until the peer closes or the connection
// fails. Replies owed at the peer's EOF are sent before the close.
void KvServerNet::HandleConn(IoHandle* conn) {
  IoEngine* engine = conn->engine;
  const std::uint64_t lane = Runtime::Current()->id;
  FrameDecoder decoder;
  const auto buf = std::make_unique_for_overwrite<char[]>(kReadBuffer);
  std::string payload;
  std::string out;  // keeps its capacity across batches
  bool reset = false;

  while (true) {
    const unsigned ready = WaitForReadable(conn);
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    std::ptrdiff_t got;
    while ((got = engine->Recv(conn, buf.get(), kReadBuffer)) > 0) {
      decoder.Feed(buf.get(), static_cast<std::size_t>(got));
    }
    // A latched hangup or error that the socket does not report as EOF or
    // reset still ends the connection; waiting again would return at once.
    const bool eof = got == kIoEof || (got == kIoAgain && (ready & kIoHup) != 0);
    reset = got == kIoReset || (got == kIoAgain && (ready & kIoError) != 0);
    bool dead = reset;
    out.clear();
    while (!dead && decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
      AppendReplyFrame(store_, payload, lane, &out);
      tcp_requests_->Inc();
    }
    if (decoder.poisoned()) {
      frame_errors_->Inc();
      dead = true;
    }
    const std::ptrdiff_t queued = dead || out.empty() ? 0 : engine->Send(conn, out);
    if (queued == kIoReset) {
      reset = true;
      dead = true;
    } else if (static_cast<std::size_t>(queued) > kSendHighWater &&
               !AwaitSendQueue(conn, kSendHighWater, stop_)) {
      reset = !stop_.load(std::memory_order_acquire);
      dead = true;
    }
    if (dead) {
      break;
    }
    if (eof) {
      AwaitSendQueue(conn, 0, stop_);
      break;
    }
  }
  if (reset) {
    peer_resets_->Inc();
  }
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  // Whether or not Stop() already removed us from the registry (and owns any
  // interrupt), releasing the fd is the handler's job.
  UntrackConn(conn);
  engine->Deregister(conn);
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

// The UDP loop: one frame per datagram, one best-effort reply datagram each.
void KvServerNet::UdpLoop(Listener* listener) {
  IoEngine* engine = listener->engine;
  const std::uint64_t lane = Runtime::Current()->id;
  const auto buf = std::make_unique_for_overwrite<char[]>(kMaxDatagram);
  std::string payload;
  std::string reply;  // keeps its capacity across datagrams
  while (!stop_.load(std::memory_order_acquire)) {
    const unsigned ready = WaitForReadable(listener->udp);
    if (stop_.load(std::memory_order_acquire) || (ready & kIoError) != 0) {
      break;
    }
    int handled = 0;
    sockaddr_in peer{};
    std::ptrdiff_t got;
    while (handled < kUdpBatch &&
           (got = engine->RecvFrom(listener->udp, buf.get(), kMaxDatagram, &peer)) >= 0) {
      handled++;
      if (DecodeFrame(reinterpret_cast<const std::uint8_t*>(buf.get()),
                      static_cast<std::size_t>(got), &payload) != FrameDecodeStatus::kFrame) {
        frame_errors_->Inc();  // stray/truncated datagram: drop, never assert
        continue;
      }
      // Best-effort reply: a full socket buffer or submission queue drops
      // it, exactly like a real UDP service under overload.
      reply.clear();
      AppendReplyFrame(store_, payload, lane, &reply);
      engine->SendTo(listener->udp, peer, reply);
      udp_requests_->Inc();
    }
    if (handled == kUdpBatch) {
      IoEngine::RelatchReadable(listener->udp);
      Runtime::Yield();
    }
  }
  // As in AcceptLoop, the listener handle is retired by Stop(), not here.
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace skyloft
