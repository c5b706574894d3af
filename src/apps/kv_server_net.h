// Networked KV server on the Skyloft host runtime (DESIGN.md section 10).
//
// This is the production serving path for the paper's §5.3 Memcached-style
// scenario: the in-memory KvStore served over *real* TCP and UDP sockets by
// uthreads on the M:N runtime, with per-worker I/O engine cores
// (src/runtime/io_engine) turning socket events into park/unpark wakeups.
//
// Architecture (one slice per runtime worker):
//   - a SO_REUSEPORT TCP listener + UDP socket per worker, registered with
//     that worker's engine, so the kernel shards connections/datagrams at
//     accept time and an fd never changes engines;
//   - an acceptor uthread per listener taking connections in batches;
//   - one handler uthread per TCP connection: WaitForReadable -> Recv until
//     nothing is left -> frame-decode (src/net/frame) -> serve -> one Send
//     of the batch's reply frames;
//   - a UDP uthread per worker serving one frame per datagram.
//
// Each loop exists once. The server only calls the engine's data calls
// (Accept, Recv/Send, RecvFrom/SendTo); the engine's backend decides how
// they run. An epoll engine makes the syscalls from the handler and counts
// them for the syscalls/request metric; an io_uring engine serves them from
// multishot completions and provided buffers and sends asynchronously, so
// its steady state makes almost no syscalls per request.
//
// Handler uthreads are ordinary runtime uthreads: they migrate when an idle
// worker steals them, while their fd's readiness keeps firing on the home
// engine, whose worker's mailbox then takes the wakeup.
//
// The store is striped: a spin-locked (SpinBackoff + PreemptGuard) lock
// table sized from the worker count replaces the old example's 8 global
// UthreadMutex shards, and per-op-kind service latencies land in the
// metrics registry ("kv_server" group) instead of a hand-rolled histogram.
#ifndef SRC_APPS_KV_SERVER_NET_H_
#define SRC_APPS_KV_SERVER_NET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/base/compiler.h"
#include "src/base/histogram.h"
#include "src/base/metrics.h"
#include "src/runtime/uthread.h"

namespace skyloft {

struct IoHandle;

// The KV request text protocol carried in each frame payload:
//   "GET <key>" | "SET <key> <value>" | "SCAN <start> <limit>"
// Replies: "VALUE <v>" | "NOT_FOUND" | "STORED" | "<k>=<v>;..." | "EMPTY" |
// "ERROR".
enum class KvOpKind { kGet = 0, kSet = 1, kScan = 2, kError = 3 };

// KvStore sharded across a striped spin-lock table. Stripes are cache-line
// separated and sized from the worker count (4x workers, rounded up to a
// power of two, min 8) so the GET fast path of co-scheduled workers rarely
// collides — the contention hot spot the old fixed-8-shard example hid.
// Critical sections are short and preemption-guarded, so a SpinBackoff
// spinlock beats a parking mutex here.
class KvStripedStore {
 public:
  explicit KvStripedStore(int workers, int stripes_override = 0);

  // Serves one request and appends its reply to `*reply`, recording service
  // latency into the per-kind lane histograms. `lane` spreads latency
  // recording across lanes (callers pass the uthread id); any value is safe.
  // A GET copies the value into `*reply` under the stripe lock, so a reply
  // buffer with capacity to spare makes the call allocation-free.
  void Serve(std::string_view request, std::uint64_t lane, std::string* reply);
  // The same, returning the reply.
  std::string Serve(const std::string& request, std::uint64_t lane);

  // Sizes every stripe for its share of `keys` keys plus some slack, so a
  // preload of that many grows no table (single-threaded setup only).
  void Reserve(std::size_t keys);

  // Direct store access for preloading (single-threaded setup only).
  void Preload(std::string_view key, std::string_view value);

  // Removes `key` under its stripe lock (the text protocol has no delete).
  // Returns true if it was present.
  bool Delete(const std::string& key);

  int stripes() const { return static_cast<int>(stripes_.size()); }

  // Merges the per-lane service-time recordings into the per-kind summary
  // histograms linked in the metrics registry ("kv_server.get_ns", ...).
  // Call while serving is quiesced (after Stop()).
  void MergeLatencies();
  const LatencyHistogram& latency(KvOpKind kind) const {
    return merged_[static_cast<int>(kind)];
  }

 private:
  struct alignas(kCacheLineSize) Stripe {
    std::atomic_flag spin = ATOMIC_FLAG_INIT;
    KvStore store;
  };
  // Latency recording lane: a short spinlock per lane keeps LatencyHistogram
  // (not internally thread-safe) consistent without a global bottleneck.
  struct alignas(kCacheLineSize) LatencyLane {
    std::atomic_flag spin = ATOMIC_FLAG_INIT;
    LatencyHistogram hist[4];  // indexed by KvOpKind
  };

  SKYLOFT_NO_SWITCH Stripe& StripeOf(std::string_view key);
  // Appends the SCAN body: the first `limit` pairs with key >= start in
  // global key order ("k=v;k=v;..."), or "EMPTY".
  void ScanReply(std::string_view start, std::size_t limit, std::string* reply);
  SKYLOFT_NO_SWITCH static void SpinLock(std::atomic_flag& flag);
  SKYLOFT_NO_SWITCH static void SpinUnlock(std::atomic_flag& flag);

  // Annotated wrappers over the raw flag spin: stripe and lane locks are
  // distinct lock classes, so skylint's order graph can tell nesting of a
  // data stripe inside a latency lane apart from stripe-vs-stripe.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(kv_stripe) static void LockStripe(Stripe& s);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(kv_stripe) static void UnlockStripe(Stripe& s);
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(kv_lane) static void LockLane(LatencyLane& l);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(kv_lane) static void UnlockLane(LatencyLane& l);

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::vector<std::unique_ptr<LatencyLane>> lanes_;
  LatencyHistogram merged_[4];
};

struct KvServerNetOptions {
  bool tcp = true;
  bool udp = true;
  std::uint16_t tcp_port = 0;  // 0 = kernel-assigned; read back via tcp_port()
  std::uint16_t udp_port = 0;
  int preload_keys = 10'000;
};

// One serving instance. Lifecycle (all inside Runtime::Run, uthread context):
//   KvServerNet server(&rt, options);
//   server.Start();   // binds, registers, spawns server uthreads
//   ... drive load ...
//   server.Stop();    // interrupts waits, joins server uthreads
class KvServerNet {
 public:
  KvServerNet(Runtime* rt, const KvServerNetOptions& options);
  ~KvServerNet();

  SKYLOFT_MAY_SWITCH void Start();
  SKYLOFT_MAY_SWITCH void Stop();

  std::uint16_t tcp_port() const { return tcp_port_; }
  std::uint16_t udp_port() const { return udp_port_; }
  KvStripedStore& store() { return store_; }

  std::uint64_t tcp_connections() const { return tcp_conns_->Value(); }
  std::uint64_t tcp_requests() const { return tcp_requests_->Value(); }
  std::uint64_t udp_requests() const { return udp_requests_->Value(); }
  std::uint64_t frame_errors() const { return frame_errors_->Value(); }
  std::uint64_t peer_resets() const { return peer_resets_->Value(); }
  std::int64_t open_connections() const { return open_conns_.load(std::memory_order_relaxed); }

 private:
  struct Listener;  // per-worker listener/udp state

  SKYLOFT_MAY_SWITCH void AcceptLoop(Listener* listener);
  SKYLOFT_MAY_SWITCH void HandleConn(IoHandle* handle);
  SKYLOFT_MAY_SWITCH void UdpLoop(Listener* listener);

  void TrackConn(IoHandle* handle);
  // Returns false if Stop() already interrupted (and will not re-interrupt)
  // this handle — i.e. the handle was no longer in the registry.
  bool UntrackConn(IoHandle* handle);

  Runtime* rt_;
  KvServerNetOptions options_;
  KvStripedStore store_;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::uint16_t tcp_port_ = 0;
  std::uint16_t udp_port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<int> live_server_uthreads_{0};
  std::atomic<std::int64_t> open_conns_{0};

  // Live TCP connection registry, for Stop() to interrupt parked handlers.
  // Interrupt happens under the same spinlock as untrack, so a handle is
  // never interrupted after its handler began deregistration. Lock class
  // `conns_registry`; hold windows must stay switch-free (skylint R5).
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(conns_registry) void LockConns();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(conns_registry) void UnlockConns();
  std::atomic_flag conns_spin_ = ATOMIC_FLAG_INIT;
  std::vector<IoHandle*> conns_;

  MetricGroup metrics_{"kv_server"};
  Counter* tcp_conns_ = nullptr;
  Counter* tcp_requests_ = nullptr;
  Counter* udp_requests_ = nullptr;
  Counter* frame_errors_ = nullptr;
  Counter* peer_resets_ = nullptr;
};

}  // namespace skyloft

#endif  // SRC_APPS_KV_SERVER_NET_H_
