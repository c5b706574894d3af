// Ladder role: the per-layer cost ladder, measured from outside each module
// through its public functions. Every rung repeats kReps times and prints
//   RUNG <name> median=<ns> p10=<ns> p90=<ns> reps=<n> ops=<ops per rep>
// plus one "SPAN <name> <rep> <start_ns> <end_ns>" line per repetition for
// the run's trace file; "COUNT <name> <value>" lines carry the SCAN reply
// shape. Inputs come from the run's seeded workload stream.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvbench/roles.h"
#include "kvbench/workload.h"
#include "src/apps/kv_server_net.h"
#include "src/net/frame.h"
#include "src/runtime/context.h"
#include "src/runtime/host_sched.h"
#include "src/runtime/io_engine.h"
#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace kvbench {
namespace {

using namespace skyloft;

constexpr int kReps = 7;
volatile std::size_t g_sink = 0;

struct Rep {
  std::int64_t start = 0;
  std::int64_t end = 0;
  double ns_per_op = 0;
};

void Report(const char* name, const std::vector<Rep>& reps, long ops) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    v.push_back(r.ns_per_op);
    std::printf("SPAN %s %zu %lld %lld\n", name, v.size() - 1, static_cast<long long>(r.start),
                static_cast<long long>(r.end));
  }
  const Summary s = Summarize(v);
  std::printf("RUNG %s median=%.6f p10=%.6f p90=%.6f reps=%zu ops=%ld\n", name, s.p50, s.p10,
              s.p90, s.n, ops);
  std::fflush(stdout);
}

// Runs `body(ops)` kReps times; body returns the ns its timed loop took,
// which leaves set-up such as Runtime construction out of the rung.
template <typename Body>
void Rung(const char* name, long ops, Body body) {
  std::vector<Rep> reps;
  for (int r = 0; r < kReps; r++) {
    Rep rep;
    rep.start = NowNs();
    rep.ns_per_op = body(ops) / static_cast<double>(ops);
    rep.end = NowNs();
    reps.push_back(rep);
  }
  Report(name, reps, ops);
}

// ---- runtime: raw context switch pair ----

void* g_main_sp = nullptr;
void* g_co_sp = nullptr;

void CoEntry(void*) {
  while (true) {
    skyloft_ctx_switch(&g_co_sp, g_main_sp);
  }
}

double CtxSwitchPairs(long ops) {
  constexpr std::size_t kStack = 64 * 1024;
  auto stack = std::make_unique<unsigned char[]>(kStack);
  g_co_sp = InitContext(stack.get(), kStack, CoEntry, nullptr);
  skyloft_ctx_switch(&g_main_sp, g_co_sp);  // first entry
  const std::int64_t t0 = NowNs();
  for (long i = 0; i < ops; i++) {
    skyloft_ctx_switch(&g_main_sp, g_co_sp);
  }
  return static_cast<double>(NowNs() - t0);
}

// ---- runtime: Table 7 operations ----

double YieldNs(long ops) {
  Runtime rt(RuntimeOptions{.workers = 1});
  double ns = 0;
  rt.Run([&] {
    UThread* peer = Runtime::Spawn([ops] {
      for (long i = 0; i < ops; i++) {
        Runtime::Yield();
      }
    });
    const std::int64_t t0 = NowNs();
    for (long i = 0; i < ops; i++) {
      Runtime::Yield();
    }
    ns = static_cast<double>(NowNs() - t0);
    Runtime::Join(peer);
  });
  return ns;
}

double SpawnJoinNs(long ops) {
  Runtime rt(RuntimeOptions{.workers = 1});
  double ns = 0;
  rt.Run([&] {
    const std::int64_t t0 = NowNs();
    for (long i = 0; i < ops; i++) {
      Runtime::Join(Runtime::Spawn([] {}));
    }
    ns = static_cast<double>(NowNs() - t0);
  });
  return ns;
}

// One Park/Unpark handoff between two uthreads on a 2-worker runtime (a
// round trip is two handoffs; the second worker steals the sleeper's peer).
double ParkUnparkNs(long ops) {
  Runtime rt(RuntimeOptions{.workers = 2});
  double ns = 0;
  rt.Run([&] {
    std::atomic<int> turn{0};
    std::atomic<UThread*> a{Runtime::Current()};
    UThread* b = Runtime::Spawn([&] {
      for (long i = 0; i < ops; i++) {
        while (turn.load(std::memory_order_acquire) != 1) {
          Runtime::Park();
        }
        turn.store(0, std::memory_order_release);
        Runtime::Unpark(a.load());
      }
    });
    const std::int64_t t0 = NowNs();
    for (long i = 0; i < ops; i++) {
      turn.store(1, std::memory_order_release);
      Runtime::Unpark(b);
      while (turn.load(std::memory_order_acquire) != 0) {
        Runtime::Park();
      }
    }
    ns = static_cast<double>(NowNs() - t0) / 2;  // two handoffs per round
    Runtime::Join(b);
  });
  return ns;
}

double CondvarNs(long ops) {
  Runtime rt(RuntimeOptions{.workers = 1});
  double ns = 0;
  rt.Run([&] {
    UthreadMutex mutex;
    UthreadCondVar cv;
    int turn = 0;
    UThread* peer = Runtime::Spawn([&] {
      mutex.Lock();
      for (long i = 0; i < ops; i++) {
        while (turn != 1) {
          cv.Wait(&mutex);
        }
        turn = 0;
        cv.Signal();
      }
      mutex.Unlock();
    });
    const std::int64_t t0 = NowNs();
    mutex.Lock();
    for (long i = 0; i < ops; i++) {
      turn = 1;
      cv.Signal();
      while (turn != 0) {
        cv.Wait(&mutex);
      }
    }
    mutex.Unlock();
    ns = static_cast<double>(NowNs() - t0);
    Runtime::Join(peer);
  });
  return ns;
}

// ---- host_sched: one Requeue on each driver ----

double RequeueNs(long ops, bool locked) {
  HostSchedOptions o;
  o.force_locked = locked;
  HostSched sched(1, o);
  SchedItem items[2];
  items[0].id = 1;
  items[1].id = 2;
  sched.EnqueueNew(&items[0], kEnqueueNew, 0);
  sched.EnqueueNew(&items[1], kEnqueueNew, 0);
  SchedItem* cur = sched.Dequeue(0);
  const std::int64_t t0 = NowNs();
  for (long i = 0; i < ops && cur != nullptr; i++) {
    cur = sched.Requeue(cur, kEnqueueYield, 0);
  }
  const double ns = static_cast<double>(NowNs() - t0);
  while (cur != nullptr) {  // drain so the driver holds no item on teardown
    cur = sched.Dequeue(0);
  }
  return ns;
}

// ---- io_engine ----

double PollEmptyNs(long ops) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return 0;
  }
  IoEngine engine(0, IoEngineOptions{}, IoEngineStats{});
  IoHandle* h = engine.Register(sv[0]);
  const std::int64_t t0 = NowNs();
  for (long i = 0; i < ops; i++) {
    engine.Poll();
  }
  const double ns = static_cast<double>(NowNs() - t0);
  engine.Deregister(h);
  engine.Poll();
  engine.Poll();
  close(sv[1]);
  return ns;
}

// Socketpair write (timestamp in the payload) -> the home engine's Poll
// latches readiness -> the parked WaitForReadable uthread runs. Median of
// the per-message latencies of one repetition, times `ops`.
double ReadyToRunNs(long ops) {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return 0;
  }
  RuntimeOptions opts{.workers = 1};
  opts.io_engine = true;
  Runtime rt(opts);
  std::vector<double> lat;
  std::atomic<long> acked{0};
  std::thread writer([&] {
    for (long i = 0; i < ops; i++) {
      while (acked.load(std::memory_order_acquire) != i) {
      }
      const std::int64_t ts = NowNs();
      if (write(sv[1], &ts, sizeof(ts)) != sizeof(ts)) {
        acked.store(ops, std::memory_order_release);
        return;
      }
    }
  });
  rt.Run([&] {
    IoHandle* h = rt.io_engine(0)->Register(sv[0]);
    for (long i = 0; i < ops;) {
      WaitForReadable(h);
      std::int64_t ts = 0;
      while (read(sv[0], &ts, sizeof(ts)) == sizeof(ts)) {
        lat.push_back(static_cast<double>(NowNs() - ts));
        i++;
        acked.store(i, std::memory_order_release);
      }
    }
    rt.io_engine(0)->Deregister(h);
  });
  writer.join();
  close(sv[1]);
  return Summarize(lat).p50 * static_cast<double>(ops);
}

// ---- net.frame ----

double DecodeNs(long ops, const std::string& stream) {
  std::int64_t total = 0;
  std::string payload;
  long frames = 0;
  for (long done = 0; done < ops;) {
    FrameDecoder decoder;
    const std::int64_t t0 = NowNs();
    for (std::size_t off = 0; off < stream.size(); off += 4096) {
      decoder.Feed(stream.data() + off, std::min<std::size_t>(4096, stream.size() - off));
      while (decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
        frames++;
      }
    }
    total += NowNs() - t0;
    done = frames;
  }
  return static_cast<double>(total) * static_cast<double>(ops) / static_cast<double>(frames);
}

// ---- apps.kv ----

// Serve() over generated requests on a preloaded 2-worker store, inside a
// runtime (Serve takes preemption guards).
template <typename Fn>
void WithStore(Fn fn) {
  Runtime rt(RuntimeOptions{.workers = 1});
  rt.Run([&] {
    KvStripedStore store(2);
    for (int k = 0; k < kPreloadKeys; k++) {
      store.Preload(KeyName(k), PreloadValue(k));
    }
    fn(store);
  });
}

double ServeNs(long ops, const std::vector<std::string>& reqs) {
  double ns = 0;
  WithStore([&](KvStripedStore& store) {
    std::size_t bytes = 0;
    const std::int64_t t0 = NowNs();
    for (long i = 0; i < ops; i++) {
      bytes += store.Serve(reqs[static_cast<std::size_t>(i) % reqs.size()], 0).size();
    }
    ns = static_cast<double>(NowNs() - t0);
    g_sink = bytes;
  });
  return ns;
}

std::vector<std::string> ServeReplies(const std::vector<std::string>& reqs) {
  std::vector<std::string> replies;
  WithStore([&](KvStripedStore& store) {
    for (const std::string& r : reqs) {
      replies.push_back(store.Serve(r, 0));
    }
  });
  return replies;
}

}  // namespace

int LadderMain(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(ArgOr(args, "workload", ""));
  if (spec == nullptr) {
    std::fprintf(stderr, "ladder: unknown workload\n");
    return 2;
  }
  PinToCpus(ArgOr(args, "cpus", "0,1"));
  const std::uint64_t seed = std::stoull(ArgOr(args, "seed", "1"));

  Rung("runtime.ctx_switch_ns", 200'000, CtxSwitchPairs);
  Rung("runtime.yield_ns", 100'000, YieldNs);
  Rung("runtime.spawn_join_ns", 30'000, SpawnJoinNs);
  Rung("runtime.park_unpark_xworker_ns", 20'000, ParkUnparkNs);
  Rung("runtime.condvar_pingpong_ns", 50'000, CondvarNs);
  Rung("host_sched.requeue_ns.lockfree", 500'000, [](long n) { return RequeueNs(n, false); });
  Rung("host_sched.requeue_ns.locked", 500'000, [](long n) { return RequeueNs(n, true); });
  Rung("io_engine.poll_empty_ns", 200'000, PollEmptyNs);
  Rung("io_engine.ready_to_run_ns", 2'000, ReadyToRunNs);

  // The run's own request stream: GET/SET from the workload's connections;
  // SCANs from the workload's scan connection, or kv_scan_mix's stream (same
  // seed) when the workload sends none. The SET rung writes the GET stream's
  // keys, so it runs at any SET share.
  std::vector<std::string> gets, sets, scans;
  std::vector<Request> scan_reqs;
  std::string stream;
  for (std::uint64_t seq = 0; gets.size() < 4096; seq++) {
    for (int c = 0; c < kConnections; c++) {
      if (spec->conns[c].scans) {
        continue;
      }
      const Request r = MakeRequest(*spec, seed, c, seq);
      stream += EncodeFrame(r.text);
      if (r.kind == OpKind::kGet) {
        gets.push_back(r.text);
        sets.push_back("SET " + KeyName(r.key) + " " + SetValue(c, seq));
      }
    }
  }
  const WorkloadSpec* scan_spec = spec;
  int scan_conn = -1;
  for (int c = 0; c < kConnections; c++) {
    if (spec->conns[c].scans) {
      scan_conn = c;
    }
  }
  if (scan_conn < 0) {
    scan_spec = FindWorkload("kv_scan_mix");
    scan_conn = kConnections - 1;
  }
  for (std::uint64_t seq = 0; seq < 256; seq++) {
    scan_reqs.push_back(MakeRequest(*scan_spec, seed, scan_conn, seq));
    scans.push_back(scan_reqs.back().text);
  }

  Rung("frame.decode_ns", 200'000, [&](long n) { return DecodeNs(n, stream); });
  Rung("kv.get_serve_ns", 200'000, [&](long n) { return ServeNs(n, gets); });
  Rung("kv.set_serve_ns", 100'000, [&](long n) { return ServeNs(n, sets); });
  Rung("kv.scan_serve_ns", 2'000, [&](long n) { return ServeNs(n, scans); });

  // SCAN replies of a fresh preloaded store, checked against the reference
  // model (no SET ran, so every value must be a preload value).
  const std::vector<std::string> scan_replies = ServeReplies(scans);
  ReplyVerifier verifier(*scan_spec, seed, [](int, std::uint64_t) { return false; });
  double pairs = 0;
  int wrong = 0;
  for (std::size_t i = 0; i < scan_replies.size(); i++) {
    pairs += ReplyVerifier::ScanPairs(scan_replies[i]);
    if (verifier.Check(scan_reqs[i], scan_replies[i]) != Verdict::kOk) {
      wrong++;
    }
  }
  const double n = static_cast<double>(scan_replies.size());
  std::printf("COUNT kv.scan_pairs_per_reply %.6f\n", pairs / n);
  std::printf("COUNT kv.scan_wrong_frac %.6f\n", wrong / n);
  std::fflush(stdout);
  return 0;
}

}  // namespace kvbench
