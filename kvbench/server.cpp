// Server role: one KvServerNet on a Runtime, in its own process.
//
// Line protocol with the orchestrator (stdin commands, stdout replies):
//   -> READY port=<p> ctor_ns=<t> started_ns=<t> backend=<epoll|io_uring> ...
//   <- MARK      -> MARK t_ns=... utime_us=... <counter>=<value> ...
//   <- DUMP      -> DUMPED (after IoEngine::DumpDebug of every engine to stderr)
//   <- STOP      -> STOPPED <store latency and trace fields>
// MARK snapshots process rusage and public counters (Runtime accessors and
// MetricsRegistry::Snapshot); the orchestrator differences two MARKs to get a
// window. Nothing inside the library is instrumented for this.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "kvbench/roles.h"
#include "kvbench/workload.h"
#include "src/apps/kv_server_net.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/runtime/io_engine.h"
#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

// ---------------------------------------------------------------------------
// Allocation counter: the binary's own replacement operator new.
// ---------------------------------------------------------------------------

namespace {

// Allocations are counted process-wide while g_count_allocs is set (the
// server's --count-allocs).
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void CountAlloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* AllocOrThrow(std::size_t n) {
  CountAlloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AlignedAllocOrThrow(std::size_t n, std::align_val_t al) {
  CountAlloc();
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return AllocOrThrow(n); }
void* operator new[](std::size_t n) { return AllocOrThrow(n); }
void* operator new(std::size_t n, std::align_val_t al) { return AlignedAllocOrThrow(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return AlignedAllocOrThrow(n, al); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  CountAlloc();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  CountAlloc();
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace kvbench {

namespace {

using namespace skyloft;

void WriteLine(const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = write(STDOUT_FILENO, line.data() + off, line.size() - off);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void Field(std::string* out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %s=%.17g", key, v);
  *out += buf;
}

// Fixed compute unit of a batch uthread: a dependent multiply chain the
// compiler cannot shorten.
constexpr int kBatchUnitIters = 4096;
volatile std::uint64_t g_batch_sink = 0;

std::uint64_t BatchUnit(std::uint64_t x) {
  for (int i = 0; i < kBatchUnitIters; i++) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

struct alignas(64) BatchLane {
  std::atomic<std::uint64_t> ops{0};
};

std::uint64_t SampleValue(const std::vector<MetricSample>& samples, const char* name) {
  for (const MetricSample& s : samples) {
    if (s.name == name) {
      return static_cast<std::uint64_t>(s.value);
    }
  }
  return 0;
}

std::string Mark(Runtime& rt, KvServerNet& server, const std::vector<std::unique_ptr<BatchLane>>& lanes) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::uint64_t batch_ops = 0;
  std::string per_lane;
  for (const auto& lane : lanes) {
    const std::uint64_t ops = lane->ops.load(std::memory_order_relaxed);
    batch_ops += ops;
    per_lane += (per_lane.empty() ? "" : ",") + std::to_string(ops);
  }
  const std::vector<MetricSample> m = MetricsRegistry::Global().Snapshot();
  std::string line = "MARK";
  Field(&line, "t_ns", static_cast<double>(NowNs()));
  Field(&line, "utime_us", static_cast<double>(ru.ru_utime.tv_sec) * 1e6 + ru.ru_utime.tv_usec);
  Field(&line, "stime_us", static_cast<double>(ru.ru_stime.tv_sec) * 1e6 + ru.ru_stime.tv_usec);
  Field(&line, "maxrss_kb", static_cast<double>(ru.ru_maxrss));
  Field(&line, "nvcsw", static_cast<double>(ru.ru_nvcsw));
  Field(&line, "nivcsw", static_cast<double>(ru.ru_nivcsw));
  Field(&line, "served", static_cast<double>(server.tcp_requests()));
  Field(&line, "allocs", static_cast<double>(g_allocs.load(std::memory_order_relaxed)));
  Field(&line, "batch_ops", static_cast<double>(batch_ops));
  line += " batch_ops_by_uthread=" + (per_lane.empty() ? std::string("-") : per_lane);
  Field(&line, "preemptions", static_cast<double>(rt.preemptions()));
  Field(&line, "deferrals", static_cast<double>(rt.preempt_deferrals()));
  Field(&line, "syscalls", static_cast<double>(rt.io_data_syscalls()));
  for (const char* name :
       {"host_sched.steals", "host_sched.steal_attempts", "host_sched.steal_successes",
        "host_sched.mailbox_drains", "host_sched.mailbox_cas_retries", "io_engine.wakeups",
        "io_engine.events", "io_engine.polls"}) {
    Field(&line, name, static_cast<double>(SampleValue(m, name)));
  }
  return line + "\n";
}

// Share of worker time spent running uthreads inside [t0, t1], from the
// tracer's occupancy spans.
double BusyFrac(const SchedTracer& tracer, std::int64_t t0, std::int64_t t1, int workers) {
  if (t1 <= t0) {
    return 0;
  }
  double busy = 0;
  for (const TraceEvent& e : tracer.Snapshot()) {
    if (e.type != TraceEventType::kRun || e.dur < 0) {
      continue;
    }
    const std::int64_t s = std::max<std::int64_t>(e.when, t0);
    const std::int64_t f = std::min<std::int64_t>(e.when + e.dur, t1);
    if (f > s) {
      busy += static_cast<double>(f - s);
    }
  }
  return busy / (static_cast<double>(t1 - t0) * workers);
}

void WriteTrace(const SchedTracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "when_ns,dur_ns,event,worker,task\n");
  for (const TraceEvent& e : tracer.Snapshot()) {
    std::fprintf(f, "%lld,%lld,%s,%d,%llu\n", static_cast<long long>(e.when),
                 static_cast<long long>(e.dur), TraceEventName(e.type), e.worker,
                 static_cast<unsigned long long>(e.task_id));
  }
  std::fclose(f);
}

}  // namespace

int ServerMain(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(ArgOr(args, "workload", ""));
  if (spec == nullptr) {
    std::fprintf(stderr, "server: unknown workload\n");
    return 2;
  }
  PinToCpus(ArgOr(args, "cpus", "0,1"));
  const std::size_t trace_cap = std::stoull(ArgOr(args, "trace-cap", "0"));
  const std::string trace_out = ArgOr(args, "trace-out", "");
  g_count_allocs.store(ArgOr(args, "count-allocs", "0") == "1", std::memory_order_relaxed);

  std::unique_ptr<SchedTracer> tracer;
  if (trace_cap > 0) {
    tracer = std::make_unique<SchedTracer>(trace_cap);
  }
  RuntimeOptions opts;
  opts.workers = spec->workers;
  opts.preempt_period_us = spec->preempt_period_us;
  opts.io_engine = true;
  opts.tracer = tracer.get();

  const std::int64_t ctor_ns = NowNs();
  Runtime rt(opts);
  std::string stopped;
  std::vector<std::int64_t> marks;
  rt.Run([&] {
    KvServerNet server(&rt, KvServerNetOptions{.udp = false});
    server.Start();
    IoEngine* engine = rt.io_engine(0);
    std::string ready = "READY";
    Field(&ready, "port", server.tcp_port());
    Field(&ready, "ctor_ns", static_cast<double>(ctor_ns));
    Field(&ready, "started_ns", static_cast<double>(NowNs()));
    ready += engine->using_io_uring() ? " backend=io_uring" : " backend=epoll";
    Field(&ready, "completion", engine->completion() ? 1 : 0);
    Field(&ready, "workers", rt.workers());
    WriteLine(ready + "\n");

    std::atomic<bool> batch_stop{false};
    std::atomic<int> batch_live{spec->batch_uthreads};
    std::vector<std::unique_ptr<BatchLane>> lanes;
    for (int i = 0; i < spec->batch_uthreads; i++) {
      lanes.push_back(std::make_unique<BatchLane>());
      BatchLane* lane = lanes.back().get();
      Runtime::Spawn([&batch_stop, &batch_live, lane, i, yields = spec->batch_yields] {
        std::uint64_t x = static_cast<std::uint64_t>(i) + 1;
        while (!batch_stop.load(std::memory_order_relaxed)) {
          x = BatchUnit(x);
          lane->ops.fetch_add(1, std::memory_order_relaxed);
          if (yields) {
            Runtime::Yield();
          }
        }
        g_batch_sink = x;
        batch_live.fetch_sub(1, std::memory_order_acq_rel);
      });
    }

    IoHandle* control = engine->Register(STDIN_FILENO);
    std::string pending;
    bool running = true;
    while (running) {
      const unsigned ready_bits = WaitForReadable(control);
      char buf[256];
      while (true) {
        const ssize_t n = read(STDIN_FILENO, buf, sizeof(buf));
        if (n > 0) {
          pending.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          running = false;  // orchestrator gone: shut down
        }
        break;
      }
      std::size_t nl;
      while ((nl = pending.find('\n')) != std::string::npos) {
        const std::string cmd = pending.substr(0, nl);
        pending.erase(0, nl + 1);
        if (cmd == "MARK") {
          const std::string line = Mark(rt, server, lanes);
          marks.push_back(NowNs());
          WriteLine(line);
        } else if (cmd == "DUMP") {
          // Post-mortem of a stuck connection: every engine's handle table.
          for (int w = 0; w < rt.workers(); w++) {
            rt.io_engine(w)->DumpDebug(stderr);
          }
          std::fflush(stderr);
          WriteLine("DUMPED\n");
        } else if (cmd == "STOP") {
          running = false;
        }
      }
      if ((ready_bits & (kIoHup | kIoError)) != 0 && pending.empty()) {
        running = false;
      }
    }
    // Not Runtime::Join: Join holds the runtime's wait mutex with preemption
    // enabled, and a preempted holder can deadlock its worker against a
    // batch uthread exiting on the same worker (NOTES.md, known defects).
    // The Yield loop is KvServerNet::Stop's own way of waiting.
    batch_stop.store(true, std::memory_order_relaxed);
    while (batch_live.load(std::memory_order_acquire) > 0) {
      Runtime::Yield();
    }
    engine->Deregister(control);
    server.Stop();

    KvStripedStore& store = server.store();
    stopped = "STOPPED";
    Field(&stopped, "get_p50_ns", static_cast<double>(store.latency(KvOpKind::kGet).Percentile(0.5)));
    Field(&stopped, "get_p99_ns", static_cast<double>(store.latency(KvOpKind::kGet).Percentile(0.99)));
    Field(&stopped, "get_n", static_cast<double>(store.latency(KvOpKind::kGet).Count()));
    Field(&stopped, "set_p50_ns", static_cast<double>(store.latency(KvOpKind::kSet).Percentile(0.5)));
    Field(&stopped, "scan_p50_ns", static_cast<double>(store.latency(KvOpKind::kScan).Percentile(0.5)));
    Field(&stopped, "scan_n", static_cast<double>(store.latency(KvOpKind::kScan).Count()));
  });
  if (tracer != nullptr) {
    Field(&stopped, "trace_recorded", static_cast<double>(tracer->total_recorded()));
    Field(&stopped, "trace_capacity", static_cast<double>(tracer->capacity()));
    if (marks.size() >= 2) {
      Field(&stopped, "busy_frac", BusyFrac(*tracer, marks[0], marks[1], spec->workers));
    }
    if (!trace_out.empty()) {
      WriteTrace(*tracer, trace_out);
    }
  }
  WriteLine(stopped + "\n");
  return 0;
}

}  // namespace kvbench
