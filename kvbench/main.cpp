// kvbench: the repository's end-to-end benchmark. Open-loop KV serving over
// loopback TCP against KvServerNet, driven from outside by a seeded Poisson
// generator, plus the per-layer ladder and a traced run (kvbench/NOTES.md).
//
//   kvbench --workload <workload> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>]
//
// Workloads: kv_get and kv_colocated_yield (scored in BENCHMARK.json);
// kv_scan_mix, kv_colocated and kv_colocated_overload (not scored; they fail
// on known defects, see NOTES.md).
//
// Processes: this one is the orchestrator and the load generator (2 threads,
// 4 connections) pinned to the upper two CPUs; servers (`--role server`) and
// the ladder (`--role ladder`) are children pinned to the lower two. Prints
//   METRIC <name> <value> <unit> <samples>
// lines for every metric it measured and, last,
//   RESULT correct=<0|1> attempted=<n> failed=<n>
// Exit code 3 means the generator could not keep its schedule (the run is
// invalid, not scored).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <linux/sockios.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kvbench/roles.h"
#include "kvbench/workload.h"

namespace kvbench {

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      args[key.substr(2)] = argv[i + 1];
    }
  }
  return args;
}

std::string ArgOr(const Args& args, const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

bool PinToCpus(const std::string& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t pos = 0;
  while (pos < cpus.size()) {
    const std::size_t comma = cpus.find(',', pos);
    CPU_SET(std::atoi(cpus.substr(pos, comma - pos).c_str()), &set);
    pos = comma == std::string::npos ? cpus.size() : comma + 1;
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

namespace {

constexpr std::int64_t kSec = 1'000'000'000;
constexpr std::int64_t kDrainTimeoutNs = 10 * kSec;  // later replies are failures
constexpr int kSetupRepeats = 15;                    // server set-ups per run
constexpr double kFixedSubWindowS = 1.0;   // fixed-rate percentiles: median of these
constexpr double kFixedShare = 0.6;        // of a serve's budget, when it has a ladder
constexpr double kRungSubWindows = 5;      // SLO rung p50: median over these
constexpr double kMaxRungRequests = 1.5e6;
constexpr double kTracedWindowS = 5;       // the traced server's fixed window
// Ring size per traced second: above the ~290k events/s that kv_colocated_yield's
// per-unit yields record, so the ring holds the whole traced serve.
constexpr double kTraceEventsPerS = 400'000;

std::string g_exe;  // this binary, for the child roles

// "WORD k=v k=v ..." lines of the child protocol.
using Fields = std::map<std::string, std::string>;

Fields ParseFields(const std::string& line) {
  Fields f;
  std::size_t pos = line.find(' ');
  while (pos != std::string::npos) {
    const std::size_t start = pos + 1;
    const std::size_t eq = line.find('=', start);
    pos = line.find(' ', start);
    if (eq != std::string::npos && (pos == std::string::npos || eq < pos)) {
      const std::size_t end = pos == std::string::npos ? line.size() : pos;
      f[line.substr(start, eq - start)] = line.substr(eq + 1, end - eq - 1);
    }
  }
  return f;
}

double Num(const Fields& f, const std::string& key) {
  const auto it = f.find(key);
  return it == f.end() ? 0 : std::strtod(it->second.c_str(), nullptr);
}

// Difference of a counter between two MARKs.
double Delta(const Fields& a, const Fields& b, const std::string& key) {
  return Num(b, key) - Num(a, key);
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() { Kill(); }

  bool Start(const std::vector<std::string>& args) {
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0) {
      return false;
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(g_exe.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ == 0) {
      dup2(in[0], STDIN_FILENO);
      dup2(out[1], STDOUT_FILENO);
      execv(g_exe.c_str(), argv.data());
      _exit(127);
    }
    close(in[0]);
    close(out[1]);
    to_ = in[1];
    from_ = out[0];
    return pid_ > 0;
  }

  void Send(const std::string& line) {
    const std::string l = line + "\n";
    if (write(to_, l.data(), l.size()) != static_cast<ssize_t>(l.size())) {
      std::fprintf(stderr, "kvbench: child command write failed\n");
    }
  }

  // Next stdout line of the child; nullopt on EOF or timeout.
  std::optional<std::string> ReadLine(std::int64_t timeout_ns) {
    const std::int64_t deadline = NowNs() + timeout_ns;
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const std::int64_t left = deadline - NowNs();
      if (left <= 0) {
        return std::nullopt;
      }
      pollfd p{from_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left / 1'000'000 + 1)) <= 0) {
        continue;
      }
      char tmp[4096];
      const ssize_t n = read(from_, tmp, sizeof(tmp));
      if (n <= 0) {
        return std::nullopt;
      }
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  // Reads lines until one starts with `prefix`, dropping the others.
  std::optional<std::string> Expect(const std::string& prefix, std::int64_t timeout_ns) {
    const std::int64_t deadline = NowNs() + timeout_ns;
    while (auto line = ReadLine(deadline - NowNs())) {
      if (line->rfind(prefix, 0) == 0) {
        return line;
      }
    }
    return std::nullopt;
  }

  // Waits for exit; returns the exit status (-1 if it had to be killed,
  // after printing where each of its threads was blocked).
  int Wait(std::int64_t timeout_ns) {
    if (pid_ <= 0) {
      return -1;
    }
    const std::int64_t deadline = NowNs() + timeout_ns;
    int status = 0;
    while (NowNs() < deadline) {
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        CloseFds();
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      }
      usleep(2000);
    }
    DumpThreads();
    Kill();
    return -1;
  }

 private:
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    CloseFds();
  }
  // Each thread's state and kernel wait channel, for a child that hangs.
  void DumpThreads() const {
    const std::string task = "/proc/" + std::to_string(pid_) + "/task";
    for (const auto& entry : std::filesystem::directory_iterator(task)) {
      std::ifstream stat(entry.path() / "stat");
      std::ifstream wchan(entry.path() / "wchan");
      std::string s, w;
      std::getline(stat, s);
      std::getline(wchan, w);
      const std::size_t paren = s.rfind(')');
      std::fprintf(stderr, "hung child thread %s state=%c wchan=%s\n",
                   entry.path().filename().c_str(),
                   paren != std::string::npos && paren + 2 < s.size() ? s[paren + 2] : '?',
                   w.c_str());
    }
  }

  void CloseFds() {
    if (to_ >= 0) close(to_);
    if (from_ >= 0) close(from_);
    to_ = from_ = -1;
  }

  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::string buf_;
};

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

struct Pending {
  int conn = 0;
  std::uint64_t seq = 0;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t done = 0;
  std::uint64_t end_off = 0;  // stream offset just past this request's bytes
  OpKind kind = OpKind::kGet;
  int key = 0;
  int scan_limit = 0;
  Verdict verdict = Verdict::kTimeout;
};

struct Conn {
  int id = 0;
  int fd = -1;
  bool dead = false;
  bool send_blocked = false;
  std::uint64_t next_seq = 0;
  std::atomic<std::uint64_t> emitted{0};  // seqs < emitted were handed to the socket layer
  std::string out;
  std::size_t out_off = 0;
  std::uint64_t bytes_emitted = 0;
  std::uint64_t bytes_sent = 0;
  std::string in;
  std::size_t in_pos = 0;
  // Current phase.
  std::vector<Pending> reqs;
  std::size_t reply_head = 0;
  std::size_t stamp_head = 0;
  double next_due = 0;
  std::uint64_t k = 0;
};

// One open-loop phase: Poisson arrivals at `rate` for `duration_ns`, drawn
// from the phase's own stream.
struct PhaseSpec {
  double rate = 0;
  std::int64_t duration_ns = 0;
  std::uint64_t phase_id = 0;
};

struct PhaseResult {
  std::int64_t t0 = 0;
  std::int64_t t_end = 0;
  std::vector<Pending> reqs;  // all connections
  bool conn_lost = false;
  bool send_blocked = false;  // a send found the socket buffer full
};

class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::uint64_t seed, const std::vector<int>& cpus)
      : spec_(spec), seed_(seed), cpus_(cpus),
        verifier_(spec, seed, [this](int c, std::uint64_t seq) {
          return seq < conns_[c].emitted.load(std::memory_order_acquire);
        }) {
    for (int c = 0; c < kConnections; c++) {
      conns_[c].id = c;
    }
  }

  ~Generator() { Disconnect(); }

  bool Connect(int port) {
    for (Conn& c : conns_) {
      c.fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (c.fd < 0 || connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        return false;
      }
      const int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      c.dead = false;
      c.out.clear();
      c.out_off = 0;
      c.in.clear();
      c.in_pos = 0;
      c.bytes_emitted = c.bytes_sent = 0;
    }
    return true;
  }

  void Disconnect() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) {
        close(c.fd);
        c.fd = -1;
      }
    }
  }

  // One request on connection 0, waited for and verified: the end of set-up.
  // Returns the reply instant, or 0 when it failed.
  std::int64_t Probe(std::vector<Pending>* record) {
    Conn& c = conns_[0];
    c.reqs.clear();
    c.reply_head = c.stamp_head = 0;
    const std::int64_t now = NowNs();
    Emit(c, now);
    const std::int64_t deadline = now + 5 * kSec;
    while (c.reply_head < c.reqs.size() && NowNs() < deadline && !c.dead) {
      Flush(c);
      Receive(c);
    }
    Pending p = c.reqs[0];
    if (p.done == 0) {
      p.verdict = c.dead ? Verdict::kConnLost : Verdict::kTimeout;
    }
    record->push_back(p);
    return p.verdict == Verdict::kOk ? p.done : 0;
  }

  PhaseResult Run(const PhaseSpec& ps) {
    PhaseResult res;
    res.t0 = NowNs() + 1'000'000;  // 1 ms to start both threads
    res.t_end = res.t0 + ps.duration_ns;
    for (Conn& c : conns_) {
      c.reqs.clear();
      c.reqs.reserve(static_cast<std::size_t>(ps.rate * spec_.conns[c.id].rate_share *
                                              ps.duration_ns / 1e9 * 1.1) + 16);
      c.reply_head = c.stamp_head = 0;
      c.send_blocked = false;
      c.k = 0;
      c.next_due = static_cast<double>(res.t0) + Gap(ps, c);
    }
    std::thread helper([&] { Loop(ps, res.t_end, 1); });
    Loop(ps, res.t_end, 0);
    helper.join();
    for (Conn& c : conns_) {
      res.conn_lost |= c.dead;
      res.send_blocked |= c.send_blocked;
      res.reqs.insert(res.reqs.end(), c.reqs.begin(), c.reqs.end());
      c.reqs.clear();
    }
    return res;
  }

  // Which connections were cut off, and how far their replies got.
  void DumpOutstanding() const {
    for (const Conn& c : conns_) {
      int unacked = 0;  // sent bytes the server has not yet read off its socket
      int unread = 0;   // reply bytes waiting in our socket
      ioctl(c.fd, SIOCOUTQ, &unacked);
      ioctl(c.fd, SIOCINQ, &unread);
      std::fprintf(stderr,
                   "conn %d fd=%d dead=%d emitted_bytes=%llu sent_bytes=%llu socket_outq=%d "
                   "socket_inq=%d\n",
                   c.id, c.fd, c.dead ? 1 : 0, static_cast<unsigned long long>(c.bytes_emitted),
                   static_cast<unsigned long long>(c.bytes_sent), unacked, unread);
    }
  }

  bool any_dead() const {
    for (const Conn& c : conns_) {
      if (c.dead) return true;
    }
    return false;
  }

 private:
  double Gap(const PhaseSpec& ps, Conn& c) {
    const double rate = ps.rate * spec_.conns[c.id].rate_share;
    return PoissonGapNs(seed_, ps.phase_id, c.id, c.k++, rate);
  }

  void Emit(Conn& c, std::int64_t due) {
    const Request r = MakeRequest(spec_, seed_, c.id, c.next_seq);
    Pending p;
    p.conn = c.id;
    p.seq = c.next_seq++;
    p.due = due;
    p.kind = r.kind;
    p.key = r.key;
    p.scan_limit = r.scan_limit;
    if (c.dead) {
      p.verdict = Verdict::kConnLost;
      c.reqs.push_back(p);
      return;
    }
    AppendFrame(&c.out, r.text);
    c.bytes_emitted += 8 + r.text.size();
    p.end_off = c.bytes_emitted;
    c.reqs.push_back(p);
    c.emitted.store(c.next_seq, std::memory_order_release);
  }

  void MarkDead(Conn& c) {
    c.dead = true;
    for (std::size_t i = c.reply_head; i < c.reqs.size(); i++) {
      c.reqs[i].verdict = Verdict::kConnLost;
    }
    c.reply_head = c.reqs.size();
  }

  void Flush(Conn& c) {
    while (!c.dead && c.out_off < c.out.size()) {
      const ssize_t n = send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        c.bytes_sent += static_cast<std::uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        c.send_blocked = true;
        break;
      }
      MarkDead(c);
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    const std::int64_t now = NowNs();
    while (c.stamp_head < c.reqs.size() && c.reqs[c.stamp_head].end_off <= c.bytes_sent &&
           c.reqs[c.stamp_head].verdict != Verdict::kConnLost) {
      c.reqs[c.stamp_head++].sent = now;
    }
  }

  // One recv per call (another only when the buffer came back full): the
  // generator polls in a loop, so draining to EAGAIN would double its
  // syscalls.
  void Receive(Conn& c) {
    char buf[65536];
    while (!c.dead) {
      const ssize_t n = recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) == sizeof(buf)) {
          continue;
        }
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      MarkDead(c);  // EOF or reset: the server is gone
      return;
    }
    const std::int64_t now = NowNs();
    std::string_view payload;
    int st;
    while ((st = NextFrame(c.in, &c.in_pos, &payload)) == 1) {
      if (c.reply_head >= c.reqs.size()) {
        MarkDead(c);  // a reply nobody asked for: the stream is out of sync
        return;
      }
      Pending& p = c.reqs[c.reply_head++];
      p.done = now;
      Request r;
      r.kind = p.kind;
      r.key = p.key;
      r.scan_limit = p.scan_limit;
      p.verdict = verifier_.Check(r, payload);
    }
    if (st < 0) {
      MarkDead(c);
      return;
    }
    if (c.in_pos > 65536 || c.in_pos == c.in.size()) {
      c.in.erase(0, c.in_pos);
      c.in_pos = 0;
    }
  }

  void Loop(const PhaseSpec& ps, std::int64_t t_end, int thread) {
    if (thread < static_cast<int>(cpus_.size())) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus_[thread], &set);
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
    Conn* mine[2] = {&conns_[2 * thread], &conns_[2 * thread + 1]};
    while (true) {
      const std::int64_t now = NowNs();
      bool scheduled = false;
      bool inflight = false;
      for (Conn* c : mine) {
        while (c->next_due <= static_cast<double>(now) && c->next_due < static_cast<double>(t_end)) {
          Emit(*c, static_cast<std::int64_t>(c->next_due));
          c->next_due += Gap(ps, *c);
        }
        scheduled |= c->next_due < static_cast<double>(t_end);
        if (c->out_off < c->out.size()) {
          Flush(*c);
        }
        if (c->reply_head < c->reqs.size()) {
          Receive(*c);
          inflight |= c->reply_head < c->reqs.size();
        }
      }
      if (!scheduled && !inflight) {
        return;
      }
      if (!scheduled && now > t_end + kDrainTimeoutNs) {
        for (Conn* c : mine) {
          c->reply_head = c->reqs.size();  // the rest stay kTimeout
          c->dead = true;                  // out of sync: reconnect before reuse
        }
        return;
      }
    }
  }

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::vector<int> cpus_;
  Conn conns_[kConnections];
  ReplyVerifier verifier_;
};

// ---------------------------------------------------------------------------
// Phase statistics
// ---------------------------------------------------------------------------

// Per-phase samples, whole and split into consecutive sub-windows by due
// time (WindowedQuantile takes the median of per-sub-window quantiles).
struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  // by verdict
  std::vector<double> get_us, scan_us, lag_us;
  std::vector<std::vector<double>> get_w, scan_w, lag_w;
  std::uint64_t done_in_time = 0;
  std::uint64_t ok = 0;
  double window_s = 0;
  bool send_blocked = false;
};

PhaseStats Analyze(const PhaseResult& r, double grace_us, double sub_window_s) {
  PhaseStats s;
  s.window_s = static_cast<double>(r.t_end - r.t0) / 1e9;
  s.send_blocked = r.send_blocked;
  const auto windows = static_cast<std::size_t>(std::max(1.0, std::round(s.window_s / sub_window_s)));
  s.get_w.resize(windows);
  s.scan_w.resize(windows);
  s.lag_w.resize(windows);
  const double grace_ns = grace_us * 1e3;
  const double span_ns = static_cast<double>(r.t_end - r.t0);
  for (const Pending& p : r.reqs) {
    s.attempted++;
    const auto w = std::min(windows - 1, static_cast<std::size_t>(
                                             static_cast<double>(p.due - r.t0) / span_ns * windows));
    const double lat_us = static_cast<double>(p.done - p.due) / 1e3;
    // SCAN latency counts every answered SCAN, also one that failed the
    // check, so it stays measured while the SCAN defect (NOTES.md) stands.
    if (p.kind == OpKind::kScan && (p.verdict == Verdict::kOk || p.verdict == Verdict::kWrongScan)) {
      s.scan_us.push_back(lat_us);
      s.scan_w[w].push_back(lat_us);
    }
    if (p.verdict != Verdict::kOk) {
      s.failed++;
      s.failures[VerdictName(p.verdict)]++;
      continue;
    }
    s.ok++;
    if (p.kind == OpKind::kGet) {
      s.get_us.push_back(lat_us);
      s.get_w[w].push_back(lat_us);
    }
    const double lag_us = static_cast<double>(p.sent - p.due) / 1e3;
    s.lag_us.push_back(lag_us);
    s.lag_w[w].push_back(lag_us);
    if (static_cast<double>(p.done) <= static_cast<double>(r.t_end) + grace_ns) {
      s.done_in_time++;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;
  bool crashed = false;
  void Add(const PhaseStats& s) {
    attempted += s.attempted;
    failed += s.failed;
    for (const auto& [k, v] : s.failures) failures[k] += v;
  }
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

struct BenchSpan {
  std::string name;
  std::uint64_t id = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, std::uint64_t seed, double seconds, bool traced_mode,
        std::string out_dir, std::vector<int> server_cpus, std::vector<int> gen_cpus)
      : spec_(spec), seed_(seed), seconds_(seconds), trace_mode_(traced_mode),
        out_dir_(std::move(out_dir)), server_cpus_(std::move(server_cpus)),
        gen_cpus_(std::move(gen_cpus)) {}

  int Main();

 private:
  struct ServerRun {
    double setup_s = 0;
    Fields ready;
    Fields mark0, mark1;
    Fields stopped;
    PhaseStats fixed;
    double slo_rps = 0;
    std::size_t rungs = 0;
  };

  std::string CpuList(const std::vector<int>& cpus) const {
    std::string s;
    for (int c : cpus) {
      s += (s.empty() ? "" : ",") + std::to_string(c);
    }
    return s;
  }

  bool StartServer(Child* child, Generator* gen, bool count_allocs, std::size_t trace_cap,
                   const std::string& trace_out, ServerRun* run);
  bool StopServer(Child* child, ServerRun* run);
  PhaseStats RunPhase(Generator* gen, const std::string& name, double rate, double seconds,
                      double sub_window_s);
  // One server: set-up, warm-up, the fixed-rate window and, with
  // `with_ladder`, the SLO ladder, all within `budget_s`.
  void Serve(bool count_allocs, std::size_t trace_cap, const std::string& trace_out,
             double budget_s, bool with_ladder, ServerRun* run, bool* ok);
  double SloLadder(Generator* gen, double budget_s, std::size_t* rungs);
  void RunLadderChild(Metrics* m);
  void Put(const std::string& name, double v, const std::string& unit, std::uint64_t n = 0) {
    metrics_[name] = Metric{v, unit, n};
  }
  void WriteSpans(const std::string& path) const;

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_mode_;
  std::string out_dir_;
  std::vector<int> server_cpus_, gen_cpus_;
  std::uint64_t phase_counter_ = 0;
  Totals totals_;
  Metrics metrics_;
  std::vector<BenchSpan> spans_;
  std::vector<PhaseResult> traced_phases_;
  bool keep_request_spans_ = false;
};

PhaseStats Bench::RunPhase(Generator* gen, const std::string& name, double rate, double seconds,
                           double sub_window_s) {
  PhaseSpec ps{rate, static_cast<std::int64_t>(seconds * 1e9), ++phase_counter_};
  PhaseResult r = gen->Run(ps);
  PhaseStats s = Analyze(r, spec_.p50_limit_us, sub_window_s);
  totals_.Add(s);
  totals_.crashed |= r.conn_lost;
  spans_.push_back(BenchSpan{name, phase_counter_, r.t0, r.t_end});
  if (keep_request_spans_ && name == "fixed") {
    traced_phases_.push_back(std::move(r));  // request spans: the fixed window
  }
  return s;
}

bool Bench::StartServer(Child* child, Generator* gen, bool count_allocs, std::size_t trace_cap,
                        const std::string& trace_out, ServerRun* run) {
  std::vector<std::string> args = {"--role",  "server",    "--workload", spec_.name,
                                    "--cpus",  CpuList(server_cpus_), "--count-allocs",
                                    count_allocs ? "1" : "0", "--trace-cap",
                                    std::to_string(trace_cap), "--trace-out", trace_out};
  if (!child->Start(args)) {
    return false;
  }
  const auto ready = child->Expect("READY", 30 * kSec);
  if (!ready) {
    return false;
  }
  run->ready = ParseFields(*ready);
  if (!gen->Connect(static_cast<int>(Num(run->ready, "port")))) {
    return false;
  }
  std::vector<Pending> probe;
  const std::int64_t first_reply = gen->Probe(&probe);
  totals_.attempted += probe.size();
  if (first_reply == 0) {
    totals_.failed += probe.size();
    totals_.failures[VerdictName(probe[0].verdict)]++;
    return false;
  }
  const auto ctor_ns = static_cast<std::int64_t>(Num(run->ready, "ctor_ns"));
  run->setup_s = static_cast<double>(first_reply - ctor_ns) / 1e9;
  spans_.push_back(BenchSpan{"setup", phase_counter_, ctor_ns, first_reply});
  return true;
}

bool Bench::StopServer(Child* child, ServerRun* run) {
  child->Send("STOP");
  const auto stopped = child->Expect("STOPPED", 60 * kSec);
  if (stopped) {
    run->stopped = ParseFields(*stopped);
  }
  const int status = child->Wait(30 * kSec);
  if (status != 0) {
    std::fprintf(stderr, "kvbench: server exit status %d (128+n: killed by signal n)\n", status);
  }
  return status == 0 && stopped.has_value();
}

double Bench::SloLadder(Generator* gen, double budget_s, std::size_t* rungs) {
  const std::size_t planned = spec_.ladder_rps.size() + std::size(kFineRungs);
  const double rung_s = budget_s / static_cast<double>(planned);
  std::vector<RungPoint> points;
  const auto attempt = [&](double rate) {
    // Capped so a rung holds at most kMaxRungRequests requests in memory.
    const double seconds = std::min(rung_s, kMaxRungRequests / rate);
    const PhaseStats s = RunPhase(gen, "slo_rung", rate, seconds, seconds / kRungSubWindows);
    (*rungs)++;
    RungObservation o;
    o.due = s.attempted;
    o.done_in_time = s.done_in_time;
    o.failed = s.failed;
    std::size_t windows = 0;
    o.get_p50_us = WindowedQuantile(s.get_w, 0.5, &windows);
    o.get_samples = windows > 0 ? s.get_us.size() : 0;
    o.lag_p50_us = WindowedQuantile(s.lag_w, 0.5);
    o.send_blocked = s.send_blocked;
    const RungVerdict v = JudgeRung(o, spec_.p50_limit_us);
    const double achieved = static_cast<double>(s.ok) / s.window_s;
    std::printf("rung offered=%.0f achieved=%.1f get_p50_us=%.1f get_p90_us=%.1f get_p99_us=%.1f "
                "(median of %zu sub-windows, n=%zu) lag_p50_us=%.1f -> %s\n",
                rate, achieved, o.get_p50_us, WindowedQuantile(s.get_w, 0.9),
                WindowedQuantile(s.get_w, 0.99), windows, s.get_us.size(), o.lag_p50_us,
                RungVerdictName(v));
    points.push_back(RungPoint{rate, achieved, o.get_p50_us, v});
    return v;
  };
  // Climb until the first miss, then split the step below it.
  double last_pass_rate = 0;
  double first_fail_rate = 0;
  for (double rate : spec_.ladder_rps) {
    if (attempt(rate) != RungVerdict::kPass) {
      first_fail_rate = rate;
      break;
    }
    last_pass_rate = rate;
  }
  if (last_pass_rate > 0 && first_fail_rate > 0 && !gen->any_dead()) {
    for (double f : kFineRungs) {
      if (last_pass_rate * f >= first_fail_rate || attempt(last_pass_rate * f) != RungVerdict::kPass) {
        break;
      }
    }
  }
  return SloRate(points, spec_.p50_limit_us);
}

void Bench::Serve(bool count_allocs, std::size_t trace_cap, const std::string& trace_out,
                  double budget_s, bool with_ladder, ServerRun* run, bool* ok) {
  Child child;
  Generator gen(spec_, seed_, gen_cpus_);
  if (!StartServer(&child, &gen, count_allocs, trace_cap, trace_out, run)) {
    *ok = false;
    totals_.crashed = true;
    return;
  }
  RunPhase(&gen, "warmup", spec_.fixed_rps, 0.5, 0.5);
  child.Send("MARK");
  const auto m0 = child.Expect("MARK", 10 * kSec);
  const double fixed_share = with_ladder ? kFixedShare : 1.0;
  run->fixed = RunPhase(&gen, "fixed", spec_.fixed_rps, budget_s * fixed_share, kFixedSubWindowS);
  child.Send("MARK");
  const auto m1 = child.Expect("MARK", 10 * kSec);
  if (!m0 || !m1 || gen.any_dead()) {
    *ok = false;
    totals_.crashed = true;
    return;
  }
  run->mark0 = ParseFields(*m0);
  run->mark1 = ParseFields(*m1);
  if (with_ladder) {
    run->slo_rps = SloLadder(&gen, budget_s * (1 - kFixedShare), &run->rungs);
  }
  if (gen.any_dead()) {
    // Post-mortem: the connections' socket queues, the server's handle
    // table, and whether its uthreads still make progress.
    gen.DumpOutstanding();
    child.Send("DUMP");
    child.Expect("DUMPED", 10 * kSec);
    for (int i = 0; i < 2; i++) {
      child.Send("MARK");
      if (const auto mark = child.Expect("MARK", 10 * kSec)) {
        std::fprintf(stderr, "server %s\n", mark->c_str());
      }
      usleep(500'000);
    }
  }
  gen.Disconnect();
  if (gen.any_dead() || !StopServer(&child, run)) {
    *ok = false;
    totals_.crashed = true;
  }

}

void Bench::RunLadderChild(Metrics* m) {
  Child child;
  if (!child.Start({"--role", "ladder", "--workload", spec_.name, "--seed", std::to_string(seed_),
                    "--cpus", CpuList(server_cpus_)})) {
    return;
  }
  while (auto line = child.ReadLine(120 * kSec)) {
    char name[128];
    double median = 0, p10 = 0, p90 = 0, value = 0;
    unsigned long long rep = 0;
    long long s = 0, e = 0;
    int reps = 0;
    if (std::sscanf(line->c_str(), "RUNG %127s median=%lf p10=%lf p90=%lf reps=%d", name, &median,
                    &p10, &p90, &reps) == 5) {
      (*m)[name] = Metric{median, "ns", static_cast<std::uint64_t>(reps)};
      (*m)[std::string(name) + ".spread"] =
          Metric{median > 0 ? (p90 - p10) / median : 0, "1", static_cast<std::uint64_t>(reps)};
    } else if (std::sscanf(line->c_str(), "COUNT %127s %lf", name, &value) == 2) {
      (*m)[name] = Metric{value, "1", 0};
    } else if (std::sscanf(line->c_str(), "SPAN %127s %llu %lld %lld", name, &rep, &s, &e) == 4) {
      spans_.push_back(BenchSpan{std::string("ladder.") + name, rep, s, e});
    }
  }
  if (child.Wait(10 * kSec) != 0) {
    std::fprintf(stderr, "kvbench: ladder child failed\n");
  }
}

void Bench::WriteSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "span,id,start_ns,sent_ns,end_ns,verdict\n");
  for (const BenchSpan& s : spans_) {
    std::fprintf(f, "%s,%llu,%lld,,%lld,\n", s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.start), static_cast<long long>(s.end));
  }
  // One span per request of the traced server: id = connection * 2^40 +
  // sequence; start = due, then sent and reply instants.
  for (const PhaseResult& r : traced_phases_) {
    for (const Pending& p : r.reqs) {
      std::fprintf(f, "request,%llu,%lld,%lld,%lld,%s\n",
                   (static_cast<unsigned long long>(p.conn) << 40) | p.seq,
                   static_cast<long long>(p.due), static_cast<long long>(p.sent),
                   static_cast<long long>(p.done), VerdictName(p.verdict));
    }
  }
  std::fclose(f);
}

std::string Fingerprint(const Fields& ready) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname u{};
  uname(&u);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host cpus=%ld model=\"%s\" kernel=%s compiler=\"%s\" build=%s io_backend=%s "
                "completion=%d",
                sysconf(_SC_NPROCESSORS_ONLN), model.c_str(), u.release, KVBENCH_CXX_ID,
                KVBENCH_BUILD_TYPE,
                ready.count("backend") ? ready.at("backend").c_str() : "unknown",
                static_cast<int>(Num(ready, "completion")));
  return buf;
}

int Bench::Main() {
  std::vector<double> setups;
  bool ok = true;
  const std::int64_t t_start = NowNs();

  if (!trace_mode_) {
    // Set-up several times; the last set-up is the measured server's.
    for (int i = 0; i + 1 < kSetupRepeats && ok; i++) {
      Child child;
      Generator gen(spec_, seed_, gen_cpus_);
      ServerRun run;
      ok = StartServer(&child, &gen, false, 0, "", &run);
      gen.Disconnect();
      ok = ok && StopServer(&child, &run);
      setups.push_back(run.setup_s);
    }
  }

  ServerRun base, traced;
  if (ok && trace_mode_) {
    // Both servers run the fixed-rate point only: the untraced one gives the
    // counters, the traced one a window short enough for its ring to hold.
    RunLadderChild(&metrics_);
    const double left_s = seconds_ - static_cast<double>(NowNs() - t_start) / 1e9;
    const double traced_s = std::clamp(left_s / 2, 2.0, kTracedWindowS);
    Serve(true, 0, "", std::max(2.0, left_s - traced_s), false, &base, &ok);
    if (ok) {
      const auto cap = static_cast<std::size_t>(kTraceEventsPerS * (traced_s + 2));
      keep_request_spans_ = true;
      Serve(true, cap, out_dir_ + "/" + spec_.name + ".sched.csv", traced_s, false, &traced, &ok);
      keep_request_spans_ = false;
    }
  } else if (ok) {
    Serve(false, 0, "", seconds_, !spec_.ladder_rps.empty(), &base, &ok);
    setups.push_back(base.setup_s);
  }

  if (!base.ready.empty()) {
    std::printf("%s\n", Fingerprint(base.ready).c_str());
  }
  std::printf("workload=%s seed=%llu seconds=%.0f trace=%d server_cpus=%s gen_cpus=%s\n",
              spec_.name.c_str(), static_cast<unsigned long long>(seed_), seconds_,
              trace_mode_ ? 1 : 0, CpuList(server_cpus_).c_str(), CpuList(gen_cpus_).c_str());

  // ---- end-to-end (untraced server) ----
  const PhaseStats& fx = base.fixed;
  const Summary get = Summarize(fx.get_us);
  const Summary lag = Summarize(fx.lag_us);
  const double window_s = Delta(base.mark0, base.mark1, "t_ns") / 1e9;
  const double served = Delta(base.mark0, base.mark1, "served");
  const double cpu_us = Delta(base.mark0, base.mark1, "utime_us") +
                        Delta(base.mark0, base.mark1, "stime_us");
  if (!trace_mode_) {
    Put("setup_s", Summarize(setups).p50, "s", setups.size());
  }
  // Per-second GET percentiles of the fixed window, to show within-run spread.
  for (const double q : {0.5, 0.9}) {
    std::printf("fixed window GET p%.0f by second (us):", q * 100);
    for (std::vector<double> w : fx.get_w) {
      std::sort(w.begin(), w.end());
      std::printf(" %.1f", Quantile(w, q));
    }
    std::printf("\n");
  }
  if (base.rungs > 0) {
    Put("slo_rps", base.slo_rps, "req/s", base.rungs);
  }
  Put("get_p50_us", WindowedQuantile(fx.get_w, 0.5), "us", get.n);
  Put("get_p90_us", WindowedQuantile(fx.get_w, 0.9), "us", get.n);
  if (QuantileSupported(get.n, 0.99)) {
    Put("get_p99_us", WindowedQuantile(fx.get_w, 0.99), "us", get.n);
    Put("get_p99_us.whole_window", get.p99, "us", get.n);
  }
  if (!fx.scan_us.empty()) {
    Put("scan_p50_us", WindowedQuantile(fx.scan_w, 0.5), "us", fx.scan_us.size());
  }
  Put("fail_ratio",
      totals_.attempted > 0 ? static_cast<double>(totals_.failed) / totals_.attempted : 1.0, "1",
      totals_.attempted);
  if (served > 0) {
    Put("cpu_us_per_req", cpu_us / served, "us", static_cast<std::uint64_t>(served));
  }
  Put("peak_rss_mb", Num(base.mark1, "maxrss_kb") / 1024.0, "MB");
  if (window_s > 0) {  // 0 on workloads without batch uthreads
    Put("batch_ops_per_s", Delta(base.mark0, base.mark1, "batch_ops") / window_s, "ops/s");
  }
  Put("gen.lag_p50_us", WindowedQuantile(fx.lag_w, 0.5), "us", lag.n);
  Put("gen.lag_p90_us", WindowedQuantile(fx.lag_w, 0.9), "us", lag.n);
  Put("gen.lag_p99_us", lag.p99, "us", lag.n);
  Put("gen.achieved_over_offered",
      fx.window_s > 0 ? static_cast<double>(fx.ok) / fx.window_s / spec_.fixed_rps : 0, "1",
      fx.ok);

  // ---- per-layer (counters of the untraced server, the traced server) ----
  if (trace_mode_ && ok && served > 0 && window_s > 0) {
    const auto d = [&](const char* k) { return Delta(base.mark0, base.mark1, k); };
    const double kreq = served / 1000.0;
    Put("runtime.preemptions_per_s", d("preemptions") / window_s, "1/s");
    const double ticks = d("preemptions") + d("deferrals");
    Put("runtime.preempt_deferral_ratio", ticks > 0 ? d("deferrals") / ticks : 0, "1");
    Put("host_sched.steals_per_kreq", d("host_sched.steals") / kreq, "count");
    Put("host_sched.steal_success_ratio",
        d("host_sched.steal_attempts") > 0
            ? d("host_sched.steal_successes") / d("host_sched.steal_attempts")
            : 0,
        "1");
    Put("host_sched.mailbox_drains_per_kreq", d("host_sched.mailbox_drains") / kreq, "count");
    Put("host_sched.cas_retries_per_kreq", d("host_sched.mailbox_cas_retries") / kreq, "count");
    Put("io_engine.wakeups_per_req", d("io_engine.wakeups") / served, "count");
    Put("io_engine.syscalls_per_req", d("syscalls") / served, "count");
    Put("io_engine.events_per_poll",
        d("io_engine.polls") > 0 ? d("io_engine.events") / d("io_engine.polls") : 0, "count");
    Put("kv.allocs_per_req", d("allocs") / served, "count");
    Put("proc.user_cpu_us_per_req", d("utime_us") / served, "us");
    Put("proc.sys_cpu_us_per_req", d("stime_us") / served, "us");
    Put("proc.vol_csw_per_s", d("nvcsw") / window_s, "1/s");
    Put("proc.invol_csw_per_s", d("nivcsw") / window_s, "1/s");
    Put("kv.server_get_ns.p50", Num(base.stopped, "get_p50_ns"), "ns",
        static_cast<std::uint64_t>(Num(base.stopped, "get_n")));
    Put("kv.server_get_ns.p99", Num(base.stopped, "get_p99_ns"), "ns",
        static_cast<std::uint64_t>(Num(base.stopped, "get_n")));
    Put("kv.server_scan_ns.p50", Num(base.stopped, "scan_p50_ns"), "ns",
        static_cast<std::uint64_t>(Num(base.stopped, "scan_n")));
    const double tget_p50 = WindowedQuantile(traced.fixed.get_w, 0.5);
    Put("runtime.worker_busy_frac", Num(traced.stopped, "busy_frac"), "1");
    Put("trace.dropped_events",
        std::max(0.0, Num(traced.stopped, "trace_recorded") - Num(traced.stopped, "trace_capacity")),
        "count");
    Put("trace.events", Num(traced.stopped, "trace_recorded"), "count");
    Put("trace.get_p50_us", tget_p50, "us", traced.fixed.get_us.size());
    const double base_p50 = metrics_["get_p50_us"].value;
    Put("trace.overhead_frac", base_p50 > 0 ? tget_p50 / base_p50 - 1 : 0, "1");
    WriteSpans(out_dir_ + "/" + spec_.name + ".spans.csv");
  }

  for (const auto& [name, m] : metrics_) {
    std::printf("METRIC %s %.9g %s %llu\n", name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  for (const auto& [verdict, n] : totals_.failures) {
    std::printf("failures %s=%llu\n", verdict.c_str(), static_cast<unsigned long long>(n));
  }
  const double lag_p50 = WindowedQuantile(fx.lag_w, 0.5);
  if (ok && (lag_p50 > kMaxGeneratorLagUs || !QuantileSupported(lag.n, 0.5))) {
    std::printf("INVALID: generator lag p50 %.1f us over %zu sends (limit %.0f us)\n", lag_p50,
                lag.n, kMaxGeneratorLagUs);
    return 3;
  }
  const bool correct = ok && !totals_.crashed && totals_.failed == 0;
  std::printf("RESULT correct=%d attempted=%llu failed=%llu\n", correct ? 1 : 0,
              static_cast<unsigned long long>(totals_.attempted),
              static_cast<unsigned long long>(totals_.failed));
  return ok ? 0 : 1;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; c++) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  return cpus;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) {
  using namespace kvbench;
  const Args args = ParseArgs(argc, argv);
  const std::string role = ArgOr(args, "role", "");
  if (role == "server") {
    return ServerMain(args);
  }
  if (role == "ladder") {
    return LadderMain(args);
  }
  // A server that died mid-run must show up as failures, not kill us on
  // the next command written to its stdin.
  signal(SIGPIPE, SIG_IGN);
  const WorkloadSpec* spec = FindWorkload(ArgOr(args, "workload", ""));
  if (spec == nullptr) {
    std::fprintf(stderr, "usage: kvbench --workload <workload> --seed N "
                         "--seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    return 2;
  }
  g_exe.assign(exe, static_cast<std::size_t>(n));

  // Server on the lower half of the CPUs, generator on the upper half.
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) {
    std::fprintf(stderr, "kvbench: needs at least 2 CPUs\n");
    return 2;
  }
  const std::size_t half = cpus.size() >= 4 ? 2 : 1;
  std::vector<int> server_cpus(cpus.begin(), cpus.begin() + static_cast<long>(half));
  std::vector<int> gen_cpus(cpus.begin() + static_cast<long>(half),
                            cpus.begin() + static_cast<long>(std::min(cpus.size(), 2 * half)));
  if (gen_cpus.size() < 2) {
    gen_cpus.push_back(gen_cpus.back());
  }
  std::string gen_list;
  for (int c : gen_cpus) {
    gen_list += (gen_list.empty() ? "" : ",") + std::to_string(c);
  }
  PinToCpus(gen_list);

  Bench bench(*spec, std::stoull(ArgOr(args, "seed", "1")),
              std::stod(ArgOr(args, "seconds", "10")), ArgOr(args, "trace", "0") == "1",
              ArgOr(args, "out", "."), server_cpus, gen_cpus);
  return bench.Main();
}
