// Shared pieces of the KV serving benchmark: workload definitions, the
// seeded request generator, the reply verifier (reference model), and the
// statistics rules (percentiles, the SLO rung rule). Everything here is pure
// and deterministic so kvbench_test.cpp can check it without a server.
#ifndef KVBENCH_WORKLOAD_H_
#define KVBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace kvbench {

std::int64_t NowNs();  // CLOCK_MONOTONIC, shared by every process of a run

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t { kGet = 0, kSet = 1, kScan = 2 };

inline constexpr int kConnections = 4;       // generator TCP connections
inline constexpr int kPreloadKeys = 10'000;  // KvServerNetOptions default

// What one generator connection sends: a GET/SET mix or SCANs only.
struct ConnMix {
  double rate_share = 0.25;  // share of the workload's offered rate
  double set_frac = 0.0;     // SET share of this connection's requests
  bool scans = false;        // this connection sends SCAN only
};

struct WorkloadSpec {
  std::string name;
  ConnMix conns[kConnections];
  int scan_limit_min = 0;
  int scan_limit_max = 0;
  // Server runtime shape.
  int workers = 2;
  std::int64_t preempt_period_us = 0;  // 0: runtime default (no timer)
  int batch_uthreads = 0;              // benchmark-owned compute uthreads
  bool batch_yields = false;           // Yield after each unit; else never yield
  // Load shape.
  double fixed_rps = 0;             // the fixed-rate point
  // The slo_rps ladder, ascending in steps of about sqrt(2); fine rungs at
  // 1.1x, 1.2x and 1.3x the highest pass then split the step above it.
  // Empty: the workload is its fixed-rate point only.
  std::vector<double> ladder_rps;
  double p50_limit_us = 0;  // GET p50 limit of the SLO (NOTES.md: why p50)
};

// Known workloads: kv_get, kv_colocated_yield, kv_scan_mix, kv_colocated,
// kv_colocated_overload. Null if unknown.
const WorkloadSpec* FindWorkload(std::string_view name);

// ---------------------------------------------------------------------------
// Seeded request streams
// ---------------------------------------------------------------------------

std::uint64_t Mix64(std::uint64_t x);  // splitmix64 finalizer
// Uniform in (0, 1], from a counter-based stream: the same (seed, a, b, c)
// always gives the same value.
double Uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c);

// One generated request. Requests are a pure function of
// (workload, seed, connection, seq), so the verifier can regenerate any
// request a reply claims to come from.
struct Request {
  OpKind kind = OpKind::kGet;
  int key = 0;        // GET/SET key index, SCAN start key index
  int scan_limit = 0;
  std::string text;   // the KV protocol payload
};

std::string KeyName(int key);            // "user<k>" (the server's preload)
std::string PreloadValue(int key);       // "profile-<k>"
std::string SetValue(int conn, std::uint64_t seq);  // "w<conn>-<seq>"
Request MakeRequest(const WorkloadSpec& spec, std::uint64_t seed, int conn, std::uint64_t seq);

// Exponential inter-arrival gap (ns) of a Poisson process of `rate_per_s`,
// drawn from stream (seed, phase, conn, k).
double PoissonGapNs(std::uint64_t seed, std::uint64_t phase, int conn, std::uint64_t k,
                    double rate_per_s);

// Appends the 8-byte frame header and payload (written here, independently of
// the server's codec, so the check does not trust the code under test).
void AppendFrame(std::string* out, std::string_view payload);
// Extracts the next complete frame payload of `buf` at *pos and advances
// *pos past it: 1 = frame, 0 = need more bytes, -1 = malformed header.
int NextFrame(const std::string& buf, std::size_t* pos, std::string_view* payload);

// ---------------------------------------------------------------------------
// Reply verification against a reference model
// ---------------------------------------------------------------------------

enum class Verdict : std::uint8_t {
  kOk = 0,
  kWrongValue,   // GET value neither the preload nor a SET this generator sent
  kWrongReply,   // wrong reply shape: ERROR, NOT_FOUND, SET not STORED, ...
  kWrongScan,    // SCAN pair count, order, keys or values off the model
  kTimeout,      // no reply within the deadline (includes dropped replies)
  kConnLost,     // reset/refused connection or server crash
};
const char* VerdictName(Verdict v);

// The generator is the only writer, so the valid replies are known exactly:
//   GET  -> "VALUE <preload>" or "VALUE <a value this generator SET for the
//           key>", the SET identified by the (conn, seq) inside the value;
//   SET  -> "STORED";
//   SCAN -> exactly min(limit, #keys >= start) pairs "k=v;" in global key
//           order, each value valid for its key as above.
class ReplyVerifier {
 public:
  // `sent(conn, seq)` answers whether request (conn, seq) has been handed to
  // the socket; it must be safe to call from any generator thread.
  ReplyVerifier(const WorkloadSpec& spec, std::uint64_t seed,
                std::function<bool(int, std::uint64_t)> sent);

  Verdict Check(const Request& req, std::string_view reply) const;
  // Number of "k=v;" pairs in a SCAN reply (0 for EMPTY or malformed).
  static int ScanPairs(std::string_view reply);

 private:
  bool ValueValid(int key, std::string_view value) const;

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::function<bool(int, std::uint64_t)> sent_;
  std::vector<int> sorted_keys_;  // key indices in lexicographic key order
  std::vector<int> rank_;         // key index -> position in sorted_keys_
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Nearest-rank quantile of an ascending-sorted sample: the smallest value
// with at least q*n samples at or below it. 0 for an empty sample.
double Quantile(const std::vector<double>& sorted, double q);

// Whether the sample supports quantile q under the "at least ten samples
// beyond it" rule: n * (1 - q) >= 10.
bool QuantileSupported(std::size_t n, double q);

// Median, over consecutive sub-windows of a phase, of each sub-window's
// quantile q. Sub-windows whose sample does not support q are skipped;
// *used (optional) receives how many were used. 0 when none qualifies.
// A sub-window hit by a host stall (NOTES.md) then moves the result only
// if stalls hit half of the sub-windows.
double WindowedQuantile(const std::vector<std::vector<double>>& windows, double q,
                        std::size_t* used = nullptr);

struct Summary {
  std::size_t n = 0;
  double p10 = 0, p50 = 0, p90 = 0, p99 = 0;
};
Summary Summarize(std::vector<double> values);

// One SLO ladder rung, as observed by the generator.
struct RungObservation {
  std::uint64_t due = 0;           // requests due inside the window
  std::uint64_t done_in_time = 0;  // of those, answered by window end + grace
  std::uint64_t failed = 0;
  double get_p50_us = 0;           // over successful GETs
  std::size_t get_samples = 0;
  double lag_p50_us = 0;           // generator send lag (sent - due)
  // The server's socket buffers were full at some send: lag then comes from
  // the server not reading, not from the generator.
  bool send_blocked = false;
};

enum class RungVerdict { kPass, kLatency, kBacklog, kFailures, kGeneratorBehind };
inline constexpr double kFineRungs[] = {1.1, 1.2, 1.3};
const char* RungVerdictName(RungVerdict v);

inline constexpr double kBacklogTolerance = 0.01;   // achieved >= 99% of offered
// Median send lag of a generator that keeps its schedule. The median, not a
// tail: the host's vCPUs lose ~2% of their time in 30 us..10 ms gaps
// (NOTES.md), which sets the lag tail however fast the generator is, while a
// generator short of capacity falls behind on every send.
inline constexpr double kMaxGeneratorLagUs = 200.0;

// The rung rule: no failures, the generator kept its schedule, achieved
// throughput within tolerance of offered (no growing backlog), and GET p50
// within the limit on a sample large enough to support p50. Send lag with
// blocked sends is the server's backlog, not the generator's.
RungVerdict JudgeRung(const RungObservation& r, double p50_limit_us);

// One rung as run, for SloRate.
struct RungPoint {
  double offered_rps = 0;
  double achieved_rps = 0;
  double get_p50_us = 0;
  RungVerdict verdict = RungVerdict::kPass;
};

// slo_rps from the rungs run: the achieved rate of the highest passing rung
// P, moved toward the next rung F above it when F missed on latency or
// backlog with its GET p50 over the limit — log-log interpolation of GET p50
// between P and F to the limit. The interpolation turns the ladder's
// discrete steps into a continuous estimate. 0 when no rung passed.
double SloRate(std::vector<RungPoint> rungs, double p50_limit_us);

}  // namespace kvbench

#endif  // KVBENCH_WORKLOAD_H_
