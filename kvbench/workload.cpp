#include "kvbench/workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ctime>

namespace kvbench {

std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

namespace {

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> all;

  // Memcached-USR-like: 99.8% GET, 0.2% SET over the preloaded keys, on the
  // runtime defaults (lock-free work stealing, no preemption timer).
  WorkloadSpec get;
  get.name = "kv_get";
  for (ConnMix& c : get.conns) {
    c = ConnMix{0.25, 0.002, false};
  }
  get.fixed_rps = 30'000;
  get.ladder_rps = {100'000, 140'000, 200'000, 280'000, 400'000, 560'000,
                    800'000, 1'130'000, 1'600'000, 2'260'000};
  get.p50_limit_us = 100;
  all.push_back(get);

  // RocksDB-like dispersive mix: three connections send GETs with 10% SETs,
  // the fourth sends only SCANs — a few percent of requests carrying about
  // half of the server's busy time. Preemption timer on.
  WorkloadSpec scan;
  scan.name = "kv_scan_mix";
  constexpr double kScanShare = 0.03;
  for (int i = 0; i < kConnections - 1; i++) {
    scan.conns[i] = ConnMix{(1.0 - kScanShare) / (kConnections - 1), 0.10, false};
  }
  scan.conns[kConnections - 1] = ConnMix{kScanShare, 0.0, true};
  scan.scan_limit_min = 50;
  scan.scan_limit_max = 100;
  scan.preempt_period_us = 50;
  scan.fixed_rps = 10'000;
  scan.ladder_rps = {10'000, 14'000, 20'000, 28'000, 40'000, 56'000, 80'000, 113'000, 160'000};
  scan.p50_limit_us = 1000;
  all.push_back(scan);

  // kv_get traffic at a low fixed rate sharing both workers with batch
  // uthreads that yield after every compute unit, on the runtime defaults
  // (no preemption timer): co-location through the runqueue and Yield path.
  WorkloadSpec coop = get;
  coop.name = "kv_colocated_yield";
  coop.batch_uthreads = 2;
  coop.batch_yields = true;
  coop.fixed_rps = 10'000;
  coop.ladder_rps.clear();
  all.push_back(coop);

  // As above with batch uthreads that never yield and the preemption timer
  // on (paper Fig. 7b/7c). Not scored: on the seed its server crashes or
  // hangs in some runs (NOTES.md).
  WorkloadSpec colo = get;
  colo.name = "kv_colocated";
  colo.preempt_period_us = 50;
  colo.batch_uthreads = 2;
  colo.fixed_rps = 10'000;
  colo.ladder_rps.clear();
  all.push_back(colo);

  // kv_colocated driven up its rate ladder into saturation. Not scored: it
  // reproduces the stranded-connection and crash defects (NOTES.md).
  WorkloadSpec overload = colo;
  overload.name = "kv_colocated_overload";
  overload.ladder_rps = {50'000, 70'000, 100'000, 140'000, 200'000, 280'000,
                         400'000, 560'000, 800'000, 1'130'000, 1'600'000};
  overload.p50_limit_us = 500;
  all.push_back(overload);
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  static const std::vector<WorkloadSpec> all = BuildWorkloads();
  for (const WorkloadSpec& w : all) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Request streams
// ---------------------------------------------------------------------------

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const std::uint64_t h = Mix64(Mix64(Mix64(Mix64(seed) ^ a) ^ b) ^ c);
  return (static_cast<double>(h >> 11) + 1.0) * (1.0 / 9007199254740992.0);
}

std::string KeyName(int key) { return "user" + std::to_string(key); }
std::string PreloadValue(int key) { return "profile-" + std::to_string(key); }
std::string SetValue(int conn, std::uint64_t seq) {
  return "w" + std::to_string(conn) + "-" + std::to_string(seq);
}

Request MakeRequest(const WorkloadSpec& spec, std::uint64_t seed, int conn, std::uint64_t seq) {
  const ConnMix& mix = spec.conns[conn];
  Request r;
  const auto pick_key = [&](std::uint64_t salt) {
    const int k = static_cast<int>(Uniform(seed, 1000 + salt, conn, seq) * kPreloadKeys);
    return std::min(k, kPreloadKeys - 1);
  };
  r.key = pick_key(0);
  if (mix.scans) {
    r.kind = OpKind::kScan;
    const int span = spec.scan_limit_max - spec.scan_limit_min + 1;
    r.scan_limit = spec.scan_limit_min +
                   std::min(span - 1, static_cast<int>(Uniform(seed, 1001, conn, seq) * span));
    r.text = "SCAN " + KeyName(r.key) + " " + std::to_string(r.scan_limit);
  } else if (Uniform(seed, 1002, conn, seq) <= mix.set_frac) {
    r.kind = OpKind::kSet;
    r.text = "SET " + KeyName(r.key) + " " + SetValue(conn, seq);
  } else {
    r.kind = OpKind::kGet;
    r.text = "GET " + KeyName(r.key);
  }
  return r;
}

double PoissonGapNs(std::uint64_t seed, std::uint64_t phase, int conn, std::uint64_t k,
                    double rate_per_s) {
  return -std::log(Uniform(seed, 2000 + phase, conn, k)) * 1e9 / rate_per_s;
}

void AppendFrame(std::string* out, std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const char hdr[8] = {0x53, 0x4b, 1, 0,
                       static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                       static_cast<char>(len >> 8), static_cast<char>(len)};
  out->append(hdr, sizeof(hdr));
  out->append(payload);
}

int NextFrame(const std::string& buf, std::size_t* pos, std::string_view* payload) {
  const std::size_t avail = buf.size() - *pos;
  if (avail < 8) {
    return 0;
  }
  const auto* h = reinterpret_cast<const unsigned char*>(buf.data() + *pos);
  if (h[0] != 0x53 || h[1] != 0x4b || h[2] != 1) {
    return -1;
  }
  const std::uint32_t len = (std::uint32_t{h[4]} << 24) | (std::uint32_t{h[5]} << 16) |
                            (std::uint32_t{h[6]} << 8) | std::uint32_t{h[7]};
  if (len > (1u << 20)) {
    return -1;
  }
  if (avail - 8 < len) {
    return 0;
  }
  *payload = std::string_view(buf.data() + *pos + 8, len);
  *pos += 8 + len;
  return 1;
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kWrongValue: return "wrong_value";
    case Verdict::kWrongReply: return "wrong_reply";
    case Verdict::kWrongScan: return "wrong_scan";
    case Verdict::kTimeout: return "timeout";
    case Verdict::kConnLost: return "conn_lost";
  }
  return "?";
}

ReplyVerifier::ReplyVerifier(const WorkloadSpec& spec, std::uint64_t seed,
                             std::function<bool(int, std::uint64_t)> sent)
    : spec_(spec), seed_(seed), sent_(std::move(sent)) {
  sorted_keys_.resize(kPreloadKeys);
  for (int k = 0; k < kPreloadKeys; k++) {
    sorted_keys_[k] = k;
  }
  std::sort(sorted_keys_.begin(), sorted_keys_.end(),
            [](int a, int b) { return KeyName(a) < KeyName(b); });
  rank_.resize(kPreloadKeys);
  for (int i = 0; i < kPreloadKeys; i++) {
    rank_[sorted_keys_[i]] = i;
  }
}

namespace {

// Parses a non-negative decimal with no sign or leading junk; -1 on failure.
std::int64_t ParseIndex(std::string_view s) {
  std::int64_t v = -1;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || s.empty() || v < 0) {
    return -1;
  }
  return v;
}

// "user<k>" -> k, or -1 when the text is not a preloaded key.
int KeyIndex(std::string_view key) {
  if (key.substr(0, 4) != "user") {
    return -1;
  }
  const std::int64_t k = ParseIndex(key.substr(4));
  return (k >= 0 && k < kPreloadKeys && KeyName(static_cast<int>(k)) == key)
             ? static_cast<int>(k)
             : -1;
}

}  // namespace

bool ReplyVerifier::ValueValid(int key, std::string_view value) const {
  if (value == PreloadValue(key)) {
    return true;
  }
  // "w<conn>-<seq>": must be a SET of this very key that was already sent.
  if (value.size() < 4 || value[0] != 'w') {
    return false;
  }
  const std::size_t dash = value.find('-');
  if (dash == std::string_view::npos) {
    return false;
  }
  const std::int64_t conn = ParseIndex(value.substr(1, dash - 1));
  const std::int64_t seq = ParseIndex(value.substr(dash + 1));
  if (conn < 0 || conn >= kConnections || seq < 0) {
    return false;
  }
  const Request origin =
      MakeRequest(spec_, seed_, static_cast<int>(conn), static_cast<std::uint64_t>(seq));
  return origin.kind == OpKind::kSet && origin.key == key &&
         sent_(static_cast<int>(conn), static_cast<std::uint64_t>(seq));
}

int ReplyVerifier::ScanPairs(std::string_view reply) {
  if (reply == "EMPTY") {
    return 0;
  }
  return static_cast<int>(std::count(reply.begin(), reply.end(), ';'));
}

Verdict ReplyVerifier::Check(const Request& req, std::string_view reply) const {
  switch (req.kind) {
    case OpKind::kGet:
      if (reply.substr(0, 6) != "VALUE ") {
        return Verdict::kWrongReply;
      }
      return ValueValid(req.key, reply.substr(6)) ? Verdict::kOk : Verdict::kWrongValue;
    case OpKind::kSet:
      return reply == "STORED" ? Verdict::kOk : Verdict::kWrongReply;
    case OpKind::kScan: {
      const int first = rank_[req.key];
      const int expect = std::min(req.scan_limit, kPreloadKeys - first);
      if (expect == 0) {
        return reply == "EMPTY" ? Verdict::kOk : Verdict::kWrongScan;
      }
      std::size_t pos = 0;
      for (int i = 0; i < expect; i++) {
        const std::size_t semi = reply.find(';', pos);
        if (semi == std::string_view::npos) {
          return Verdict::kWrongScan;
        }
        const std::string_view pair = reply.substr(pos, semi - pos);
        const std::size_t eq = pair.find('=');
        if (eq == std::string_view::npos) {
          return Verdict::kWrongScan;
        }
        const int key = sorted_keys_[first + i];
        if (KeyIndex(pair.substr(0, eq)) != key || !ValueValid(key, pair.substr(eq + 1))) {
          return Verdict::kWrongScan;
        }
        pos = semi + 1;
      }
      return pos == reply.size() ? Verdict::kOk : Verdict::kWrongScan;
    }
  }
  return Verdict::kWrongReply;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

bool QuantileSupported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

double WindowedQuantile(const std::vector<std::vector<double>>& windows, double q,
                        std::size_t* used) {
  std::vector<double> per_window;
  for (std::vector<double> w : windows) {
    if (QuantileSupported(w.size(), q)) {
      std::sort(w.begin(), w.end());
      per_window.push_back(Quantile(w, q));
    }
  }
  if (used != nullptr) {
    *used = per_window.size();
  }
  std::sort(per_window.begin(), per_window.end());
  return Quantile(per_window, 0.5);
}

Summary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = values.size();
  s.p10 = Quantile(values, 0.10);
  s.p50 = Quantile(values, 0.50);
  s.p90 = Quantile(values, 0.90);
  s.p99 = Quantile(values, 0.99);
  return s;
}

const char* RungVerdictName(RungVerdict v) {
  switch (v) {
    case RungVerdict::kPass: return "pass";
    case RungVerdict::kLatency: return "p50_over_limit";
    case RungVerdict::kBacklog: return "backlog";
    case RungVerdict::kFailures: return "failures";
    case RungVerdict::kGeneratorBehind: return "generator_behind";
  }
  return "?";
}

RungVerdict JudgeRung(const RungObservation& r, double p50_limit_us) {
  if (r.failed > 0) {
    return RungVerdict::kFailures;
  }
  if (r.lag_p50_us > kMaxGeneratorLagUs) {
    return r.send_blocked ? RungVerdict::kBacklog : RungVerdict::kGeneratorBehind;
  }
  if (r.due == 0 ||
      static_cast<double>(r.done_in_time) < (1.0 - kBacklogTolerance) * static_cast<double>(r.due)) {
    return RungVerdict::kBacklog;
  }
  if (!QuantileSupported(r.get_samples, 0.5) || r.get_p50_us > p50_limit_us) {
    return RungVerdict::kLatency;
  }
  return RungVerdict::kPass;
}

double SloRate(std::vector<RungPoint> rungs, double p50_limit_us) {
  std::sort(rungs.begin(), rungs.end(),
            [](const RungPoint& a, const RungPoint& b) { return a.offered_rps < b.offered_rps; });
  const RungPoint* pass = nullptr;
  const RungPoint* fail = nullptr;
  for (const RungPoint& r : rungs) {
    if (r.verdict == RungVerdict::kPass) {
      pass = &r;
      fail = nullptr;
    } else if (pass != nullptr && fail == nullptr) {
      fail = &r;
    }
  }
  if (pass == nullptr) {
    return 0;
  }
  const bool latency_or_backlog =
      fail != nullptr && (fail->verdict == RungVerdict::kLatency || fail->verdict == RungVerdict::kBacklog);
  if (!latency_or_backlog || pass->get_p50_us <= 0 ||
      fail->get_p50_us <= p50_limit_us || pass->get_p50_us >= p50_limit_us) {
    return pass->achieved_rps;
  }
  const double frac = std::log(p50_limit_us / pass->get_p50_us) /
                      std::log(fail->get_p50_us / pass->get_p50_us);
  return pass->achieved_rps * std::pow(fail->achieved_rps / pass->achieved_rps, frac);
}

}  // namespace kvbench
