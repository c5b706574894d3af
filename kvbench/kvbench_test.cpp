// Self-tests of the benchmark's own logic: the reply verifier, percentile
// and sample-count math, and the SLO rung rule. run.py runs this before every
// benchmark run and refuses to measure if any check fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "kvbench/workload.h"

namespace kvbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, __LINE__, #cond); \
      g_failures++;                                                      \
    }                                                                    \
  } while (0)

std::string Frame(const std::string& payload) {
  std::string out;
  AppendFrame(&out, payload);
  return out;
}

// Sorted key order of the preload: user0, user1, user10, user100, ...
std::string ScanReply(const std::vector<int>& keys) {
  std::string r;
  for (int k : keys) {
    r += KeyName(k) + "=" + PreloadValue(k) + ";";
  }
  return r;
}

void TestRequestsAreSeeded() {
  const WorkloadSpec& w = *FindWorkload("kv_get");
  EXPECT(MakeRequest(w, 7, 1, 42).text == MakeRequest(w, 7, 1, 42).text);
  int differ = 0;
  for (int i = 0; i < 64; i++) {
    differ += MakeRequest(w, 7, 1, i).text != MakeRequest(w, 8, 1, i).text;
  }
  EXPECT(differ > 32);
  EXPECT(PoissonGapNs(7, 1, 0, 5, 1000.0) == PoissonGapNs(7, 1, 0, 5, 1000.0));
  // Mean gap of a Poisson stream ~ 1/rate.
  double sum = 0;
  for (int k = 0; k < 20000; k++) {
    sum += PoissonGapNs(3, 1, 0, k, 1e5);
  }
  const double mean = sum / 20000;
  EXPECT(mean > 9.5e3 && mean < 10.5e3);
  // kv_get's SET share is about 0.2%.
  int sets = 0;
  for (int i = 0; i < 100000; i++) {
    sets += MakeRequest(w, 11, i % 4, i).kind == OpKind::kSet;
  }
  EXPECT(sets > 120 && sets < 300);
}

void TestGetVerification() {
  const WorkloadSpec& w = *FindWorkload("kv_scan_mix");
  std::uint64_t sent_upto = 0;
  ReplyVerifier v(w, 5, [&](int, std::uint64_t seq) { return seq < sent_upto; });
  // Find a GET and a SET to the same key on connection 0.
  Request get, set;
  std::uint64_t set_seq = 0;
  bool found = false;
  for (std::uint64_t s = 0; s < 200000 && !found; s++) {
    const Request r = MakeRequest(w, 5, 0, s);
    if (r.kind == OpKind::kSet) {
      set = r;
      set_seq = s;
      for (std::uint64_t t = 0; t < 200000; t++) {
        const Request g = MakeRequest(w, 5, 1, t);
        if (g.kind == OpKind::kGet && g.key == r.key) {
          get = g;
          found = true;
          break;
        }
      }
    }
  }
  EXPECT(found);
  EXPECT(v.Check(get, "VALUE " + PreloadValue(get.key)) == Verdict::kOk);
  // An injected wrong GET value is a failure.
  EXPECT(v.Check(get, "VALUE " + PreloadValue(get.key + 1)) == Verdict::kWrongValue);
  EXPECT(v.Check(get, "VALUE garbage") == Verdict::kWrongValue);
  EXPECT(v.Check(get, "NOT_FOUND") == Verdict::kWrongReply);
  EXPECT(v.Check(get, "ERROR") == Verdict::kWrongReply);
  // A SET value is valid only once that SET was sent, and only for its key.
  const std::string written = "VALUE " + SetValue(0, set_seq);
  EXPECT(v.Check(get, written) == Verdict::kWrongValue);
  sent_upto = set_seq + 1;
  EXPECT(v.Check(get, written) == Verdict::kOk);
  Request other = get;
  other.key = (get.key + 1) % kPreloadKeys;
  EXPECT(v.Check(other, written) == Verdict::kWrongValue);
  EXPECT(v.Check(set, "STORED") == Verdict::kOk);
  EXPECT(v.Check(set, "ERROR") == Verdict::kWrongReply);
}

void TestScanVerification() {
  const WorkloadSpec& w = *FindWorkload("kv_scan_mix");
  ReplyVerifier v(w, 5, [](int, std::uint64_t) { return false; });
  Request scan;
  scan.kind = OpKind::kScan;
  scan.key = 9998;  // "user9998" sorts after user9997..., before user9999
  scan.scan_limit = 2;
  EXPECT(v.Check(scan, ScanReply({9998, 9999})) == Verdict::kOk);
  // Out of global key order.
  EXPECT(v.Check(scan, ScanReply({9999, 9998})) == Verdict::kWrongScan);
  // Limit applied per stripe: too many pairs.
  scan.key = 1;  // user1 < user10 < user100 < user1000 < user1001 ...
  scan.scan_limit = 3;
  EXPECT(v.Check(scan, ScanReply({1, 10, 100})) == Verdict::kOk);
  EXPECT(v.Check(scan, ScanReply({1, 10, 100, 1000})) == Verdict::kWrongScan);
  EXPECT(v.Check(scan, ScanReply({1, 10})) == Verdict::kWrongScan);
  EXPECT(v.Check(scan, ScanReply({1, 100, 10})) == Verdict::kWrongScan);
  EXPECT(v.Check(scan, "EMPTY") == Verdict::kWrongScan);
  // The last key: exactly min(limit, #keys >= start) = 1 pair.
  scan.key = 9999;
  scan.scan_limit = 50;
  EXPECT(v.Check(scan, ScanReply({9999})) == Verdict::kOk);
  EXPECT(ReplyVerifier::ScanPairs(ScanReply({1, 10, 100})) == 3);
  EXPECT(ReplyVerifier::ScanPairs("EMPTY") == 0);
}

void TestFraming() {
  std::string buf = Frame("VALUE a") + Frame("STORED");
  std::size_t pos = 0;
  std::string_view p;
  EXPECT(NextFrame(buf, &pos, &p) == 1 && p == "VALUE a");
  EXPECT(NextFrame(buf, &pos, &p) == 1 && p == "STORED");
  EXPECT(NextFrame(buf, &pos, &p) == 0);
  // A dropped reply leaves the stream short: the request stays unanswered
  // (the generator then records it as kTimeout).
  std::string partial = Frame("VALUE a").substr(0, 10);
  pos = 0;
  EXPECT(NextFrame(partial, &pos, &p) == 0 && pos == 0);
  std::string bad = "XXXXXXXXXXXX";
  pos = 0;
  EXPECT(NextFrame(bad, &pos, &p) == -1);
}

void TestQuantiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; i++) {
    v.push_back(i);
  }
  EXPECT(Quantile(v, 0.5) == 50);
  EXPECT(Quantile(v, 0.9) == 90);
  EXPECT(Quantile(v, 0.99) == 99);
  EXPECT(Quantile(v, 1.0) == 100);
  EXPECT(Quantile(v, 0.0) == 1);
  EXPECT(Quantile({}, 0.5) == 0);
  const Summary s = Summarize({5, 1, 3});
  EXPECT(s.n == 3 && s.p50 == 3 && s.p99 == 5 && s.p10 == 1);
  // Windowed: a stalled sub-window does not move the median of per-window
  // p50s; windows too small for the quantile are skipped.
  std::vector<std::vector<double>> wins(5);
  for (int w = 0; w < 5; w++) {
    for (int i = 1; i <= 100; i++) {
      wins[w].push_back(w == 2 ? 1000.0 * i : i + w);
    }
  }
  wins.push_back({7.0});
  std::size_t used = 0;
  EXPECT(WindowedQuantile(wins, 0.5, &used) == 53 && used == 5);
  EXPECT(WindowedQuantile(wins, 0.99, &used) == 0 && used == 0);
  EXPECT(WindowedQuantile(wins, 0.9, &used) == 93 && used == 5);
  // At least ten samples beyond the percentile.
  EXPECT(QuantileSupported(1000, 0.99));
  EXPECT(!QuantileSupported(999, 0.99));
  EXPECT(QuantileSupported(100, 0.9));
  EXPECT(!QuantileSupported(99, 0.9));
}

void TestRungRule() {
  RungObservation r;
  r.due = 10000;
  r.done_in_time = 10000;
  r.get_p50_us = 100;
  r.get_samples = 9980;
  r.lag_p50_us = 5;
  EXPECT(JudgeRung(r, 500) == RungVerdict::kPass);
  r.get_p50_us = 600;
  EXPECT(JudgeRung(r, 500) == RungVerdict::kLatency);
  r.get_p50_us = 100;
  // Growing backlog: achieved below offered beyond the tolerance.
  r.done_in_time = 9800;
  EXPECT(JudgeRung(r, 500) == RungVerdict::kBacklog);
  r.done_in_time = 9950;
  EXPECT(JudgeRung(r, 500) == RungVerdict::kPass);
  // A failed request misses the limit.
  r.failed = 1;
  EXPECT(JudgeRung(r, 500) == RungVerdict::kFailures);
  r.failed = 0;
  r.lag_p50_us = kMaxGeneratorLagUs + 1;
  EXPECT(JudgeRung(r, 500) == RungVerdict::kGeneratorBehind);
  r.send_blocked = true;  // the server stopped reading: its backlog
  EXPECT(JudgeRung(r, 500) == RungVerdict::kBacklog);
  r.send_blocked = false;
  r.lag_p50_us = 5;
  r.get_samples = 19;  // too few samples to support p50
  EXPECT(JudgeRung(r, 500) == RungVerdict::kLatency);
}

void TestSloRate() {
  using V = RungVerdict;
  // Interpolated between the highest pass and the latency miss above it.
  std::vector<RungPoint> r = {{100e3, 100e3, 100, V::kPass}, {200e3, 200e3, 400, V::kLatency}};
  EXPECT(std::abs(SloRate(r, 200) - 141421.356) < 1);
  // A backlog miss above interpolates the same way; a generator or failure
  // miss leaves the pass itself.
  r[1].verdict = V::kBacklog;
  EXPECT(std::abs(SloRate(r, 200) - 141421.356) < 1);
  r[1].verdict = V::kGeneratorBehind;
  EXPECT(SloRate(r, 200) == 100e3);
  r[1].verdict = V::kFailures;
  EXPECT(SloRate(r, 200) == 100e3);
  // An isolated latency miss below a later pass does not cap the result.
  r = {{100e3, 100e3, 100, V::kPass}, {140e3, 140e3, 300, V::kLatency},
       {200e3, 199e3, 150, V::kPass}, {280e3, 281e3, 900, V::kGeneratorBehind}};
  EXPECT(SloRate(r, 200) == 199e3);
  r.pop_back();
  EXPECT(SloRate(r, 200) == 199e3);
  EXPECT(SloRate({{100e3, 100e3, 900, V::kLatency}}, 200) == 0);
}

}  // namespace
}  // namespace kvbench

int main() {
  using namespace kvbench;
  TestRequestsAreSeeded();
  TestGetVerification();
  TestScanVerification();
  TestFraming();
  TestQuantiles();
  TestRungRule();
  TestSloRate();
  if (g_failures > 0) {
    std::fprintf(stderr, "kvbench_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("kvbench_test: all checks passed\n");
  return 0;
}
