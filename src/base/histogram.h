// Log-bucketed latency histogram with percentile queries.
//
// HdrHistogram-style layout: values are bucketed with a fixed number of
// sub-buckets per power-of-two range, giving a bounded relative error over a
// huge dynamic range with O(1) recording. With kSubBucketBits = 7 a bucketed
// value lands in sub-bucket [64, 128) of its range, so the bucket upper
// bound overshoots the true value by at most 1/64 (~1.6%); Percentile()
// additionally clamps to the exact tracked [min, max]. This is what every
// benchmark uses to report p50/p99/p99.9 wakeup latencies and slowdowns.
//
// Storage grows on demand: the bucket vector is only as long as the highest
// bucket index recorded or merged so far, not all 57 x 128 buckets (58 KB)
// up front, so a histogram of microsecond service times costs a few KB.
// Bucket boundaries never move, so every query answers exactly as it would
// over the full array.
//
// Single writer, no concurrent readers: nothing here is synchronized. A
// Record() or Merge() that grows the vector reallocates it, so a read racing
// a write is a use-after-free, not merely a torn value. Shared recorders
// serialize through their own lock (the kv server's per-lane spinlocks), and
// readers such as MetricsRegistry::Snapshot() look only once recording has
// quiesced.
#ifndef SRC_BASE_HISTOGRAM_H_
#define SRC_BASE_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace skyloft {

class LatencyHistogram {
 public:
  LatencyHistogram();

  // Records one sample. Negative samples are clamped to zero.
  void Record(std::int64_t value);

  // Value at quantile q in [0, 1]; returns kEmptySentinel (0) when empty —
  // never divides or scans in that case. The returned value is the upper
  // bound of the bucket containing the quantile (within 1/64 above the true
  // sample), clamped to the tracked [min, max]; q = 0 returns Min() exactly
  // and q = 1 returns Max() exactly.
  std::int64_t Percentile(double q) const;

  // Defined result of Percentile()/Min()/Max() on an empty histogram (or an
  // empty interval window). Callers that must distinguish "no samples" from
  // "a zero-valued sample" check Count() == 0, not the sentinel.
  static constexpr std::int64_t kEmptySentinel = 0;

  std::int64_t Min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t Max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const;
  std::uint64_t Count() const { return count_; }

  void Reset();

  // Merges another histogram into this one.
  void Merge(const LatencyHistogram& other);

  // Interval snapshot: the samples recorded here since `baseline` (an earlier
  // copy of this histogram) as a standalone histogram. Cumulative histograms
  // are useless for feedback control — a window that misbehaved for 100 ms is
  // invisible behind hours of good samples — so controllers keep a baseline
  // copy and diff against it each poll.
  //
  // Computed by bucket-wise *saturating* subtraction: a Reset() between the
  // two snapshots yields a short (never negative) window instead of garbage,
  // and the next poll's fresh baseline self-corrects. Window min/max are
  // reconstructed from the outermost occupied delta buckets (exact below 128,
  // within one bucket otherwise), tightened by the cumulative extremes when no
  // Reset() intervened; the sum (hence Mean) is exact in that same case and
  // bucket-approximated otherwise. An empty window is a valid empty
  // histogram: Count() == 0 and Percentile() returns kEmptySentinel — callers
  // polling faster than samples arrive must check Count() before trusting it.
  LatencyHistogram DeltaSince(const LatencyHistogram& baseline) const;

 private:
  static constexpr int kSubBucketBits = 7;  // 128 sub-buckets: <=1/64 relative error
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  static int BucketIndex(std::int64_t value);
  static std::int64_t BucketUpperBound(int index);
  static std::int64_t BucketLowerBound(int index);

  std::vector<std::uint64_t> buckets_;  // up to the highest index recorded or merged
  std::uint64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace skyloft

#endif  // SRC_BASE_HISTOGRAM_H_
