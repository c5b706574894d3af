#include "src/base/histogram.h"

#include <algorithm>
#include <bit>

namespace skyloft {

LatencyHistogram::LatencyHistogram() = default;

int LatencyHistogram::BucketIndex(std::int64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  const auto v = static_cast<std::uint64_t>(value);
  const int msb = 63 - std::countl_zero(v);
  const int range = msb - kSubBucketBits + 1;  // >= 1
  const int sub = static_cast<int>(v >> range);  // in [kSubBuckets/2, kSubBuckets)
  return range * kSubBuckets + sub;
}

std::int64_t LatencyHistogram::BucketUpperBound(int index) {
  const int range = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (range == 0) {
    return sub;
  }
  return (static_cast<std::int64_t>(sub) + 1) << range;
}

std::int64_t LatencyHistogram::BucketLowerBound(int index) {
  const int range = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (range == 0) {
    return sub;
  }
  return static_cast<std::int64_t>(sub) << range;
}

void LatencyHistogram::Record(std::int64_t value) {
  if (value < 0) {
    value = 0;
  }
  const auto index = static_cast<std::size_t>(BucketIndex(value));
  if (index >= buckets_.size()) {
    buckets_.resize(index + 1);
  }
  buckets_[index]++;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_++;
  sum_ += static_cast<double>(value);
}

std::int64_t LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  if (target <= 1) {
    // The quantile lands on the first sample: report the tracked minimum
    // exactly instead of its bucket's upper bound, which can exceed it.
    return min_;
  }
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); i++) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::clamp(BucketUpperBound(static_cast<int>(i)), min_, max_);
    }
  }
  return max_;
}

double LatencyHistogram::Mean() const {
  if (count_ == 0) {
    return 0.0;
  }
  return sum_ / static_cast<double>(count_);
}

void LatencyHistogram::Reset() {
  buckets_.clear();  // keeps the capacity: re-recording does not allocate
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0.0;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size());
  }
  for (std::size_t i = 0; i < other.buckets_.size(); i++) {
    buckets_[i] += other.buckets_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

LatencyHistogram LatencyHistogram::DeltaSince(const LatencyHistogram& baseline) const {
  LatencyHistogram delta;
  // `prefix` tracks whether `baseline` is a strict prefix of this histogram
  // (no Reset() between the snapshots); only then do cumulative extremes and
  // the cumulative sum bound the window.
  bool prefix = count_ >= baseline.count_ && sum_ >= baseline.sum_;
  int first = -1;
  int last = -1;
  // A baseline bucket past this histogram's grown length counts as a zero
  // current bucket: a non-empty one there means a Reset() intervened.
  const auto& base_buckets = baseline.buckets_;
  for (std::size_t i = buckets_.size(); i < base_buckets.size(); i++) {
    if (base_buckets[i] != 0) {
      prefix = false;
      break;
    }
  }
  delta.buckets_.resize(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); i++) {
    const std::uint64_t cur = buckets_[i];
    const std::uint64_t base = i < base_buckets.size() ? base_buckets[i] : 0;
    if (cur < base) {
      // A Reset() ran between the snapshots; saturate at zero rather than
      // wrapping. The window under-reports once and the caller's next
      // baseline copy self-corrects.
      prefix = false;
      continue;
    }
    const std::uint64_t d = cur - base;
    if (d == 0) {
      continue;
    }
    delta.buckets_[i] = d;
    delta.count_ += d;
    if (first < 0) {
      first = static_cast<int>(i);
    }
    last = static_cast<int>(i);
  }
  delta.buckets_.resize(static_cast<std::size_t>(last + 1));
  if (delta.count_ == 0) {
    // Empty window: a defined empty histogram (Percentile() -> kEmptySentinel,
    // Mean() -> 0). No division or bucket scan happens on this path.
    return delta;
  }
  delta.min_ = BucketLowerBound(first);
  delta.max_ = BucketUpperBound(last);
  if (prefix) {
    // Every window sample is also a cumulative sample, so the cumulative
    // extremes bracket the window's.
    delta.min_ = std::max(delta.min_, Min());
    delta.max_ = std::min(delta.max_, Max());
    delta.sum_ = sum_ - baseline.sum_;
  } else {
    for (std::size_t i = 0; i < delta.buckets_.size(); i++) {
      if (delta.buckets_[i] == 0) {
        continue;
      }
      const std::int64_t rep =
          std::clamp(BucketUpperBound(static_cast<int>(i)), delta.min_, delta.max_);
      delta.sum_ += static_cast<double>(delta.buckets_[i]) * static_cast<double>(rep);
    }
  }
  return delta;
}

}  // namespace skyloft
