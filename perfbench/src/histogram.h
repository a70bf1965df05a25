// Fixed-size latency histogram with sub-1% buckets.
//
// Values (nanoseconds) below 128 get a bucket each; above that every octave
// is split into 128 equal sub-buckets, so a bucket is at most 1/128 (0.78%)
// of its lower edge wide. Each bucket also keeps the sum of its samples and
// a percentile reports the mean of the bucket holding the nearest-rank
// sample: exact whenever that bucket holds one distinct value, and never
// further than one bucket width from the true sample otherwise. The table
// is a fixed array, so memory does not grow with the number of samples.
//
// Single writer; merge per-thread histograms after the threads are joined.

#ifndef PERFBENCH_HISTOGRAM_H_
#define PERFBENCH_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

namespace perfbench {

class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr int kMaxExp = 44;  // values up to 2^44 ns (~4.9 hours)
  static constexpr size_t kBuckets = kSub * (kMaxExp - kSubBits + 2);

  static size_t Bucket(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    int e = 63 - __builtin_clzll(v);
    if (e > kMaxExp) return kBuckets - 1;
    const uint64_t mant = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(e - kSubBits + 1) * kSub + mant;
  }

  void Record(uint64_t v) {
    const size_t b = Bucket(v);
    ++count_[b];
    sum_[b] += v;
    ++total_;
  }

  void Merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) {
      count_[i] += o.count_[i];
      sum_[i] += o.sum_[i];
    }
    total_ += o.total_;
  }

  uint64_t count() const { return total_; }

  /// Nearest-rank q-quantile (q in (0, 1]): the sample of rank ceil(q * n),
  /// reported as the mean of its bucket. 0 when empty.
  double Percentile(double q) const {
    if (total_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(q * double(total_)));
    rank = std::clamp<uint64_t>(rank, 1, total_);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += count_[i];
      if (seen >= rank) return double(sum_[i]) / double(count_[i]);
    }
    return 0.0;
  }

 private:
  std::array<uint64_t, kBuckets> count_{};
  std::array<uint64_t, kBuckets> sum_{};
  uint64_t total_ = 0;
};

/// The tail quantile a set of histograms supports: 0.99 when every one has
/// at least ten samples beyond it, otherwise the highest whole percentile
/// that does (0 when some histogram has ten samples or fewer).
template <typename It>
double TailQuantile(It first, It last) {
  uint64_t n = UINT64_MAX;
  for (It it = first; it != last; ++it) n = std::min(n, (*it)->count());
  for (int p = 99; p >= 1; --p) {
    if (double(n) * (100 - p) / 100.0 >= 10.0) return p / 100.0;
  }
  return 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_HISTOGRAM_H_
