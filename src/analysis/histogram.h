// Per-call-time histograms — the paper's future-work "building histograms
// of the function time and usage for easy detection of bottlenecks".
//
// Log2 buckets over per-call net microseconds: a bimodal bcopy histogram
// (tiny mbuf copies vs. millisecond driver copies) is the visual signature
// of Fig 3's receive path.

#ifndef HWPROF_SRC_ANALYSIS_HISTOGRAM_H_
#define HWPROF_SRC_ANALYSIS_HISTOGRAM_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/analysis/decoder.h"

namespace hwprof {

class Histogram {
 public:
  static constexpr std::size_t kBuckets = kNetBuckets;  // 1 µs .. ~8 s in log2 steps

  Histogram() { counts_.fill(0); }

  void Add(std::uint64_t us);
  std::uint64_t Count(std::size_t bucket) const { return counts_[bucket]; }
  std::uint64_t Total() const;

  // Lower bound (µs) of a bucket.
  static std::uint64_t BucketFloor(std::size_t bucket);

  // ASCII rendering, one row per non-empty bucket.
  std::string Format(const std::string& title) const;

  // Builds the histogram of per-call net times for `name` from the decoded
  // calling-context trees.
  static Histogram ForFunction(const DecodedTrace& trace, const std::string& name);

 private:
  std::array<std::uint64_t, kBuckets> counts_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_HISTOGRAM_H_
