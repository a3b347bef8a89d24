// The engine's former sharded-replay name, kept only for the benchmark
// program (hwbench/analyze_1m.cc), which still constructs it; to be removed
// when that program is re-pointed at StreamingDecoder.
//
// Decode is single-threaded: a ParallelAnalyzer is a StreamingDecoder that
// retains structure and keeps every step (batch-Decode semantics), and
// `ParallelOptions::jobs` has no effect.

#ifndef HWPROF_SRC_ANALYSIS_PARALLEL_H_
#define HWPROF_SRC_ANALYSIS_PARALLEL_H_

#include <cstdint>

#include "src/analysis/decoder.h"

namespace hwprof {

struct ParallelOptions {
  unsigned jobs = 0;  // accepted and ignored
};

class ParallelAnalyzer : private StreamingDecoder {
 public:
  explicit ParallelAnalyzer(const TagFile& names, unsigned timer_bits = 24,
                            std::uint64_t timer_clock_hz = 1'000'000,
                            ParallelOptions /*options*/ = ParallelOptions{})
      : StreamingDecoder(names, timer_bits, timer_clock_hz,
                         StreamingOptions{.retain_structure = true}) {}

  using StreamingDecoder::Feed;
  using StreamingDecoder::FeedSoA;
  using StreamingDecoder::FeedChunk;
  using StreamingDecoder::NoteDropped;
  using StreamingDecoder::NoteCorruptWords;
  using StreamingDecoder::SetClockEnvelope;
  using StreamingDecoder::events_seen;
  using StreamingDecoder::dropped_events;
  using StreamingDecoder::Finish;
  using StreamingDecoder::DecodeAll;

  // No shards are planned any more.
  std::size_t shards_planned() const { return 0; }
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_PARALLEL_H_
