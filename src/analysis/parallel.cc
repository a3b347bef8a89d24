#include "src/analysis/parallel.h"

namespace hwprof {

ParallelAnalyzer::ParallelAnalyzer(const TagFile& names, unsigned timer_bits,
                                   std::uint64_t timer_clock_hz,
                                   ParallelOptions options)
    : StreamingDecoder(names, timer_bits, timer_clock_hz, options.jobs,
                       options.shard_target_ops) {}

DecodedTrace DecodeParallel(const RawTrace& raw, const TagFile& names,
                            ParallelOptions options) {
  ParallelAnalyzer analyzer(names, raw.timer_bits, raw.timer_clock_hz, options);
  // Same board-side accounting as Decoder::Decode so both batch wrappers
  // stay byte-identical.
  analyzer.NoteDropped(raw.dropped_events);
  analyzer.SetClockEnvelope(raw.capture_elapsed_ns);
  analyzer.Feed(raw.events);
  return analyzer.Finish(raw.overflowed);
}

}  // namespace hwprof
