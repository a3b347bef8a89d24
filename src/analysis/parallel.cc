#include "src/analysis/parallel.h"

namespace hwprof {

ParallelAnalyzer::ParallelAnalyzer(const TagFile& names, unsigned timer_bits,
                                   std::uint64_t timer_clock_hz,
                                   ParallelOptions options)
    : StreamingDecoder(names, timer_bits, timer_clock_hz, options.jobs,
                       options.shard_target_ops) {}

DecodedTrace DecodeParallel(const RawTrace& raw, const TagFile& names,
                            ParallelOptions options) {
  return ParallelAnalyzer(names, raw.timer_bits, raw.timer_clock_hz, options)
      .DecodeAll(raw);
}

}  // namespace hwprof
