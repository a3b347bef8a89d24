// Sharded replay of the decode engine.
//
// McRae's analysis splits a capture into per-process activity blocks between
// context switches — a structure that is embarrassingly parallel once the
// block boundaries and context-switch resolutions are known. The decode
// engine (StreamingDecoder, decoder.h) already separates the two: one
// serial matcher decides every match, lookahead resolution and anomaly and
// emits a flat op script; a replayer does the expensive work — CallNode
// allocation, per-event interval attribution, TraceStep emission,
// per-function folds. The StreamingDecoder replays each op inline; this
// analyzer runs the same engine but:
//
//  1. cuts the op script into shards at context-switch boundaries (each a
//     closed run of activity blocks; within a shard every decision is
//     already made) and replays each shard on a pool worker;
//  2. merges deterministically and order-independently: per-function
//     timings and idle time combine associatively (sums, min/max, call
//     counts); call nodes open across a cut are stitched back into one node
//     by summing their per-shard accumulators; steps concatenate in shard
//     order. The result is byte-identical to Decoder::Decode for any cut set
//     and any worker count — the contract parallel_analysis_test fuzzes.
//
// Replay correctness does not depend on where the cuts fall (each shard is
// seeded with a snapshot of every open chain), so the cuts are greedy: the
// first context-switch boundary after `shard_target_ops` ops, or mid-block
// once a single context has run 2x past the target (saturating
// interrupt-driven captures may never context switch at all).

#ifndef HWPROF_SRC_ANALYSIS_PARALLEL_H_
#define HWPROF_SRC_ANALYSIS_PARALLEL_H_

#include <cstdint>

#include "src/analysis/decoder.h"

namespace hwprof {

struct ParallelOptions {
  // Worker threads; 0 = ThreadPool::DefaultJobs(). 1 replays inline on the
  // calling thread, exactly as a retaining StreamingDecoder (no shards, no
  // threads, and decode.* rather than parallel.* telemetry).
  unsigned jobs = 0;
  // Ops per shard before the engine looks for a context-switch boundary to
  // cut at; a block overrunning this 2x is cut mid-block (interrupt-driven
  // captures may never switch). Small values force many shards (the
  // differential test uses this to exercise stitching on small traces); the
  // output never depends on it.
  std::size_t shard_target_ops = 8192;
};

// Incremental parallel analyzer with the StreamingDecoder's feed interface
// (it is that engine in sharded mode): drained banks are handed to the
// worker pool as soon as the matcher has decided them, while capture
// continues. Finish() waits for the pool and merges. The result always
// carries the full call trees and step list (batch-Decode semantics).
//
// Lifetime: `names` must outlive the analyzer and the DecodedTrace it
// returns.
class ParallelAnalyzer : private StreamingDecoder {
 public:
  explicit ParallelAnalyzer(const TagFile& names, unsigned timer_bits = 24,
                            std::uint64_t timer_clock_hz = 1'000'000,
                            ParallelOptions options = ParallelOptions{});

  // Feed, FeedSoA (parallel tag/timestamp columns straight from the binary
  // container's chunk reader), FeedChunk, NoteDropped and the salvage
  // accounting behave exactly as on the StreamingDecoder (the differential
  // contract covers them).
  using StreamingDecoder::Feed;
  using StreamingDecoder::FeedSoA;
  using StreamingDecoder::FeedChunk;
  using StreamingDecoder::NoteDropped;
  using StreamingDecoder::NoteCorruptWords;
  using StreamingDecoder::SetClockEnvelope;

  using StreamingDecoder::events_seen;
  using StreamingDecoder::dropped_events;
  // Shards sealed and submitted to the pool so far (0 when inline).
  using StreamingDecoder::shards_planned;

  // Flushes the matcher, waits for every shard worker, merges, and returns
  // the final trace — byte-identical to what Decoder::Decode would produce
  // on the concatenated input. Consumes the analyzer. DecodeAll drains a
  // CaptureReader (or a RawTrace) and finishes, as on the StreamingDecoder.
  using StreamingDecoder::Finish;
  using StreamingDecoder::DecodeAll;
};

// Batch convenience: the parallel counterpart of Decoder::Decode. Output is
// byte-identical to it for every capture.
DecodedTrace DecodeParallel(const RawTrace& raw, const TagFile& names,
                            ParallelOptions options = ParallelOptions{});

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_PARALLEL_H_
