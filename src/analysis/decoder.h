// Trace decoder: reconstructs nested code paths from the Profiler's raw
// (tag, 24-bit timestamp) event list plus the names file — exactly the
// information the paper's host-side analysis software receives.
//
// Responsibilities:
//  * absolute-time reconstruction across timer wraps (interval deltas; the
//    hardware guarantees < one wrap period between events),
//  * entry/exit matching into calls, with per-call net time (elapsed minus
//    direct subroutines), folded as each call closes into per-function
//    stats and, when asked for, a calling-context tree per stack and the
//    chronological steps of the code-path trace,
//  * context-switch handling: a '!'-tagged function (swtch) suspends the
//    current process's stack at entry; interrupt activity during the idle
//    window nests under the open swtch node (so "time in swtch is counted
//    as CPU idle time, except when device interrupts occur"); the matching
//    exit resolves — by one-event lookahead — which suspended stack
//    resumes, or starts a fresh one (a newly created process "returning
//    from swtch"),
//  * graceful handling of truncated captures (RAM overflow) and orphan
//    events, reported as anomaly counts rather than failures.

#ifndef HWPROF_SRC_ANALYSIS_DECODER_H_
#define HWPROF_SRC_ANALYSIS_DECODER_H_

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"

namespace hwprof {

class CaptureReader;
struct SoaChunk;

// Per-call net time histogram: log2 buckets over whole microseconds. Bucket
// 0 holds 0 us and bucket b >= 1 holds [2^(b-1), 2^b) us, the last one
// everything from ~4 s up.
inline constexpr std::size_t kNetBuckets = 24;
std::size_t NetBucket(std::uint64_t us);

// One calling context: a distinct call path on one activity stack. Every
// call that closes on that path is folded into its node, so a tree's size
// follows the capture's distinct paths, not its length (the gprof arc and
// McRae's per-routine charge, kept per path).
//
// Times are on-CPU interval accounting: time between consecutive events is
// charged to the running context's innermost open call (net) and to every
// open call on that context's stack (elapsed). A call whose process is
// switched out therefore accumulates nothing while off-CPU — the paper's
// per-activity-block rule (tsleep shows "25 us total" even though the
// process slept for milliseconds).
struct CallNode {
  const TagEntry* fn = nullptr;  // null only for synthetic stack roots
  std::vector<std::unique_ptr<CallNode>> children;  // in first-call order
  std::uint64_t calls = 0;
  Nanoseconds net = 0;      // exclusive, summed over the calls
  Nanoseconds elapsed = 0;  // inclusive of subroutines, summed over the calls
  std::array<std::uint64_t, kNetBuckets> net_histogram{};  // calls per NetBucket
};

// One process context discovered in the trace.
struct ActivityStack {
  int id = 0;
  std::unique_ptr<CallNode> root;  // synthetic; its children are top levels
};

// Chronological line item for the code-path report and the trace-event
// export: a call's entry or exit, or an inline marker. Both steps of a call
// carry the call's own close data (a call still open when the capture ends
// is closed by the truncation at the last event, forced).
struct TraceStep {
  Nanoseconds t = 0;
  const TagEntry* fn = nullptr;
  Nanoseconds net = 0;
  Nanoseconds elapsed = 0;
  Nanoseconds exit_time = 0;
  int depth = 0;     // nesting depth at emission (0 = top level)
  int stack_id = 0;  // which activity stack
  bool is_exit = false;
  bool context_switch_in = false;  // this exit resumes a different context
  bool inline_marker = false;
  bool has_children = false;  // opened a call or marker before it closed
  bool forced_close = false;  // closed by truncation/mismatch recovery
};

struct FuncStats {
  std::uint64_t calls = 0;
  bool context_switch = false;  // '!'-tagged: net time is the idle account
  Nanoseconds elapsed = 0;  // inclusive of subroutines
  Nanoseconds net = 0;      // exclusive
  Nanoseconds min_net = 0;
  Nanoseconds max_net = 0;

  Nanoseconds AvgNet() const { return calls == 0 ? 0 : net / calls; }
};

struct DecodedTrace {
  Nanoseconds start_time = 0;  // first event (reconstructed absolute)
  Nanoseconds end_time = 0;
  std::size_t event_count = 0;
  bool truncated = false;  // capture RAM overflowed

  // One per context; the context trees are empty unless the decode
  // retained structure.
  std::vector<std::unique_ptr<ActivityStack>> stacks;
  // The steps the decode was asked to keep (StreamingOptions::step_lines).
  std::vector<TraceStep> steps;
  std::map<std::string, FuncStats> per_function;

  // Idle: accumulated net time of '!'-tagged (context switch) functions.
  Nanoseconds idle_time = 0;

  // Anomalies (all tolerated): events with no names-file entry, exits with
  // no matching entry, entries still open at the end of the capture.
  std::uint64_t unknown_tags = 0;
  std::uint64_t orphan_exits = 0;
  std::uint64_t unclosed_entries = 0;

  // Attribution for the anomaly counts above, keyed by raw tag value
  // (unknowns) or function name (orphans/unclosed). hwprof_lint's trace
  // cross-check turns these into file:line findings against the static
  // call-structure model instead of leaving them as silent drops.
  std::map<std::uint16_t, std::uint64_t> unknown_tag_counts;
  std::map<std::string, std::uint64_t> orphan_exit_counts;
  std::map<std::string, std::uint64_t> unclosed_entry_counts;

  // The subset of orphan_exit_counts whose function had no prior entry
  // anywhere in the trace: exits of calls opened *before* the first captured
  // event. That is the signature of a capture that begins mid-call — a board
  // armed mid-run, or a bank cut at a context-switch boundary — the
  // front-of-capture mirror of truncated_entry_counts. Consumers judging
  // trace health (hwprof_lint's cross-check) tolerate these the same way
  // they tolerate end-of-capture truncation.
  std::map<std::string, std::uint64_t> preopen_exit_counts;

  // The subset of unclosed_entry_counts closed by end-of-capture truncation
  // (the call stack in flight when the board stopped) rather than by a
  // mid-trace anomaly. Stopping a capture mid-run is normal, so consumers
  // judging trace health should subtract these from unclosed_entry_counts.
  std::map<std::string, std::uint64_t> truncated_entry_counts;

  // Streaming-capture accounting: events the board dropped when the drain
  // lost the race (from drain-chunk headers), and the number of distinct
  // gaps they occurred in. Always 0 for one-shot captures.
  std::uint64_t dropped_events = 0;
  std::uint64_t capture_gaps = 0;

  // --- Salvage accounting (typed anomaly report) -----------------------------
  // Words the parse layer could not read at all (corrupt lines in a
  // salvage-mode load; injected via NoteCorruptWords so every decode path
  // reports the same totals).
  std::uint64_t corrupt_words = 0;
  // Events whose stored timestamp exceeded the timer mask — the counter
  // cannot have produced the word, so the delta it implies is impossible.
  // The decoder masks the timestamp (best-effort) and keeps going.
  std::uint64_t impossible_deltas = 0;
  // Whole timer wraps hidden inside quiet gaps: detected against the host
  // wall-clock envelope (SetClockEnvelope / RawTrace::capture_elapsed_ns)
  // when one is available. Each counts one violation of the "at most one
  // wrap between events" contract; the affected intervals decoded as short
  // deltas and the capture's reconstructed span is missing that time.
  std::uint64_t wrap_ambiguous_gaps = 0;
  // Wall-clock time the envelope says happened but the reconstruction
  // cannot account for (0 when no envelope, or when within one wrap).
  Nanoseconds unaccounted_time = 0;

  Nanoseconds ElapsedTotal() const { return end_time - start_time; }
  Nanoseconds RunTime() const {
    return ElapsedTotal() > idle_time ? ElapsedTotal() - idle_time : 0;
  }
  const FuncStats* Stats(const std::string& name) const {
    auto it = per_function.find(name);
    return it == per_function.end() ? nullptr : &it->second;
  }

  // Entries closed by end-of-capture truncation (the tolerated subset of
  // unclosed_entries).
  std::uint64_t TruncationClosedEntries() const {
    std::uint64_t n = 0;
    for (const auto& [name, count] : truncated_entry_counts) {
      n += count;
    }
    return n;
  }
  // Entries force-closed by mid-trace mismatch recovery — unlike truncation
  // closes, these indicate real damage or tag imbalance.
  std::uint64_t MidTraceUnclosedEntries() const {
    const std::uint64_t tolerated = TruncationClosedEntries();
    return unclosed_entries > tolerated ? unclosed_entries - tolerated : 0;
  }
  // Everything a health-conscious consumer should hear about, as one count
  // (hwprofd's per-upload anomaly total, the --progress heartbeat).
  // Deliberately excludes plain truncation (stopping a capture mid-run is
  // normal) and the truncation-closed entries it implies.
  std::uint64_t AnomalyTotal() const {
    return corrupt_words + impossible_deltas + wrap_ambiguous_gaps + unknown_tags +
           orphan_exits + dropped_events + MidTraceUnclosedEntries();
  }
  bool HasAnomalies() const { return AnomalyTotal() > 0; }
};

class Decoder {
 public:
  // Decodes `raw` against `names`. Never fails: malformed regions become
  // anomaly counts.
  //
  // Lifetime: the returned trace's nodes and steps point into `names`'
  // entries; `names` must outlive the DecodedTrace.
  static DecodedTrace Decode(const RawTrace& raw, const TagFile& names);
};

// Keep every step (StreamingOptions::step_lines).
inline constexpr std::size_t kAllSteps = std::numeric_limits<std::size_t>::max();

struct StreamingOptions {
  // Fold each closing call into its stack's calling-context tree (what the
  // call-graph, process, histogram, folded and diff reports read) and keep
  // the steps `step_lines` asks for. When false, each call is only a plain
  // frame on its stack's chain, folded into the per-function stats as it
  // closes, so memory is bounded by stack depth plus the context-switch
  // lookahead window — not by capture length. Batch Decode() sets it.
  bool retain_structure = false;
  // With retain_structure: keep the first steps a TraceReport of this many
  // lines renders (plus one, so it can tell that more followed). 0 keeps
  // none; kAllSteps keeps them all (what the trace-event export needs).
  std::size_t step_lines = kAllSteps;
};

// Incremental decoder: feed a capture in arbitrarily-sized chunks and get
// the same answer the one-shot Decoder produces on the concatenation. All
// cross-event state — absolute-time reconstruction across 24-bit timer
// wraps, open call stacks, suspended contexts, the one-event-lookahead
// context-switch resolution — carries across chunk boundaries. Events whose
// handling needs lookahead (a `swtch` exit deciding which suspended stack
// resumes) are buffered until enough of the future has arrived to decide
// exactly as the one-shot decoder would; everything else is decoded as it
// arrives.
//
// This is the one decode engine. A single matcher makes every decision and
// replays it at once (open / close / switch context / advance the clock) at
// O(1) cost: per-function stats always, and with retained structure the
// calling-context trees and the kept steps.
//
// Lifetime: `names` must outlive the decoder and any DecodedTrace it emits.
class StreamingDecoder {
 public:
  explicit StreamingDecoder(const TagFile& names, unsigned timer_bits = 24,
                            std::uint64_t timer_clock_hz = 1'000'000,
                            StreamingOptions options = StreamingOptions{});
  ~StreamingDecoder();
  StreamingDecoder(const StreamingDecoder&) = delete;
  StreamingDecoder& operator=(const StreamingDecoder&) = delete;

  // Feeds the next events of the capture, in order.
  void Feed(const RawEvent* events, std::size_t count);
  void Feed(const std::vector<RawEvent>& events);
  // Structure-of-arrays variant: the same events as parallel tag/timestamp
  // columns (what the binary container's chunk reader produces), decoded
  // without ever materialising RawEvents.
  void FeedSoA(const std::uint16_t* tags, const std::uint32_t* timestamps,
               std::size_t count);
  // Feeds one drained bank: accounts its dropped_before, then its events.
  void FeedChunk(const TraceChunk& chunk);
  void FeedChunk(const SoaChunk& chunk);
  // Records a capture gap of `count` dropped events at the current position.
  // The decoder keeps its stacks (later orphan exits are tolerated as
  // usual); note that a gap longer than the timer wrap period makes the
  // interval across it ambiguous, as on the real hardware.
  void NoteDropped(std::uint64_t count);
  // Records `count` stored words the parse layer could not read at all
  // (salvage-mode loads skip them and report here, so every decode path
  // charges identical corrupt-word totals).
  void NoteCorruptWords(std::uint64_t count);
  // Gives the decoder a host wall-clock measurement of the capture's real
  // duration. Timer wraps hidden inside quiet gaps (> WrapPeriod with no
  // stored event) are undetectable from deltas alone; with an envelope the
  // decoder compares the reconstructed span against it at Finish and counts
  // each whole missing wrap as a wrap-ambiguous gap.
  void SetClockEnvelope(Nanoseconds capture_elapsed);

  // Known-tag events accepted so far.
  std::uint64_t events_seen() const;
  std::uint64_t dropped_events() const;
  // Events buffered awaiting context-switch lookahead.
  std::size_t pending() const;

  // Running statistics view of everything decoded so far: per-function
  // stats, idle and elapsed totals (open calls included, with time
  // accumulated to date). Carries no stacks or steps; pass it to Summary
  // for a live Figure 3 report.
  DecodedTrace SnapshotStats() const;

  // Decodes everything still buffered, closes open calls, and returns the
  // final trace. The decoder is consumed: only the destructor may follow.
  DecodedTrace Finish(bool truncated = false);

  // Whole-input decodes, each carrying the board-side accounting with the
  // events and ending in Finish. From a reader: the clock envelope, every
  // chunk (its drops, then its columns), the capture's folded drop count,
  // the corrupt words, then Finish(overflowed || truncated_tail). The caller
  // checks reader.failed() for strict damage. From a RawTrace: its drops,
  // envelope and events, then Finish(overflowed).
  DecodedTrace DecodeAll(CaptureReader& reader);
  DecodedTrace DecodeAll(const RawTrace& raw);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_DECODER_H_
