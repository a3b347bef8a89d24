// Differential capture comparison — the paper's whole method is comparative
// ("who wins, by what factor" between kernel variants), and this is the
// compare-two-profiles step: McKusick's kerntune workflow and
// profile-guided-optimization loops both diff a baseline profile against a
// candidate. TraceDiff takes two decoded captures (any input format, any
// feed shape — the report is built purely from deterministic aggregates,
// so one-shot/chunked and text/hwpb inputs produce byte-identical output)
// and emits a stable, sorted regression report at three granularities:
//
//  * per-function flat profile (net time, as in the Figure 3 summary),
//  * per-call-edge (callee time under each caller, via CallGraph),
//  * per-abstraction (tag-file `group=` labels, via Grouping).
//
// A relative noise threshold suppresses sub-noise rows: a row whose
// |relative delta| is less than or equal to `noise_pct` is hidden and never
// counts as a regression (so the threshold itself is the last tolerated
// value; "just above" fails). A function present only in the candidate is
// always a regression; one that disappeared is an improvement. Context
// switch ('!') functions are excluded from rows — their net time is the
// idle account, reported in the totals header instead.
//
// Two further options serve before/after comparisons of *different* kernel
// variants (the profile-guided-optimization loop), where the candidate
// legitimately shifts the machine's timeline:
//
//  * `quantum_us` — the capture board timestamps at 1 MHz, so every
//    measured interval quantizes to a microsecond. Between two runs whose
//    timelines are phase-shifted, a function called N times can drift by
//    roughly the quantum per call without its cost having changed. Rows
//    present on both sides whose |delta| is within `quantum_us *
//    max(calls)` are below measurement resolution and suppressed.
//  * `gate_edges` — the per-call-edge section reports *inclusive* callee
//    elapsed, which absorbs whatever interrupts land inside the callee.
//    A variant that changes timing relocates interrupt arrivals, churning
//    edge attribution even when every function's net time is stable. With
//    `gate_edges = false` the edge section still prints (it is the best
//    view of *where* time moved) but its rows are advisory: they never
//    count as regressions or affect the exit code.

#ifndef HWPROF_SRC_ANALYSIS_DIFF_H_
#define HWPROF_SRC_ANALYSIS_DIFF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"

namespace hwprof {

struct DiffOptions {
  // Suppress rows with |relative delta| <= noise_pct (percent). 0 keeps
  // every row whose value changed at all.
  double noise_pct = 0.0;
  // Timestamp-quantization floor, in us per call: a row present in both
  // captures with |delta_us| <= quantum_us * max(a_calls, b_calls) is
  // below the board's measurement resolution and suppressed. 0 disables.
  // New/gone rows are unaffected (their calls existed on one side only).
  double quantum_us = 0.0;
  // When false, per-call-edge rows are advisory: still reported, never
  // regressions. Net-time sections (functions, groups) always gate.
  bool gate_edges = true;
};

struct DiffRow {
  std::string key;  // function name, "caller -> callee", or group label
  std::uint64_t a_us = 0;  // net us (functions, groups); callee elapsed (edges)
  std::uint64_t b_us = 0;
  std::uint64_t a_calls = 0;
  std::uint64_t b_calls = 0;
  std::int64_t delta_us = 0;  // b - a
  double rel_pct = 0.0;       // 100 * (b - a) / a; undefined when only_b
  bool only_a = false;        // present in the baseline only (gone)
  bool only_b = false;        // present in the candidate only (new)
  bool suppressed = false;    // below the noise threshold; hidden from output
  bool regressed = false;     // above noise and slower; drives the exit code
};

// Header-level totals for both captures.
struct DiffTotals {
  std::uint64_t a_elapsed_us = 0, b_elapsed_us = 0;
  std::uint64_t a_run_us = 0, b_run_us = 0;
  std::uint64_t a_idle_us = 0, b_idle_us = 0;
  std::uint64_t a_events = 0, b_events = 0;
};

class TraceDiff {
 public:
  // `a` is the baseline, `b` the candidate. `group_of` maps function name ->
  // abstraction label (TagFile::GroupsByName); unmapped functions land in
  // "other". Both traces must keep their calling-context trees (batch
  // decodes do) for the edge granularity.
  TraceDiff(const DecodedTrace& a, const DecodedTrace& b,
            const std::map<std::string, std::string>& group_of,
            DiffOptions options = DiffOptions{});

  // All rows, suppressed ones included (flagged), sorted by signed delta
  // descending (worst regression first), key ascending on ties.
  const std::vector<DiffRow>& functions() const { return functions_; }
  const std::vector<DiffRow>& edges() const { return edges_; }
  const std::vector<DiffRow>& groups() const { return groups_; }
  const DiffTotals& totals() const { return totals_; }

  // Regressions across all three granularities (what the CI gate counts).
  std::size_t regression_count() const { return regressions_; }
  // Sub-noise rows hidden from the report.
  std::size_t suppressed_count() const { return suppressed_; }
  bool HasRegression() const { return regressions_ > 0; }

  // Finds a row by key in the given section; nullptr if absent.
  const DiffRow* Function(const std::string& name) const;
  const DiffRow* Edge(const std::string& caller, const std::string& callee) const;
  const DiffRow* Group(const std::string& label) const;

  // Human-readable report. Deliberately carries no file paths, so the same
  // pair of captures renders byte-identically however they were stored.
  std::string FormatText() const;
  // Machine-readable twin (the CI gate's artifact).
  std::string FormatJson() const;

  double noise_pct() const { return noise_pct_; }
  double quantum_us() const { return quantum_us_; }
  bool gate_edges() const { return gate_edges_; }

 private:
  std::vector<DiffRow> functions_;
  std::vector<DiffRow> edges_;
  std::vector<DiffRow> groups_;
  DiffTotals totals_;
  double noise_pct_ = 0.0;
  double quantum_us_ = 0.0;
  bool gate_edges_ = true;
  std::size_t regressions_ = 0;
  std::size_t suppressed_ = 0;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_DIFF_H_
