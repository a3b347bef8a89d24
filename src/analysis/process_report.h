// Per-process CPU accounting from the decoded activity stacks' calling-context
// trees.
//
// "The time between the exit of a call to swtch and the entry to the next
// call of swtch is analysed as a contiguous block of processor activity...
// The separation of idle and active CPU time provides accurate calculation
// of CPU usage, both as an overall ratio and on a per function basis."
// Each ActivityStack the decoder discovered corresponds to one process
// context; this rolls up where each context spent its CPU.
//
// Caveat (inherent to the tag stream, 1993 and now): two processes
// suspended inside *identical* call chains (say, both in tsleep under the
// same caller) cannot be told apart at switch-in, so their blocks may merge
// under one context. Per-function totals are unaffected; only the
// per-process split is heuristic in that case.

#ifndef HWPROF_SRC_ANALYSIS_PROCESS_REPORT_H_
#define HWPROF_SRC_ANALYSIS_PROCESS_REPORT_H_

#include <string>
#include <vector>

#include "src/analysis/decoder.h"

namespace hwprof {

struct ProcessRow {
  int stack_id = 0;
  Nanoseconds busy = 0;        // net CPU attributed to this context
  Nanoseconds idle_hosted = 0; // idle windows this context's swtch hosted
  std::uint64_t calls = 0;     // profiled calls made
  std::string top_function;    // heaviest function by net within the context
  Nanoseconds top_net = 0;
};

class ProcessReport {
 public:
  explicit ProcessReport(const DecodedTrace& trace);

  // One row per discovered context, busiest first.
  const std::vector<ProcessRow>& rows() const { return rows_; }

  // Total busy CPU across contexts (== trace.RunTime() up to unattributed
  // gaps).
  Nanoseconds TotalBusy() const;

  std::string Format(const DecodedTrace& trace) const;

 private:
  std::vector<ProcessRow> rows_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_PROCESS_REPORT_H_
