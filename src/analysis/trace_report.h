// Code-path trace report — Figure 4's format.
//
//   0:002 671 -> ISAINTR (31 us, 778 total)
//   0:002 679     -> weintr (50 us, 292 total)
//   ...
//   0:005 449 <-  ---- Context switch in ----
//   0:005 513         <- tsleep (22 us, 25 total)
//
// Each call is shown at its entry instant with its (net, total) times;
// calls with subroutines (or closed across a context switch) get an exit
// line too; inline triggers print as '=='. Timestamps are
// seconds:milliseconds microseconds from the start of the capture.

#ifndef HWPROF_SRC_ANALYSIS_TRACE_REPORT_H_
#define HWPROF_SRC_ANALYSIS_TRACE_REPORT_H_

#include <string>

#include "src/analysis/decoder.h"

namespace hwprof {

struct TraceReportOptions {
  std::size_t max_lines = 0;  // 0 = unlimited
};

class TraceReport {
 public:
  // Renders the chronological code-path trace of `trace`. The decode must
  // have kept the steps of at least `max_lines` lines
  // (StreamingOptions::step_lines; 0 lines means every step).
  static std::string Format(const DecodedTrace& trace,
                            TraceReportOptions options = TraceReportOptions{});
};

}  // namespace hwprof

#endif  // HWPROF_SRC_ANALYSIS_TRACE_REPORT_H_
