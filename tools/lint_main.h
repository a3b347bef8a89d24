// hwprof_lint: the static instrumentation and spl-discipline analyzer, as a
// reusable entry point (the binary's main() calls this; tests call it
// directly with temp files).

#ifndef HWPROF_TOOLS_LINT_MAIN_H_
#define HWPROF_TOOLS_LINT_MAIN_H_

#include <string>

namespace hwprof {

// Runs the analyzer:
//   hwprof_lint [options] [paths...]
//
//   paths                 files or directories to analyze (default: the
//                         whole src tree)
//   --json                machine-readable findings on stdout
//   --sarif               SARIF 2.1.0 findings on stdout (for CI annotation)
//   --tags FILE           validate FILE as a tag file against the sources
//   --trace FILE          cross-check a saved capture or stream, text or hwpb
//                         (needs --tags), against the static call-structure
//                         model
//   --model-out FILE      write the call-structure model, resolved call
//                         graph, and per-function summaries as JSON
//   --all                 print suppressed findings too
//   --root DIR            chdir-free prefix applied to the default paths
//
// Findings go to stdout; problems land in `*error` (names-file and capture
// problems as path:line: reason lines). Returns 0 = clean, 1 = unsuppressed
// findings, 2 = usage or I/O error.
int LintMain(int argc, const char* const* argv, std::string* error);

}  // namespace hwprof

#endif  // HWPROF_TOOLS_LINT_MAIN_H_
