// hwprof_lint: static instrumentation and spl-discipline analyzer. See
// tools/lint_main.h for the options.
//
//   hwprof_lint src
//   hwprof_lint --tags kernel.names --trace capture.hwprof src
//
// Exit status: 0 = clean, 1 = unsuppressed findings, 2 = usage or I/O error.

#include <cstdio>
#include <string>

#include "tools/lint_main.h"

int main(int argc, char** argv) {
  std::string error;
  const int rc = hwprof::LintMain(argc, argv, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "hwprof_lint: %s\n", error.c_str());
  }
  return rc;
}
