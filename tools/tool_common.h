// Helpers shared by the hwprof command-line tools: file and names-file
// loading with file:line diagnostics, and the one way a tool turns a capture
// file into a DecodedTrace (mmap -> CaptureReader -> engine -> DecodeAll).

#ifndef HWPROF_TOOLS_TOOL_COMMON_H_
#define HWPROF_TOOLS_TOOL_COMMON_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/base/mmap_file.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"

namespace hwprof {

bool ReadFileToString(const std::string& path, std::string* out);

// "path:line: reason" for every parse problem, each on a new line appended
// to `message` (the shape TagFile diagnostics are printed in; line 0 is
// file-level and prints as "path: reason").
void AppendTraceDiags(const std::string& path, const std::vector<TraceDiag>& diags,
                      std::string* message);

// Reads and parses a names file. On failure *error is "cannot parse names
// file 'path'" followed by one "path:line: reason" line per problem.
bool LoadNamesFile(const std::string& path, TagFile* names, std::string* error);

// `--jobs N` is accepted, for old command lines, and ignored: decode is
// single-threaded. Takes N, the argument after argv[*i], by advancing *i;
// when N is missing or not a number, *error is "--jobs needs a number, got
// '...'" and the result is false (a usage error).
bool SkipJobsOption(int argc, const char* const* argv, int* i, std::string* error);

// Maps a capture or stream file whole. On failure *error is "cannot load
// capture 'path'" plus the reason.
bool OpenCapture(const std::string& path, MappedFile* file, std::string* error);

// Decodes the capture or stream in `bytes` (either format, read from
// `path`), keeping what `keep` asks for: a caller passes what its reports
// read (StreamingOptions{} for stats only: the summary, --json, --groups,
// --spl, the lint cross-check). In salvage mode every tolerated problem is
// printed to `warnings` as "warning: path:line: ... (salvaged)" (" @offset"
// for hwpb). On a load failure *error is "cannot load capture 'path'" plus
// every diagnostic.
bool DecodeCapture(const std::string& path, std::string_view bytes,
                   const TagFile& names, StreamingOptions keep, bool salvage,
                   std::FILE* warnings, DecodedTrace* decoded, std::string* error);

}  // namespace hwprof

#endif  // HWPROF_TOOLS_TOOL_COMMON_H_
