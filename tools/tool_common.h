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

// Maps a capture or stream file whole. On failure *error is "cannot load
// capture 'path'" plus the reason.
bool OpenCapture(const std::string& path, MappedFile* file, std::string* error);

// What a caller's reports read from the decoded trace. kStats: only the
// per-function stats, idle time and anomaly counters (the summary, --json,
// --groups, --spl, the lint cross-check). kStructure: the call trees or the
// step list as well (--trace, --callgraph, --histogram, --processes, --diff's
// call-graph edges, the exports).
enum class DecodeNeeds { kStats, kStructure };

// Decodes the capture or stream in `bytes` (either format, read from
// `path`). kStats runs bounded inline replay (no trees, memory bounded by
// stack depth) and ignores `jobs`; kStructure runs the engine at `jobs` (0 =
// hardware concurrency, 1 = inline replay; the output is identical at every
// value). In salvage mode every tolerated problem is printed to `warnings`
// as "warning: path:line: ... (salvaged)" (" @offset" for hwpb). On a load
// failure *error is "cannot load capture 'path'" plus every diagnostic.
bool DecodeCapture(const std::string& path, std::string_view bytes,
                   const TagFile& names, DecodeNeeds needs, unsigned jobs, bool salvage,
                   std::FILE* warnings, DecodedTrace* decoded, std::string* error);

}  // namespace hwprof

#endif  // HWPROF_TOOLS_TOOL_COMMON_H_
