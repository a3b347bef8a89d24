#include "tools/lint_main.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/lint/lint.h"
#include "src/lint/rules.h"
#include "src/lint/trace_check.h"
#include "tools/tool_common.h"

namespace hwprof {

namespace {

constexpr const char* kUsage =
    "usage: hwprof_lint [--json] [--sarif] [--tags FILE] [--trace FILE] "
    "[--model-out FILE] [--all] [--root DIR] [paths...]";

int UsageError(std::string* error, std::string why = "") {
  *error = why.empty() ? kUsage : why + "\n" + kUsage;
  return 2;
}

}  // namespace

int LintMain(int argc, const char* const* argv, std::string* error) {
  using lint::Finding;

  bool json = false;
  bool sarif = false;
  bool show_all = false;
  std::string tags_path;
  std::string trace_path;
  std::string model_out;
  std::string root;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sarif") {
      sarif = true;
    } else if (arg == "--all") {
      show_all = true;
    } else if (arg == "--tags") {
      if (!next(&tags_path)) return UsageError(error);
    } else if (arg == "--trace") {
      if (!next(&trace_path)) return UsageError(error);
    } else if (arg == "--model-out") {
      if (!next(&model_out)) return UsageError(error);
    } else if (arg == "--root") {
      if (!next(&root)) return UsageError(error);
    } else if (arg == "--help" || arg == "-h") {
      *error = kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return UsageError(error, StrFormat("unknown option '%s'", arg.c_str()));
    } else {
      paths.push_back(arg);
    }
  }

  if (json && sarif) {
    return UsageError(error, "--json and --sarif are exclusive");
  }

  lint::LintConfig config;
  if (paths.empty()) {
    const std::filesystem::path base = root.empty() ? "." : root;
    config.paths.push_back((base / "src").generic_string());
  } else {
    config.paths = std::move(paths);
  }
  config.tag_file = tags_path;

  lint::LintResult result = lint::RunLint(config);
  if (!result.errors.empty()) {
    for (const std::string& e : result.errors) {
      *error += (error->empty() ? "" : "\n") + e;
    }
    return 2;
  }

  if (!trace_path.empty()) {
    if (tags_path.empty()) {
      *error = "--trace requires --tags";
      return 2;
    }
    TagFile names;
    MappedFile file;
    DecodedTrace trace;
    if (!LoadNamesFile(tags_path, &names, error) || !OpenCapture(trace_path, &file, error) ||
        !DecodeCapture(trace_path, file.view(), names, StreamingOptions{},
                       /*salvage=*/false, stderr, &trace, error)) {
      return 2;
    }
    lint::CrossCheckTrace(trace, names, result.model, &result.findings);
    lint::ApplySuppressions(result.sources, &result.findings);
    lint::SortFindings(&result.findings);
  }

  if (!model_out.empty()) {
    std::ofstream out(model_out, std::ios::binary);
    if (!out) {
      *error = StrFormat("cannot write '%s'", model_out.c_str());
      return 2;
    }
    out << lint::ModelToJson(result.model, lint::CallGraphToJson(result.graph));
  }

  if (json || sarif) {
    std::vector<Finding> shown;
    for (const Finding& f : result.findings) {
      // SARIF carries suppressed findings as inSource suppressions; plain
      // JSON keeps the historical behavior of hiding them without --all.
      if (sarif || show_all || !f.suppressed) {
        shown.push_back(f);
      }
    }
    std::fputs(sarif ? lint::FindingsToSarif(shown).c_str() : lint::FindingsToJson(shown).c_str(),
               stdout);
  } else {
    std::size_t suppressed = 0;
    for (const Finding& f : result.findings) {
      if (f.suppressed && !show_all) {
        ++suppressed;
        continue;
      }
      std::printf("%s\n", lint::FormatFinding(f).c_str());
    }
    std::printf("hwprof_lint: %zu file%s, %zu finding%s (%zu unsuppressed",
                result.sources.size(), result.sources.size() == 1 ? "" : "s",
                result.findings.size(), result.findings.size() == 1 ? "" : "s",
                result.unsuppressed());
    if (!show_all && suppressed > 0) {
      std::printf(", %zu suppressed hidden", suppressed);
    }
    std::printf(")\n");
  }

  return result.unsuppressed() == 0 ? 0 : 1;
}

}  // namespace hwprof
