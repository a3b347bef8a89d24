#include "src/lint/diagnostics.h"

#include <algorithm>
#include <iterator>

#include "src/base/json.h"
#include "src/base/strings.h"

namespace hwprof::lint {

namespace {

struct RuleInfo {
  std::string_view id;
  std::string_view description;
};

// Every rule the analyzer can emit, in the order the SARIF rules catalog
// lists them; suppress() arguments are validated against it.
constexpr RuleInfo kRules[] = {
    {"spl-balance", "splnet()-family raise without splx on some return path"},
    {"spl-raw-balance", "RawRaise without RawRestore on some return path"},
    {"spl-sleep", "sleep primitive reached while the interrupt level is raised"},
    {"instr-balance", "raw entry trigger emit without a matching exit emit"},
    {"instr-raw-tag", "raw TriggerRead whose tag cannot be classified"},
    {"reg-conflict", "function registered with conflicting kinds"},
    {"tag-parse", "malformed tag file"},
    {"tag-ctx", "context-switch marker not backed by the scheduler"},
    {"tag-model", "tag-file entry kind disagrees with the source registration"},
    {"trace-unknown-tag", "decoded trace carried tags missing from the model"},
    {"trace-orphan-exit", "decoded exits with no matching entry"},
    {"trace-unclosed-entry", "decoded entries never closed by an exit"},
    {"obs-span-balance", "OBS_SPAN_BEGIN without a matching OBS_SPAN_END"},
    {"bad-suppression", "malformed suppression comment"},
    {"spl-sleep-transitive", "raised-IPL path calls a function that can block at some depth"},
    {"intr-blocking", "interrupt-context function can reach a blocking call"},
    {"spl-imbalance-transitive",
     "helper's net spl effect disagrees with its spl-effect annotation"},
    {"call-cycle", "recursion cycle carrying a non-zero interrupt-level effect"},
    {"bad-annotation", "malformed or misattached spl-effect annotation"},
};

}  // namespace

bool IsKnownRule(std::string_view rule) {
  return std::any_of(std::begin(kRules), std::end(kRules),
                     [rule](const RuleInfo& r) { return r.id == rule; });
}

std::string FormatFinding(const Finding& f) {
  std::string out = StrFormat("%s:%d: [%s] %s", f.file.c_str(), f.line, f.rule.c_str(),
                              f.message.c_str());
  if (!f.note.empty()) {
    out += StrFormat(" (%s)", f.note.c_str());
  }
  if (f.suppressed) {
    out += StrFormat(" [suppressed: %s]", f.suppress_reason.c_str());
  }
  return out;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    if (a.rule != b.rule) {
      return a.rule < b.rule;
    }
    return a.message < b.message;
  });
}

std::size_t UnsuppressedCount(const std::vector<Finding>& findings) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) {
      ++n;
    }
  }
  return n;
}

// --- JSON writer -------------------------------------------------------------

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::string out = "{\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": ";
    AppendJsonString(f.rule, &out);
    out += ", \"file\": ";
    AppendJsonString(f.file, &out);
    out += StrFormat(", \"line\": %d, \"message\": ", f.line);
    AppendJsonString(f.message, &out);
    out += ", \"note\": ";
    AppendJsonString(f.note, &out);
    out += StrFormat(", \"suppressed\": %s, \"suppress_reason\": ",
                     f.suppressed ? "true" : "false");
    AppendJsonString(f.suppress_reason, &out);
    out += "}";
  }
  out += StrFormat("\n  ],\n  \"total\": %zu,\n  \"unsuppressed\": %zu\n}\n",
                   findings.size(), UnsuppressedCount(findings));
  return out;
}

// --- JSON reader -------------------------------------------------------------

bool FindingsFromJson(std::string_view json, std::vector<Finding>* out, std::string* error) {
  JsonValue root;
  if (!ParseJson(json, &root, error)) {
    return false;
  }
  if (root.kind != JsonValue::kObject) {
    *error = "top level is not an object";
    return false;
  }
  std::vector<Finding> findings;
  if (const JsonValue* list = root.Get("findings"); list != nullptr) {
    if (list->kind != JsonValue::kArray) {
      *error = "findings is not an array";
      return false;
    }
    for (const JsonValue& item : list->arr) {
      if (item.kind != JsonValue::kObject) {
        *error = StrFormat("finding %zu is not an object", findings.size());
        return false;
      }
      Finding f;
      for (const auto& [key, value] : item.obj) {
        std::string* text = key == "rule"              ? &f.rule
                            : key == "file"            ? &f.file
                            : key == "message"         ? &f.message
                            : key == "note"            ? &f.note
                            : key == "suppress_reason" ? &f.suppress_reason
                                                       : nullptr;
        bool ok = true;
        if (text != nullptr) {
          ok = value.kind == JsonValue::kString;
          *text = value.str;
        } else if (key == "line") {
          ok = value.kind == JsonValue::kNumber;
          f.line = static_cast<int>(value.number);
        } else if (key == "suppressed") {
          ok = value.kind == JsonValue::kBool;
          f.suppressed = value.boolean;
        }
        if (!ok) {
          *error = StrFormat("finding %zu: bad \"%s\" field", findings.size(), key.c_str());
          return false;
        }
      }
      findings.push_back(std::move(f));
    }
  }
  *out = std::move(findings);
  return true;
}

// --- SARIF writer ------------------------------------------------------------

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  std::string out =
      "{\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"hwprof_lint\",\n"
      "          \"informationUri\": \"DESIGN.md\",\n"
      "          \"rules\": [";
  bool first = true;
  for (const RuleInfo& rule : kRules) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "            {\"id\": ";
    AppendJsonString(rule.id, &out);
    out += ", \"shortDescription\": {\"text\": ";
    AppendJsonString(rule.description, &out);
    out += "}}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "        {\"ruleId\": ";
    AppendJsonString(f.rule, &out);
    out += ", \"level\": \"warning\", \"message\": {\"text\": ";
    std::string text = f.message;
    if (!f.note.empty()) {
      text += " (" + f.note + ")";
    }
    AppendJsonString(text, &out);
    out += "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": ";
    AppendJsonString(f.file, &out);
    out += StrFormat("}, \"region\": {\"startLine\": %d}}}]",
                     f.line > 0 ? f.line : 1);
    if (f.suppressed) {
      out += ", \"suppressions\": [{\"kind\": \"inSource\", \"justification\": ";
      AppendJsonString(f.suppress_reason, &out);
      out += "}]";
    }
    out += "}";
  }
  out +=
      "\n      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace hwprof::lint
