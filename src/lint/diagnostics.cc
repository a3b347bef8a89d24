#include "src/lint/diagnostics.h"

#include <algorithm>
#include <cctype>

#include "src/base/strings.h"

namespace hwprof::lint {

const std::vector<std::string>& KnownRules() {
  static const std::vector<std::string> kRules = {
      "spl-balance",       "spl-raw-balance",    "spl-sleep",
      "instr-balance",     "instr-raw-tag",      "reg-conflict",
      "tag-parse",         "tag-ctx",            "tag-model",
      "trace-unknown-tag", "trace-orphan-exit",  "trace-unclosed-entry",
      "obs-span-balance",  "bad-suppression",    "spl-sleep-transitive",
      "intr-blocking",     "spl-imbalance-transitive",
      "call-cycle",        "bad-annotation",
  };
  return kRules;
}

std::string_view RuleDescription(std::string_view rule) {
  if (rule == "spl-balance") {
    return "splnet()-family raise without splx on some return path";
  }
  if (rule == "spl-raw-balance") {
    return "RawRaise without RawRestore on some return path";
  }
  if (rule == "spl-sleep") {
    return "sleep primitive reached while the interrupt level is raised";
  }
  if (rule == "spl-sleep-transitive") {
    return "raised-IPL path calls a function that can block at some depth";
  }
  if (rule == "intr-blocking") {
    return "interrupt-context function can reach a blocking call";
  }
  if (rule == "spl-imbalance-transitive") {
    return "helper's net spl effect disagrees with its spl-effect annotation";
  }
  if (rule == "call-cycle") {
    return "recursion cycle carrying a non-zero interrupt-level effect";
  }
  if (rule == "instr-balance") {
    return "raw entry trigger emit without a matching exit emit";
  }
  if (rule == "instr-raw-tag") {
    return "raw TriggerRead whose tag cannot be classified";
  }
  if (rule == "reg-conflict") {
    return "function registered with conflicting kinds";
  }
  if (rule == "tag-parse") {
    return "malformed tag file";
  }
  if (rule == "tag-ctx") {
    return "context-switch marker not backed by the scheduler";
  }
  if (rule == "tag-model") {
    return "tag-file entry kind disagrees with the source registration";
  }
  if (rule == "trace-unknown-tag") {
    return "decoded trace carried tags missing from the model";
  }
  if (rule == "trace-orphan-exit") {
    return "decoded exits with no matching entry";
  }
  if (rule == "trace-unclosed-entry") {
    return "decoded entries never closed by an exit";
  }
  if (rule == "obs-span-balance") {
    return "OBS_SPAN_BEGIN without a matching OBS_SPAN_END";
  }
  if (rule == "bad-suppression") {
    return "malformed suppression comment";
  }
  if (rule == "bad-annotation") {
    return "malformed or misattached spl-effect annotation";
  }
  return "hwprof_lint finding";
}

bool IsKnownRule(std::string_view rule) {
  const auto& rules = KnownRules();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
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

namespace {

// Minimal recursive-descent parser for the subset of JSON the writer above
// produces: objects, arrays, strings (with the escapes we emit), integers,
// and booleans.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool error() const { return error_; }
  const std::string& message() const { return message_; }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    Fail(StrFormat("expected '%c' at offset %zu", c, pos_));
    return false;
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool ReadString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              Fail("truncated \\u escape");
              return false;
            }
            unsigned value = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[pos_++];
              value <<= 4;
              if (h >= '0' && h <= '9') {
                value |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                value |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                value |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                Fail("bad \\u escape digit");
                return false;
              }
            }
            c = static_cast<char>(value & 0xFF);
            break;
          }
          default:
            c = esc;  // \" \\ \/ and anything else map to themselves
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) {
      Fail("unterminated string");
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool ReadInt(long long* out) {
    SkipWs();
    bool negative = false;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      Fail(StrFormat("expected a number at offset %zu", pos_));
      return false;
    }
    long long value = 0;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + (text_[pos_++] - '0');
    }
    *out = negative ? -value : value;
    return true;
  }

  bool ReadBool(bool* out) {
    SkipWs();
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      *out = true;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      *out = false;
      return true;
    }
    Fail(StrFormat("expected a boolean at offset %zu", pos_));
    return false;
  }

  // Skips any value (used for unrecognized keys, e.g. the totals).
  bool SkipValue() {
    SkipWs();
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    if (c == '"') {
      std::string ignored;
      return ReadString(&ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      SkipWs();
      if (Peek(close)) {
        ++pos_;
        return true;
      }
      while (true) {
        if (c == '{') {
          std::string key;
          if (!ReadString(&key) || !Consume(':')) {
            return false;
          }
        }
        if (!SkipValue()) {
          return false;
        }
        SkipWs();
        if (Peek(',')) {
          ++pos_;
          continue;
        }
        return Consume(close);
      }
    }
    if (c == 't' || c == 'f') {
      bool ignored = false;
      return ReadBool(&ignored);
    }
    long long ignored = 0;
    return ReadInt(&ignored);
  }

  void Fail(std::string message) {
    if (!error_) {
      error_ = true;
      message_ = std::move(message);
    }
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool error_ = false;
  std::string message_;
};

}  // namespace

bool FindingsFromJson(std::string_view json, std::vector<Finding>* out, std::string* error) {
  JsonReader r(json);
  std::vector<Finding> findings;
  if (!r.Consume('{')) {
    *error = r.message();
    return false;
  }
  while (!r.Peek('}')) {
    std::string key;
    if (!r.ReadString(&key) || !r.Consume(':')) {
      *error = r.message();
      return false;
    }
    if (key != "findings") {
      if (!r.SkipValue()) {
        *error = r.message();
        return false;
      }
    } else {
      if (!r.Consume('[')) {
        *error = r.message();
        return false;
      }
      while (!r.Peek(']')) {
        if (!r.Consume('{')) {
          *error = r.message();
          return false;
        }
        Finding f;
        while (!r.Peek('}')) {
          std::string field;
          if (!r.ReadString(&field) || !r.Consume(':')) {
            *error = r.message();
            return false;
          }
          bool ok = true;
          if (field == "rule") {
            ok = r.ReadString(&f.rule);
          } else if (field == "file") {
            ok = r.ReadString(&f.file);
          } else if (field == "line") {
            long long line = 0;
            ok = r.ReadInt(&line);
            f.line = static_cast<int>(line);
          } else if (field == "message") {
            ok = r.ReadString(&f.message);
          } else if (field == "note") {
            ok = r.ReadString(&f.note);
          } else if (field == "suppressed") {
            ok = r.ReadBool(&f.suppressed);
          } else if (field == "suppress_reason") {
            ok = r.ReadString(&f.suppress_reason);
          } else {
            ok = r.SkipValue();
          }
          if (!ok) {
            *error = r.message();
            return false;
          }
          if (r.Peek(',')) {
            r.Consume(',');
          }
        }
        if (!r.Consume('}')) {
          *error = r.message();
          return false;
        }
        findings.push_back(std::move(f));
        if (r.Peek(',')) {
          r.Consume(',');
        }
      }
      if (!r.Consume(']')) {
        *error = r.message();
        return false;
      }
    }
    if (r.Peek(',')) {
      r.Consume(',');
    }
  }
  if (!r.Consume('}')) {
    *error = r.message();
    return false;
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
  for (const std::string& rule : KnownRules()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "            {\"id\": ";
    AppendJsonString(rule, &out);
    out += ", \"shortDescription\": {\"text\": ";
    AppendJsonString(RuleDescription(rule), &out);
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
