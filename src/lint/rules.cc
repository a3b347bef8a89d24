#include "src/lint/rules.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "src/base/strings.h"
#include "src/lint/path_walk.h"

namespace hwprof::lint {

namespace {

// One open obligation on a path: a raise awaiting its restore, or an entry
// emit awaiting its exit emit.
struct Open {
  std::string var;   // variable the saved level lives in (may be empty)
  std::string what;  // the call that opened it (splnet, RawRaise, ...)
  int line = 0;
};

// The abstract machine state along one control-flow path. Each vector is a
// stack; balanced code leaves every stack empty at every return.
struct PathState {
  std::vector<Open> spl;    // splnet()-family raises not yet splx'd
  std::vector<Open> raw;    // RawRaise not yet RawRestore'd
  std::vector<Open> emits;  // raw entry emits not yet closed by an exit emit
  std::vector<Open> spans;  // OBS_SPAN_BEGIN not yet OBS_SPAN_END'd
};

// Pops the innermost entry whose var matches; when nothing matches (the
// level travelled through a rename or a struct member we do not track), pops
// the innermost entry anyway — leniency here trades recall for a near-zero
// false-positive rate.
void PopMatching(std::vector<Open>* stack, const std::string& var) {
  if (stack->empty()) {
    return;
  }
  if (!var.empty()) {
    for (auto it = stack->rbegin(); it != stack->rend(); ++it) {
      if (it->var == var) {
        stack->erase(std::next(it).base());
        return;
      }
    }
  }
  stack->pop_back();
}

// The rule checker's path walker (see path_walk.h): each path carries the
// open-obligation stacks, and findings are reported as events and returns
// are reached.
class FunctionChecker {
 public:
  FunctionChecker(const SourceFile& file, const FunctionModel& fn,
                  const CallGraph* graph, std::vector<Finding>* findings)
      : file_(file), fn_(fn), graph_(graph), findings_(findings) {}

  using State = PathState;

  void Run(std::vector<Open>* entry_unclosed, std::vector<Open>* exit_orphans) {
    entry_unclosed_ = entry_unclosed;
    exit_orphans_ = exit_orphans;
    if (fn_.body != nullptr) {
      WalkPaths(*fn_.body, *this);
    }
  }

  std::string Key(const PathState& st) const {
    std::string key;
    auto add = [&key](const std::vector<Open>& stack) {
      for (const Open& o : stack) {
        key += StrFormat("%s@%d;", o.var.c_str(), o.line);
      }
      key.push_back('|');
    };
    add(st.spl);
    add(st.raw);
    add(st.emits);
    add(st.spans);
    return key;
  }

  void EndOfPath(const PathState& st, int line) {
    // A declared spl-effect waives the per-path balance report: the function
    // intentionally leaves (or consumes) levels, and the whole-program pass
    // validates the declared count against the computed interval instead.
    if (!fn_.has_spl_effect) {
      for (const Open& o : st.spl) {
        Report("spl-balance", o.line,
               StrFormat("saved level from %s() is not restored by splx() on the "
                         "return path ending at line %d",
                         o.what.c_str(), line),
               StrFormat("in %s", fn_.name.c_str()));
      }
    }
    for (const Open& o : st.raw) {
      Report("spl-raw-balance", o.line,
             StrFormat("RawRaise() is not matched by RawRestore() on the return "
                       "path ending at line %d",
                       line),
             StrFormat("in %s", fn_.name.c_str()));
    }
    for (const Open& o : st.emits) {
      AddCandidate(entry_unclosed_, o);
    }
    for (const Open& o : st.spans) {
      Report("obs-span-balance", o.line,
             StrFormat("telemetry span '%s' opened by OBS_SPAN_BEGIN is not "
                       "closed by OBS_SPAN_END on the return path ending at "
                       "line %d",
                       o.var.c_str(), line),
             StrFormat("in %s", fn_.name.c_str()));
    }
  }

  void Apply(const Stmt& s, PathState* st) {
    switch (s.event) {
      case EventKind::kSplRaise:
        if (s.var.empty()) {
          if (fn_.has_spl_effect && fn_.spl_effect > 0) {
            // `return spl.splnet();` in an annotated raising helper: the
            // level is handed to the caller, not discarded.
            st->spl.push_back(Open{"", s.what, s.line});
          } else {
            Report("spl-balance", s.line,
                   StrFormat("result of %s() is discarded; the previous level "
                             "can never be restored",
                             s.what.c_str()),
                   StrFormat("in %s", fn_.name.c_str()));
          }
        } else {
          st->spl.push_back(Open{s.var, s.what, s.line});
        }
        break;
      case EventKind::kSplRestore:
        PopMatching(&st->spl, s.var);
        break;
      case EventKind::kSpl0:
        st->spl.clear();  // spl0 unconditionally drops to the base level
        break;
      case EventKind::kRawRaise:
        if (s.var.empty()) {
          Report("spl-raw-balance", s.line,
                 "result of RawRaise() is discarded; the previous level can "
                 "never be restored",
                 StrFormat("in %s", fn_.name.c_str()));
        } else {
          st->raw.push_back(Open{s.var, s.what, s.line});
        }
        break;
      case EventKind::kRawRestore:
        PopMatching(&st->raw, s.var);
        break;
      case EventKind::kSleep:
        if (!st->spl.empty()) {
          const Open& o = st->spl.back();
          Report("spl-sleep", s.line,
                 StrFormat("%s() may yield the CPU while %s() (line %d) holds "
                           "the interrupt level raised",
                           s.what.c_str(), o.what.c_str(), o.line),
                 StrFormat("in %s", fn_.name.c_str()));
        }
        if (!st->raw.empty()) {
          const Open& o = st->raw.back();
          Report("spl-sleep", s.line,
                 StrFormat("%s() may yield the CPU inside a RawRaise() region "
                           "(line %d)",
                           s.what.c_str(), o.line),
                 StrFormat("in %s", fn_.name.c_str()));
        }
        break;
      case EventKind::kEntryEmit:
        st->emits.push_back(Open{"", s.what, s.line});
        break;
      case EventKind::kExitEmit:
        if (!st->emits.empty()) {
          st->emits.pop_back();
        } else {
          AddCandidate(exit_orphans_, Open{"", s.what, s.line});
        }
        break;
      case EventKind::kObsSpanBegin:
        st->spans.push_back(Open{s.var, s.what, s.line});
        break;
      case EventKind::kObsSpanEnd:
        PopMatching(&st->spans, s.var);
        break;
      case EventKind::kUnknownEmit:
        Report("instr-raw-tag", s.line,
               "raw TriggerRead() whose tag cannot be statically classified as "
               "an entry or exit trigger",
               StrFormat("in %s", fn_.name.c_str()));
        break;
      case EventKind::kCall: {
        const std::optional<CallEffect> callee =
            graph_ == nullptr ? std::nullopt : graph_->EffectOfCall(s.what, fn_.name);
        if (!callee) {
          break;  // external callee: neutral by policy
        }
        if (callee->may_sleep) {
          if (!st->spl.empty()) {
            const Open& o = st->spl.back();
            Report("spl-sleep-transitive", s.line,
                   StrFormat("call to %s() can reach a blocking call while "
                             "%s() (line %d) holds the interrupt level raised",
                             s.what.c_str(), o.what.c_str(), o.line),
                   StrFormat("in %s; call chain: %s", fn_.name.c_str(),
                             FormatSleepChain(s.what, *callee->sleep_path).c_str()));
          } else if (!st->raw.empty()) {
            const Open& o = st->raw.back();
            Report("spl-sleep-transitive", s.line,
                   StrFormat("call to %s() can reach a blocking call inside a "
                             "RawRaise() region (line %d)",
                             s.what.c_str(), o.line),
                   StrFormat("in %s; call chain: %s", fn_.name.c_str(),
                             FormatSleepChain(s.what, *callee->sleep_path).c_str()));
          }
        }
        if (callee->has_annotation) {
          // The declared contract plays out on the caller's abstract stack:
          // a +n helper leaves n raises bound to the assigned variable, a -n
          // helper consumes n of the caller's open raises.
          if (callee->annotation > 0) {
            for (int k = 0; k < callee->annotation; ++k) {
              st->spl.push_back(Open{s.var, s.what, s.line});
            }
          } else {
            for (int k = 0; k < -callee->annotation; ++k) {
              PopMatching(&st->spl, s.var);
            }
          }
        }
        break;
      }
    }
  }

 private:
  void Report(const char* rule, int line, std::string message, std::string note = "") {
    if (!reported_.insert({rule, line}).second) {
      return;
    }
    Finding f;
    f.rule = rule;
    f.file = file_.path;
    f.line = line;
    f.message = std::move(message);
    f.note = std::move(note);
    findings_->push_back(std::move(f));
  }

  void AddCandidate(std::vector<Open>* list, const Open& open) {
    for (const Open& o : *list) {
      if (o.line == open.line) {
        return;
      }
    }
    list->push_back(open);
  }

  const SourceFile& file_;
  const FunctionModel& fn_;
  const CallGraph* graph_;
  std::vector<Finding>* findings_;
  std::vector<Open>* entry_unclosed_ = nullptr;
  std::vector<Open>* exit_orphans_ = nullptr;
  std::set<std::pair<std::string, int>> reported_;
};

std::string ClassOf(const std::string& qualifier) {
  return SplitLastComponent(qualifier).second;
}

bool IsConstructorName(const std::string& name) {
  auto [qual, last] = SplitLastComponent(name);
  return !qual.empty() && ClassOf(qual) == last;
}

bool IsDestructorName(const std::string& name) {
  auto [qual, last] = SplitLastComponent(name);
  return !qual.empty() && last == "~" + ClassOf(qual);
}

const char* TagKindName(TagKind kind) {
  switch (kind) {
    case TagKind::kFunction:
      return "function";
    case TagKind::kContextSwitch:
      return "context-switch";
    case TagKind::kInline:
      return "inline";
  }
  return "?";
}

}  // namespace

void CheckSourceFile(const SourceFile& file, const CallGraph* graph,
                     std::vector<Finding>* findings) {
  struct Candidates {
    const FunctionModel* fn = nullptr;
    std::vector<Open> entry_unclosed;
    std::vector<Open> exit_orphans;
  };
  std::vector<Candidates> cands;
  cands.reserve(file.functions.size());
  for (const FunctionModel& fn : file.functions) {
    FunctionChecker checker(file, fn, graph, findings);
    Candidates c;
    c.fn = &fn;
    checker.Run(&c.entry_unclosed, &c.exit_orphans);
    cands.push_back(std::move(c));
  }

  // A constructor that leaves an entry emit open pairs with a destructor of
  // the same class that emits a bare exit: together they are the RAII scope
  // idiom (ProfileScope), balanced across the object's lifetime. Waive both
  // sides; everything unpaired becomes a finding.
  for (Candidates& ctor : cands) {
    if (ctor.entry_unclosed.empty() || !IsConstructorName(ctor.fn->name)) {
      continue;
    }
    const std::string qual = SplitLastComponent(ctor.fn->name).first;
    for (Candidates& dtor : cands) {
      if (dtor.exit_orphans.empty() || !IsDestructorName(dtor.fn->name)) {
        continue;
      }
      if (SplitLastComponent(dtor.fn->name).first == qual) {
        ctor.entry_unclosed.clear();
        dtor.exit_orphans.clear();
        break;
      }
    }
  }

  for (const Candidates& c : cands) {
    for (const Open& o : c.entry_unclosed) {
      Finding f;
      f.rule = "instr-balance";
      f.file = file.path;
      f.line = o.line;
      f.message = StrFormat(
          "raw entry trigger emit in '%s' is not closed by an exit emit on "
          "every return path",
          c.fn->name.c_str());
      findings->push_back(std::move(f));
    }
    for (const Open& o : c.exit_orphans) {
      Finding f;
      f.rule = "instr-balance";
      f.file = file.path;
      f.line = o.line;
      f.message = StrFormat(
          "raw exit trigger emit in '%s' has no preceding entry emit on this "
          "path",
          c.fn->name.c_str());
      findings->push_back(std::move(f));
    }
  }

  findings->insert(findings->end(), file.notes.begin(), file.notes.end());
}

void CheckRegistrations(const std::vector<SourceFile>& files,
                        std::vector<Finding>* findings) {
  struct Site {
    const SourceFile* file;
    const Registration* reg;
  };
  std::map<std::string, std::vector<Site>> by_name;
  for (const SourceFile& file : files) {
    for (const Registration& reg : file.registrations) {
      by_name[reg.name].push_back(Site{&file, &reg});
      if (reg.kind == TagKind::kContextSwitch && !file.has_fiber_switch) {
        Finding f;
        f.rule = "tag-ctx";
        f.file = file.path;
        f.line = reg.line;
        f.message = StrFormat(
            "'%s' is registered as a context-switch function but this file "
            "never performs Fiber::Switch",
            reg.name.c_str());
        findings->push_back(std::move(f));
      }
    }
  }
  for (const auto& [name, sites] : by_name) {
    for (std::size_t k = 1; k < sites.size(); ++k) {
      if (sites[k].reg->kind != sites[0].reg->kind) {
        Finding f;
        f.rule = "reg-conflict";
        f.file = sites[k].file->path;
        f.line = sites[k].reg->line;
        f.message = StrFormat("'%s' re-registered as %s", name.c_str(),
                              TagKindName(sites[k].reg->kind));
        f.note = StrFormat("first registered as %s at %s:%d",
                           TagKindName(sites[0].reg->kind),
                           sites[0].file->path.c_str(), sites[0].reg->line);
        findings->push_back(std::move(f));
      }
    }
  }
}

void CheckTagFile(std::string_view path, std::string_view text,
                  const std::vector<SourceFile>* files,
                  std::vector<Finding>* findings) {
  TagFile tags;
  std::vector<TagDiag> diags;
  const bool ok = TagFile::Parse(text, &tags, &diags);
  for (const TagDiag& d : diags) {
    Finding f;
    f.rule = "tag-parse";
    f.file = std::string(path);
    f.line = d.line;
    f.message = d.message;
    findings->push_back(std::move(f));
  }
  if (!ok || files == nullptr) {
    return;
  }

  // Name -> 1-based line in the tag file, for attributing model findings.
  std::map<std::string, int, std::less<>> name_lines;
  {
    int line_no = 0;
    for (std::string_view raw : SplitLines(text)) {
      ++line_no;
      std::string_view line = StripWhitespace(raw);
      if (line.empty() || line.front() == '#') {
        continue;
      }
      const std::size_t slash = line.find('/');
      if (slash == std::string_view::npos) {
        continue;
      }
      name_lines.emplace(StripWhitespace(line.substr(0, slash)), line_no);
    }
  }
  auto line_of = [&name_lines](const std::string& name) {
    const auto it = name_lines.find(name);
    return it == name_lines.end() ? 0 : it->second;
  };

  struct Site {
    const SourceFile* file;
    const Registration* reg;
  };
  std::map<std::string, Site> regs;
  for (const SourceFile& file : *files) {
    for (const Registration& reg : file.registrations) {
      regs.emplace(reg.name, Site{&file, &reg});
    }
  }

  for (const TagEntry& e : tags.entries()) {
    const auto it = regs.find(e.name);
    if (e.kind == TagKind::kContextSwitch &&
        (it == regs.end() || it->second.reg->kind != TagKind::kContextSwitch)) {
      Finding f;
      f.rule = "tag-ctx";
      f.file = std::string(path);
      f.line = line_of(e.name);
      f.message = StrFormat(
          "'%s' carries the '!' context-switch marker but no analyzed source "
          "registers it as a context-switch function",
          e.name.c_str());
      if (it != regs.end()) {
        f.note = StrFormat("registered as %s at %s:%d",
                           TagKindName(it->second.reg->kind),
                           it->second.file->path.c_str(), it->second.reg->line);
      }
      findings->push_back(std::move(f));
      continue;
    }
    if (it == regs.end()) {
      continue;  // plenty of tagged functions never use raw registration
    }
    const Registration& reg = *it->second.reg;
    if (e.kind != TagKind::kContextSwitch &&
        reg.kind == TagKind::kContextSwitch) {
      Finding f;
      f.rule = "tag-ctx";
      f.file = std::string(path);
      f.line = line_of(e.name);
      f.message = StrFormat(
          "'%s' is registered as a context-switch function but its tag entry "
          "lacks the '!' marker",
          e.name.c_str());
      f.note = StrFormat("registered at %s:%d", it->second.file->path.c_str(),
                         reg.line);
      findings->push_back(std::move(f));
      continue;
    }
    if ((e.kind == TagKind::kInline) != (reg.kind == TagKind::kInline)) {
      Finding f;
      f.rule = "tag-model";
      f.file = std::string(path);
      f.line = line_of(e.name);
      f.message = StrFormat(
          "'%s' is %s '=' inline tag in the tag file but the source registers "
          "it as %s",
          e.name.c_str(), e.kind == TagKind::kInline ? "an" : "not an",
          e.kind == TagKind::kInline ? "an entry/exit pair" : "an inline tag");
      f.note = StrFormat("registered at %s:%d", it->second.file->path.c_str(),
                         reg.line);
      findings->push_back(std::move(f));
    }
  }
}

std::size_t ApplySuppressions(const std::vector<SourceFile>& files,
                              std::vector<Finding>* findings) {
  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& file : files) {
    by_path.emplace(file.path, &file);
  }
  std::size_t suppressed = 0;
  for (Finding& f : *findings) {
    if (f.suppressed) {
      continue;
    }
    const auto it = by_path.find(f.file);
    if (it == by_path.end()) {
      continue;
    }
    for (const Suppression& sup : it->second->suppressions) {
      // A suppression covers its own line (trailing comment) and the line
      // directly below it (comment above the offending statement).
      if (sup.line != f.line && sup.line + 1 != f.line) {
        continue;
      }
      if (std::find(sup.rules.begin(), sup.rules.end(), f.rule) == sup.rules.end()) {
        continue;
      }
      f.suppressed = true;
      f.suppress_reason = sup.reason;
      ++suppressed;
      break;
    }
  }
  return suppressed;
}

}  // namespace hwprof::lint
