#include "src/lint/callgraph.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/base/strings.h"
#include "src/lint/path_walk.h"

namespace hwprof::lint {

namespace {

constexpr int kClamp = 8;  // Interval ends stay in [-kClamp, kClamp]
constexpr std::size_t kMaxSleepHops = 8;
constexpr int kMaxRounds = 32;

// Resolves a call spelling against the node set. See callgraph.h for the
// resolution order; returns node names, empty when external.
std::vector<std::string> ResolveSpelling(
    const std::string& spelling, const std::string& caller,
    const std::map<std::string, FuncNode>& nodes,
    const std::map<std::string, std::vector<std::string>>& by_last) {
  if (spelling.find("::") != std::string::npos) {
    if (nodes.count(spelling) != 0) {
      return {spelling};
    }
    // Suffix-compatible matches: the spelling and the node name agree on
    // their trailing components (one may carry extra qualification the other
    // lacks, e.g. a namespace the model does not record).
    std::vector<std::string> out;
    const auto it = by_last.find(SplitLastComponent(spelling).second);
    if (it != by_last.end()) {
      for (const std::string& name : it->second) {
        if (EndsWith(name, "::" + spelling) || EndsWith(spelling, "::" + name)) {
          out.push_back(name);
        }
      }
    }
    return out;
  }
  const std::string caller_qual = SplitLastComponent(caller).first;
  if (!caller_qual.empty()) {
    const std::string method = caller_qual + "::" + spelling;
    if (nodes.count(method) != 0) {
      return {method};
    }
  }
  const auto it = by_last.find(spelling);
  if (it != by_last.end()) {
    return it->second;
  }
  return {};
}

// The one call-site rule (see CallEffect), against `summaries`: the rule
// checker passes the final summaries, the solver its previous round's.
std::optional<CallEffect> EffectOfCall(
    const std::string& spelling, const std::string& caller,
    const std::map<std::string, FuncNode>& nodes,
    const std::map<std::string, std::vector<std::string>>& by_last,
    const std::map<std::string, FuncSummary>& summaries) {
  const std::vector<std::string> targets =
      ResolveSpelling(spelling, caller, nodes, by_last);
  if (targets.empty()) {
    return std::nullopt;  // external: neutral by policy
  }
  CallEffect out;
  bool first = true;
  for (const std::string& t : targets) {
    const auto sit = summaries.find(t);
    if (sit == summaries.end()) {
      continue;
    }
    const FuncSummary& s = sit->second;
    Effects eff = s;
    const FuncNode& node = nodes.at(t);
    if (targets.size() == 1 && node.has_annotation) {
      eff.spl = Interval{node.annotation, node.annotation};
      out.has_annotation = true;
      out.annotation = node.annotation;
    }
    if (first) {
      out.eff = eff;
      first = false;
    } else {
      out.eff.Widen(eff);
    }
    if (s.may_sleep && !out.may_sleep) {
      out.may_sleep = true;
      out.sleep_target = &sit->first;
      out.sleep_path = &s.sleep_path;
    }
  }
  return out;
}

// The solver's path walker over one function definition with the previous
// round's summaries: each path carries its running net effect, and the
// function's effect is the widening over every return path.
class EffectWalker {
 public:
  using State = Effects;

  EffectWalker(const std::string& caller,
               const std::map<std::string, FuncNode>& nodes,
               const std::map<std::string, std::vector<std::string>>& by_last,
               const std::map<std::string, FuncSummary>& prev)
      : caller_(caller), nodes_(nodes), by_last_(by_last), prev_(prev) {}

  Effects Run(const Stmt& body) {
    WalkPaths(body, *this);
    return agg_;
  }

  const Effects& Key(const Effects& s) const { return s; }

  void EndOfPath(const Effects& st, int /*line*/) {
    if (any_path_) {
      agg_.Widen(st);
    } else {
      agg_ = st;
      any_path_ = true;
    }
  }

  void Apply(const Stmt& s, Effects* st) {
    switch (s.event) {
      case EventKind::kSplRaise:
        st->spl.Add({1, 1});
        break;
      case EventKind::kSplRestore:
        st->spl.Add({-1, -1});
        break;
      case EventKind::kSpl0:
        // Drops to the base level: the net effect can no longer be positive.
        // (Levels the *caller* raised are also dropped; that is the same
        // documented leniency spl0 gets in the intra-procedural rules.)
        st->spl = Interval{std::min(st->spl.lo, 0), std::min(st->spl.hi, 0)};
        break;
      case EventKind::kRawRaise:
        st->raw.Add({1, 1});
        break;
      case EventKind::kRawRestore:
        st->raw.Add({-1, -1});
        break;
      case EventKind::kEntryEmit:
        st->emit.Add({1, 1});
        break;
      case EventKind::kExitEmit:
        st->emit.Add({-1, -1});
        break;
      case EventKind::kObsSpanBegin:
        st->span.Add({1, 1});
        break;
      case EventKind::kObsSpanEnd:
        st->span.Add({-1, -1});
        break;
      case EventKind::kCall:
        if (const auto c = EffectOfCall(s.what, caller_, nodes_, by_last_, prev_)) {
          st->Add(c->eff);
        }
        break;
      case EventKind::kSleep:
      case EventKind::kUnknownEmit:
        break;
    }
  }

 private:
  const std::string& caller_;
  const std::map<std::string, FuncNode>& nodes_;
  const std::map<std::string, std::vector<std::string>>& by_last_;
  const std::map<std::string, FuncSummary>& prev_;
  Effects agg_;
  bool any_path_ = false;
};

// Pre-order search for the first way this function can block: a direct sleep
// primitive, or a call whose (previous-round) summary may sleep. The first
// hit becomes the representative chain; pre-order plus sorted resolution
// keeps it deterministic.
bool FindSleepPath(const Stmt& s, const std::string& caller,
                   const std::string& file,
                   const std::map<std::string, FuncNode>& nodes,
                   const std::map<std::string, std::vector<std::string>>& by_last,
                   const std::map<std::string, FuncSummary>& prev,
                   std::vector<SleepHop>* hops) {
  if (s.kind == Stmt::Kind::kEvent) {
    if (s.event == EventKind::kSleep) {
      hops->clear();
      hops->push_back(SleepHop{s.what, file, s.line});
      return true;
    }
    if (s.event == EventKind::kCall) {
      const auto c = EffectOfCall(s.what, caller, nodes, by_last, prev);
      if (!c || !c->may_sleep) {
        return false;
      }
      hops->clear();
      hops->push_back(SleepHop{*c->sleep_target, file, s.line});
      for (const SleepHop& h : *c->sleep_path) {
        if (hops->size() >= kMaxSleepHops) {
          break;
        }
        hops->push_back(h);
      }
      return true;
    }
    return false;
  }
  for (const auto& child : s.children) {
    if (FindSleepPath(*child, caller, file, nodes, by_last, prev, hops)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void Interval::Add(Interval d) {
  lo = std::clamp(lo + d.lo, -kClamp, kClamp);
  hi = std::clamp(hi + d.hi, -kClamp, kClamp);
}

void Interval::Widen(Interval o) {
  lo = std::min(lo, o.lo);
  hi = std::max(hi, o.hi);
}

void Effects::Add(const Effects& d) {
  spl.Add(d.spl);
  raw.Add(d.raw);
  emit.Add(d.emit);
  span.Add(d.span);
}

void Effects::Widen(const Effects& o) {
  spl.Widen(o.spl);
  raw.Widen(o.raw);
  emit.Widen(o.emit);
  span.Widen(o.span);
}

std::pair<std::string, std::string> SplitLastComponent(const std::string& name) {
  const std::size_t pos = name.rfind("::");
  if (pos == std::string::npos) {
    return {"", name};
  }
  return {name.substr(0, pos), name.substr(pos + 2)};
}

CallGraph CallGraph::Build(const std::vector<SourceFile>& files) {
  CallGraph g;

  // Nodes: one per qualified function name; all same-name definitions share
  // it. Attribution goes to the (file, line)-smallest definition so the
  // graph is independent of analysis order.
  for (const SourceFile& file : files) {
    for (const FunctionModel& fn : file.functions) {
      if (fn.is_lambda) {
        continue;  // not callable by name; checked intra-procedurally only
      }
      FuncNode& node = g.nodes_[fn.name];
      if (node.name.empty() || file.path < node.file ||
          (file.path == node.file && fn.line < node.line)) {
        node.name = fn.name;
        node.file = file.path;
        node.line = fn.line;
      }
      node.defs.push_back(&fn);
      node.def_files.push_back(&file);
      if (fn.has_spl_effect && !node.has_annotation) {
        node.has_annotation = true;
        node.annotation = fn.spl_effect;
      }
    }
  }
  for (auto& [name, node] : g.nodes_) {
    // Deterministic definition order regardless of input order.
    std::vector<std::size_t> idx(node.defs.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      idx[k] = k;
    }
    std::sort(idx.begin(), idx.end(), [&node](std::size_t a, std::size_t b) {
      const auto ka = std::make_pair(node.def_files[a]->path, node.defs[a]->line);
      const auto kb = std::make_pair(node.def_files[b]->path, node.defs[b]->line);
      return ka < kb;
    });
    std::vector<const FunctionModel*> defs;
    std::vector<const SourceFile*> def_files;
    for (std::size_t k : idx) {
      defs.push_back(node.defs[k]);
      def_files.push_back(node.def_files[k]);
    }
    node.defs = std::move(defs);
    node.def_files = std::move(def_files);
    g.by_last_[SplitLastComponent(name).second].push_back(name);
  }

  // Call-site edges, resolved once (resolution depends only on the node
  // set, never on summaries).
  for (auto& [name, node] : g.nodes_) {
    std::set<std::pair<std::string, int>> seen;
    for (const FunctionModel* fn : node.defs) {
      if (fn->body == nullptr) {
        continue;
      }
      std::vector<const Stmt*> stack{fn->body.get()};
      while (!stack.empty()) {
        const Stmt* s = stack.back();
        stack.pop_back();
        if (s->kind == Stmt::Kind::kEvent && s->event == EventKind::kCall &&
            seen.insert({s->what, s->line}).second) {
          CallSite site;
          site.spelling = s->what;
          site.line = s->line;
          site.targets = ResolveSpelling(s->what, name, g.nodes_, g.by_last_);
          node.calls.push_back(std::move(site));
        }
        for (auto it = s->children.rbegin(); it != s->children.rend(); ++it) {
          stack.push_back(it->get());
        }
      }
    }
    std::sort(node.calls.begin(), node.calls.end(),
              [](const CallSite& a, const CallSite& b) {
                return std::tie(a.line, a.spelling) < std::tie(b.line, b.spelling);
              });
  }

  g.ComputeSummaries();
  g.FindCycles();

  return g;
}

void CallGraph::ComputeSummaries() {
  std::map<std::string, FuncSummary> cur;
  for (const auto& [name, node] : nodes_) {
    FuncSummary s;
    s.has_annotation = node.has_annotation;
    s.annotation = node.annotation;
    cur.emplace(name, std::move(s));
  }
  // Jacobi iteration: each round recomputes every summary from the previous
  // round's map, in sorted name order, so file order cannot influence the
  // fixed point. Monotone widening plus the clamp bounds the round count;
  // kMaxRounds is a safety net (an unconverged graph stays conservative).
  for (rounds_ = 0; rounds_ < kMaxRounds; ++rounds_) {
    std::map<std::string, FuncSummary> next;
    bool changed = false;
    for (const auto& [name, node] : nodes_) {
      FuncSummary s;
      s.has_annotation = node.has_annotation;
      s.annotation = node.annotation;
      bool first = true;
      for (std::size_t k = 0; k < node.defs.size(); ++k) {
        const FunctionModel* fn = node.defs[k];
        if (fn->body == nullptr) {
          continue;
        }
        const Effects eff = EffectWalker(name, nodes_, by_last_, cur).Run(*fn->body);
        if (first) {
          static_cast<Effects&>(s) = eff;
          first = false;
        } else {
          s.Widen(eff);
        }
        if (!s.may_sleep) {
          std::vector<SleepHop> hops;
          if (FindSleepPath(*fn->body, name, node.def_files[k]->path, nodes_,
                            by_last_, cur, &hops)) {
            s.may_sleep = true;
            s.sleep_path = std::move(hops);
          }
        }
      }
      if (s != cur.at(name)) {
        changed = true;
      }
      next.emplace(name, std::move(s));
    }
    cur = std::move(next);
    if (!changed) {
      ++rounds_;
      break;
    }
  }
  summaries_ = std::move(cur);
}

void CallGraph::FindCycles() {
  // Tarjan SCC over unambiguous edges only (edges fanned out through an
  // ambiguous last-component match would fabricate cycles between unrelated
  // classes).
  std::map<std::string, std::vector<std::string>> edges;
  for (const auto& [name, node] : nodes_) {
    std::vector<std::string>& out = edges[name];
    for (const CallSite& site : node.calls) {
      if (site.targets.size() == 1) {
        out.push_back(site.targets[0]);
      }
    }
  }
  struct Info {
    int index = -1;
    int lowlink = 0;
    bool on_stack = false;
  };
  std::map<std::string, Info> info;
  std::vector<std::string> stack;
  int counter = 0;

  // Iterative Tarjan: each frame tracks the next edge to explore.
  struct Frame {
    const std::string* name;
    std::size_t next_edge = 0;
  };
  for (const auto& [root, unused] : nodes_) {
    if (info[root].index != -1) {
      continue;
    }
    std::vector<Frame> frames{Frame{&root}};
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::string& name = *f.name;
      Info& me = info[name];
      if (f.next_edge == 0 && me.index == -1) {
        me.index = me.lowlink = counter++;
        me.on_stack = true;
        stack.push_back(name);
      }
      const std::vector<std::string>& out = edges[name];
      bool descended = false;
      while (f.next_edge < out.size()) {
        const std::string& to = out[f.next_edge];
        ++f.next_edge;
        Info& other = info[to];
        if (other.index == -1) {
          const auto it = edges.find(to);
          frames.push_back(Frame{&it->first});
          descended = true;
          break;
        }
        if (other.on_stack) {
          me.lowlink = std::min(me.lowlink, other.index);
        }
      }
      if (descended) {
        continue;
      }
      if (me.lowlink == me.index) {
        std::vector<std::string> scc;
        while (true) {
          const std::string popped = stack.back();
          stack.pop_back();
          info[popped].on_stack = false;
          scc.push_back(popped);
          if (popped == name) {
            break;
          }
        }
        bool is_cycle = scc.size() > 1;
        if (!is_cycle) {
          for (const std::string& to : edges[scc[0]]) {
            if (to == scc[0]) {
              is_cycle = true;  // direct self-recursion
              break;
            }
          }
        }
        if (is_cycle) {
          std::sort(scc.begin(), scc.end());
          cycles_.push_back(std::move(scc));
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        Info& parent = info[*frames.back().name];
        parent.lowlink = std::min(parent.lowlink, me.lowlink);
      }
    }
  }
  std::sort(cycles_.begin(), cycles_.end());
  for (const auto& cycle : cycles_) {
    for (const std::string& name : cycle) {
      summaries_[name].in_cycle = true;
    }
  }
}

std::vector<std::string> CallGraph::Resolve(const std::string& spelling,
                                            const std::string& caller) const {
  return ResolveSpelling(spelling, caller, nodes_, by_last_);
}

std::optional<CallEffect> CallGraph::EffectOfCall(const std::string& spelling,
                                                  const std::string& caller) const {
  return lint::EffectOfCall(spelling, caller, nodes_, by_last_, summaries_);
}

std::string FormatSleepChain(const std::string& callee,
                             const std::vector<SleepHop>& sleep_path) {
  std::string out = callee;
  for (const SleepHop& h : sleep_path) {
    out += StrFormat(" -> %s (%s:%d)", h.what.c_str(), h.file.c_str(), h.line);
  }
  return out;
}

void CheckCallGraph(const CallGraph& graph, std::vector<Finding>* findings) {
  for (const auto& [name, node] : graph.nodes()) {
    const FuncSummary& s = graph.summaries().at(name);

    // Annotation conflicts across multiple definitions of one name.
    for (const FunctionModel* fn : node.defs) {
      if (fn->has_spl_effect && fn->spl_effect != node.annotation) {
        Finding f;
        f.rule = "bad-annotation";
        f.file = node.file;
        f.line = node.line;
        f.message = StrFormat(
            "definitions of '%s' declare conflicting spl-effect annotations "
            "(%+d vs %+d)",
            name.c_str(), node.annotation, fn->spl_effect);
        findings->push_back(std::move(f));
        break;
      }
    }

    if (node.has_annotation) {
      // The declared contract must match the computed effect exactly.
      if (s.spl != Interval{node.annotation, node.annotation}) {
        Finding f;
        f.rule = "spl-imbalance-transitive";
        f.file = node.file;
        f.line = node.line;
        f.message = StrFormat(
            "'%s' declares spl-effect(%+d) but its computed net spl effect "
            "is [%d, %d]",
            name.c_str(), node.annotation, s.spl.lo, s.spl.hi);
        findings->push_back(std::move(f));
      }
    } else if (s.spl.hi < 0) {
      // Every return path lowers a level the caller raised: a restoring
      // helper that must declare its contract.
      Finding f;
      f.rule = "spl-imbalance-transitive";
      f.file = node.file;
      f.line = node.line;
      f.message = StrFormat(
          "'%s' restores the caller's interrupt level (net spl effect "
          "[%d, %d]) without declaring '// hwprof-lint: spl-effect(%+d)'",
          name.c_str(), s.spl.lo, s.spl.hi, s.spl.hi);
      findings->push_back(std::move(f));
    }

    // Interrupt-service roots must never reach a blocking call.
    const std::string last = SplitLastComponent(name).second;
    const bool intr_root = EndsWith(last, "Intr") || last == "ServiceIrq" ||
                           last == "ServiceHardIrqs" || last == "ServiceSoft";
    if (intr_root && s.may_sleep) {
      Finding f;
      f.rule = "intr-blocking";
      f.file = s.sleep_path.empty() ? node.file : s.sleep_path[0].file;
      f.line = s.sleep_path.empty() ? node.line : s.sleep_path[0].line;
      f.message = StrFormat(
          "interrupt-context function '%s' can reach a blocking call",
          name.c_str());
      f.note = StrFormat("call chain: %s",
                         FormatSleepChain(name, s.sleep_path).c_str());
      findings->push_back(std::move(f));
    }
  }

  // Recursion cycles that carry a level effect: the solver widened them, so
  // the summaries are sound but the discipline itself is suspect (each
  // iteration leaks or double-restores a level).
  for (const auto& cycle : graph.cycles()) {
    bool effectful = false;
    for (const std::string& name : cycle) {
      const FuncSummary& s = graph.summaries().at(name);
      if (s.spl != Interval{} || s.raw != Interval{} || s.has_annotation) {
        effectful = true;
        break;
      }
    }
    if (!effectful) {
      continue;  // balanced recursion is fine
    }
    const FuncNode& node = graph.nodes().at(cycle[0]);
    std::string members;
    for (const std::string& name : cycle) {
      if (!members.empty()) {
        members += " -> ";
      }
      members += name;
    }
    members += " -> " + cycle[0];
    Finding f;
    f.rule = "call-cycle";
    f.file = node.file;
    f.line = node.line;
    f.message = StrFormat(
        "recursion cycle carries a non-zero interrupt-level effect; the "
        "summary solver widened it conservatively");
    f.note = StrFormat("cycle: %s", members.c_str());
    findings->push_back(std::move(f));
  }
}

std::string CallGraphToJson(const CallGraph& graph) {
  std::string out = "{\n    \"nodes\": [";
  bool first_node = true;
  for (const auto& [name, node] : graph.nodes()) {
    const FuncSummary& s = graph.summaries().at(name);
    out += first_node ? "\n" : ",\n";
    first_node = false;
    out += "      {\"name\": ";
    AppendJsonString(name, &out);
    out += ", \"file\": ";
    AppendJsonString(node.file, &out);
    out += StrFormat(", \"line\": %d", node.line);
    out += StrFormat(
        ", \"summary\": {\"spl\": [%d, %d], \"raw\": [%d, %d], \"emit\": "
        "[%d, %d], \"span\": [%d, %d], \"may_sleep\": %s, \"in_cycle\": %s",
        s.spl.lo, s.spl.hi, s.raw.lo, s.raw.hi, s.emit.lo, s.emit.hi,
        s.span.lo, s.span.hi, s.may_sleep ? "true" : "false",
        s.in_cycle ? "true" : "false");
    if (node.has_annotation) {
      out += StrFormat(", \"annotation\": %d", node.annotation);
    }
    if (s.may_sleep) {
      out += ", \"sleep_chain\": ";
      AppendJsonString(FormatSleepChain(name, s.sleep_path), &out);
    }
    out += "}";
    out += ", \"calls\": [";
    bool first_call = true;
    for (const CallSite& site : node.calls) {
      out += first_call ? "" : ", ";
      first_call = false;
      out += "{\"spelling\": ";
      AppendJsonString(site.spelling, &out);
      out += StrFormat(", \"line\": %d, \"targets\": [", site.line);
      bool first_target = true;
      for (const std::string& t : site.targets) {
        out += first_target ? "" : ", ";
        first_target = false;
        AppendJsonString(t, &out);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "\n    ],\n    \"cycles\": [";
  bool first_cycle = true;
  for (const auto& cycle : graph.cycles()) {
    out += first_cycle ? "" : ", ";
    first_cycle = false;
    out += "[";
    bool first_member = true;
    for (const std::string& name : cycle) {
      out += first_member ? "" : ", ";
      first_member = false;
      AppendJsonString(name, &out);
    }
    out += "]";
  }
  out += StrFormat("],\n    \"solver_rounds\": %d\n  }", graph.solver_rounds());
  return out;
}

}  // namespace hwprof::lint
