#include "src/lint/callgraph.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/base/strings.h"

namespace hwprof::lint {

namespace {

// Effects clamp to [-8, 8]: deep enough for any real nesting, and the clamp
// bounds the solver — widening cannot run forever.
constexpr int kClamp = 8;
constexpr std::size_t kMaxWalkStates = 64;
constexpr std::size_t kMaxSleepHops = 8;
constexpr int kMaxRounds = 32;

int Clamp(int v) { return std::max(-kClamp, std::min(kClamp, v)); }

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::pair<std::string, std::string> SplitLast(const std::string& name) {
  const std::size_t pos = name.rfind("::");
  if (pos == std::string::npos) {
    return {"", name};
  }
  return {name.substr(0, pos), name.substr(pos + 2)};
}

// The per-path effect counters of the summary walk. A path's counters are
// intervals because callee effects are intervals.
struct WalkState {
  int spl_lo = 0, spl_hi = 0;
  int raw_lo = 0, raw_hi = 0;
  int emit_lo = 0, emit_hi = 0;
  int span_lo = 0, span_hi = 0;
};

std::string WalkKey(const WalkState& s) {
  return StrFormat("%d,%d,%d,%d,%d,%d,%d,%d", s.spl_lo, s.spl_hi, s.raw_lo,
                   s.raw_hi, s.emit_lo, s.emit_hi, s.span_lo, s.span_hi);
}

std::vector<WalkState> DedupAndCap(std::vector<WalkState> states) {
  std::vector<WalkState> out;
  std::set<std::string> seen;
  for (WalkState& st : states) {
    if (out.size() >= kMaxWalkStates) {
      break;
    }
    if (seen.insert(WalkKey(st)).second) {
      out.push_back(st);
    }
  }
  return out;
}

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
    const auto it = by_last.find(SplitLast(spelling).second);
    if (it != by_last.end()) {
      for (const std::string& name : it->second) {
        if (EndsWith(name, "::" + spelling) || EndsWith(spelling, "::" + name)) {
          out.push_back(name);
        }
      }
    }
    return out;
  }
  const std::string caller_qual = SplitLast(caller).first;
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

// The interval a call site charges the caller with: the callee's declared
// spl-effect when annotated (the contract callers code against), otherwise
// the widened computed interval over every resolution candidate.
struct CalleeEffect {
  WalkState eff;
  bool may_sleep = false;
};

CalleeEffect EffectOfTargets(const std::vector<std::string>& targets,
                             const std::map<std::string, FuncNode>& nodes,
                             const std::map<std::string, FuncSummary>& prev) {
  CalleeEffect out;
  bool first = true;
  for (const std::string& t : targets) {
    const auto sit = prev.find(t);
    if (sit == prev.end()) {
      continue;
    }
    FuncSummary s = sit->second;
    const auto nit = nodes.find(t);
    if (targets.size() == 1 && nit != nodes.end() && nit->second.has_annotation) {
      s.spl_lo = nit->second.annotation;
      s.spl_hi = nit->second.annotation;
    }
    out.may_sleep = out.may_sleep || s.may_sleep;
    if (first) {
      out.eff = WalkState{s.spl_lo, s.spl_hi, s.raw_lo, s.raw_hi,
                          s.emit_lo, s.emit_hi, s.span_lo, s.span_hi};
      first = false;
    } else {
      out.eff.spl_lo = std::min(out.eff.spl_lo, s.spl_lo);
      out.eff.spl_hi = std::max(out.eff.spl_hi, s.spl_hi);
      out.eff.raw_lo = std::min(out.eff.raw_lo, s.raw_lo);
      out.eff.raw_hi = std::max(out.eff.raw_hi, s.raw_hi);
      out.eff.emit_lo = std::min(out.eff.emit_lo, s.emit_lo);
      out.eff.emit_hi = std::max(out.eff.emit_hi, s.emit_hi);
      out.eff.span_lo = std::min(out.eff.span_lo, s.span_lo);
      out.eff.span_hi = std::max(out.eff.span_hi, s.span_hi);
    }
  }
  return out;
}

// One pass over one function definition with the previous round's summaries:
// net-effect intervals over all return paths, mirroring the path policy of
// the rule engine (if forks, loops zero-or-one, switches linear).
class EffectWalker {
 public:
  EffectWalker(const std::string& caller,
               const std::map<std::string, FuncNode>& nodes,
               const std::map<std::string, std::vector<std::string>>& by_last,
               const std::map<std::string, FuncSummary>& prev)
      : caller_(caller), nodes_(nodes), by_last_(by_last), prev_(prev) {}

  // Returns the aggregated interval state over every return path.
  WalkState Run(const Stmt& body) {
    std::vector<WalkState> states = Eval(body, {WalkState{}});
    for (const WalkState& st : states) {
      EndOfPath(st);
    }
    return any_path_ ? agg_ : WalkState{};
  }

 private:
  void EndOfPath(const WalkState& st) {
    if (!any_path_) {
      agg_ = st;
      any_path_ = true;
      return;
    }
    agg_.spl_lo = std::min(agg_.spl_lo, st.spl_lo);
    agg_.spl_hi = std::max(agg_.spl_hi, st.spl_hi);
    agg_.raw_lo = std::min(agg_.raw_lo, st.raw_lo);
    agg_.raw_hi = std::max(agg_.raw_hi, st.raw_hi);
    agg_.emit_lo = std::min(agg_.emit_lo, st.emit_lo);
    agg_.emit_hi = std::max(agg_.emit_hi, st.emit_hi);
    agg_.span_lo = std::min(agg_.span_lo, st.span_lo);
    agg_.span_hi = std::max(agg_.span_hi, st.span_hi);
  }

  void ApplyEvent(const Stmt& s, WalkState* st) {
    auto bump = [](int* lo, int* hi, int d) {
      *lo = Clamp(*lo + d);
      *hi = Clamp(*hi + d);
    };
    switch (s.event) {
      case EventKind::kSplRaise:
        bump(&st->spl_lo, &st->spl_hi, 1);
        break;
      case EventKind::kSplRestore:
        bump(&st->spl_lo, &st->spl_hi, -1);
        break;
      case EventKind::kSpl0:
        // Drops to the base level: the net effect can no longer be positive.
        // (Levels the *caller* raised are also dropped; that is the same
        // documented leniency spl0 gets in the intra-procedural rules.)
        st->spl_lo = std::min(st->spl_lo, 0);
        st->spl_hi = std::min(st->spl_hi, 0);
        break;
      case EventKind::kRawRaise:
        bump(&st->raw_lo, &st->raw_hi, 1);
        break;
      case EventKind::kRawRestore:
        bump(&st->raw_lo, &st->raw_hi, -1);
        break;
      case EventKind::kEntryEmit:
        bump(&st->emit_lo, &st->emit_hi, 1);
        break;
      case EventKind::kExitEmit:
        bump(&st->emit_lo, &st->emit_hi, -1);
        break;
      case EventKind::kObsSpanBegin:
        bump(&st->span_lo, &st->span_hi, 1);
        break;
      case EventKind::kObsSpanEnd:
        bump(&st->span_lo, &st->span_hi, -1);
        break;
      case EventKind::kCall: {
        const std::vector<std::string> targets =
            ResolveSpelling(s.what, caller_, nodes_, by_last_);
        if (targets.empty()) {
          break;  // external: neutral by policy
        }
        const CalleeEffect c = EffectOfTargets(targets, nodes_, prev_);
        st->spl_lo = Clamp(st->spl_lo + c.eff.spl_lo);
        st->spl_hi = Clamp(st->spl_hi + c.eff.spl_hi);
        st->raw_lo = Clamp(st->raw_lo + c.eff.raw_lo);
        st->raw_hi = Clamp(st->raw_hi + c.eff.raw_hi);
        st->emit_lo = Clamp(st->emit_lo + c.eff.emit_lo);
        st->emit_hi = Clamp(st->emit_hi + c.eff.emit_hi);
        st->span_lo = Clamp(st->span_lo + c.eff.span_lo);
        st->span_hi = Clamp(st->span_hi + c.eff.span_hi);
        break;
      }
      case EventKind::kSleep:
      case EventKind::kUnknownEmit:
        break;
    }
  }

  std::vector<WalkState> Eval(const Stmt& s, std::vector<WalkState> states) {
    if (states.empty()) {
      return states;
    }
    switch (s.kind) {
      case Stmt::Kind::kBlock: {
        for (const auto& child : s.children) {
          states = Eval(*child, std::move(states));
        }
        return states;
      }
      case Stmt::Kind::kIf: {
        std::vector<WalkState> taken = Eval(*s.children[0], states);
        std::vector<WalkState> other =
            s.children.size() > 1 ? Eval(*s.children[1], states) : states;
        taken.insert(taken.end(), other.begin(), other.end());
        return DedupAndCap(std::move(taken));
      }
      case Stmt::Kind::kLoop: {
        std::vector<WalkState> once = Eval(*s.children[0], states);
        once.insert(once.end(), states.begin(), states.end());
        return DedupAndCap(std::move(once));
      }
      case Stmt::Kind::kSwitch: {
        const std::vector<WalkState> entry = states;
        std::vector<WalkState> cur = states;
        for (const auto& child : s.children[0]->children) {
          cur = Eval(*child, std::move(cur));
          if (cur.empty()) {
            cur = entry;
          }
        }
        cur.insert(cur.end(), entry.begin(), entry.end());
        return DedupAndCap(std::move(cur));
      }
      case Stmt::Kind::kEvent: {
        for (WalkState& st : states) {
          ApplyEvent(s, &st);
        }
        return DedupAndCap(std::move(states));
      }
      case Stmt::Kind::kReturn: {
        for (const WalkState& st : states) {
          EndOfPath(st);
        }
        return {};
      }
    }
    return states;
  }

  const std::string& caller_;
  const std::map<std::string, FuncNode>& nodes_;
  const std::map<std::string, std::vector<std::string>>& by_last_;
  const std::map<std::string, FuncSummary>& prev_;
  WalkState agg_;
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
      for (const std::string& t : ResolveSpelling(s.what, caller, nodes, by_last)) {
        const auto it = prev.find(t);
        if (it == prev.end() || !it->second.may_sleep) {
          continue;
        }
        hops->clear();
        hops->push_back(SleepHop{t, file, s.line});
        for (const SleepHop& h : it->second.sleep_path) {
          if (hops->size() >= kMaxSleepHops) {
            break;
          }
          hops->push_back(h);
        }
        return true;
      }
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

bool FuncSummary::SameAs(const FuncSummary& o) const {
  if (spl_lo != o.spl_lo || spl_hi != o.spl_hi || raw_lo != o.raw_lo ||
      raw_hi != o.raw_hi || emit_lo != o.emit_lo || emit_hi != o.emit_hi ||
      span_lo != o.span_lo || span_hi != o.span_hi ||
      may_sleep != o.may_sleep || sleep_path.size() != o.sleep_path.size()) {
    return false;
  }
  for (std::size_t k = 0; k < sleep_path.size(); ++k) {
    const SleepHop& a = sleep_path[k];
    const SleepHop& b = o.sleep_path[k];
    if (a.what != b.what || a.file != b.file || a.line != b.line) {
      return false;
    }
  }
  return true;
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
    g.by_last_[SplitLast(name).second].push_back(name);
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

  // Merged summaries for ambiguous last components, from the final map.
  for (const auto& [last, names] : g.by_last_) {
    if (names.size() < 2) {
      continue;
    }
    FuncSummary merged;
    bool first = true;
    for (const std::string& name : names) {
      const FuncSummary& s = g.summaries_.at(name);
      if (first) {
        merged = s;
        merged.has_annotation = false;
        merged.annotation = 0;
        first = false;
        continue;
      }
      merged.spl_lo = std::min(merged.spl_lo, s.spl_lo);
      merged.spl_hi = std::max(merged.spl_hi, s.spl_hi);
      merged.raw_lo = std::min(merged.raw_lo, s.raw_lo);
      merged.raw_hi = std::max(merged.raw_hi, s.raw_hi);
      merged.emit_lo = std::min(merged.emit_lo, s.emit_lo);
      merged.emit_hi = std::max(merged.emit_hi, s.emit_hi);
      merged.span_lo = std::min(merged.span_lo, s.span_lo);
      merged.span_hi = std::max(merged.span_hi, s.span_hi);
      merged.in_cycle = merged.in_cycle || s.in_cycle;
      if (!merged.may_sleep && s.may_sleep) {
        merged.may_sleep = true;
        merged.sleep_path = s.sleep_path;
      }
    }
    g.merged_.emplace(last, std::move(merged));
  }
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
        EffectWalker walker(name, nodes_, by_last_, cur);
        const WalkState eff = walker.Run(*fn->body);
        if (first) {
          s.spl_lo = eff.spl_lo;
          s.spl_hi = eff.spl_hi;
          s.raw_lo = eff.raw_lo;
          s.raw_hi = eff.raw_hi;
          s.emit_lo = eff.emit_lo;
          s.emit_hi = eff.emit_hi;
          s.span_lo = eff.span_lo;
          s.span_hi = eff.span_hi;
          first = false;
        } else {
          s.spl_lo = std::min(s.spl_lo, eff.spl_lo);
          s.spl_hi = std::max(s.spl_hi, eff.spl_hi);
          s.raw_lo = std::min(s.raw_lo, eff.raw_lo);
          s.raw_hi = std::max(s.raw_hi, eff.raw_hi);
          s.emit_lo = std::min(s.emit_lo, eff.emit_lo);
          s.emit_hi = std::max(s.emit_hi, eff.emit_hi);
          s.span_lo = std::min(s.span_lo, eff.span_lo);
          s.span_hi = std::max(s.span_hi, eff.span_hi);
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
      if (!s.SameAs(cur.at(name))) {
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

const FuncSummary* CallGraph::EffectiveSummary(const std::string& spelling,
                                               const std::string& caller) const {
  const std::vector<std::string> targets = Resolve(spelling, caller);
  if (targets.empty()) {
    return nullptr;
  }
  if (targets.size() == 1) {
    const auto it = summaries_.find(targets[0]);
    return it == summaries_.end() ? nullptr : &it->second;
  }
  const auto it = merged_.find(SplitLast(spelling).second);
  return it == merged_.end() ? nullptr : &it->second;
}

std::string FormatSleepChain(const std::string& callee, const FuncSummary& summary) {
  std::string out = callee;
  for (const SleepHop& h : summary.sleep_path) {
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
      if (s.spl_lo != node.annotation || s.spl_hi != node.annotation) {
        Finding f;
        f.rule = "spl-imbalance-transitive";
        f.file = node.file;
        f.line = node.line;
        f.message = StrFormat(
            "'%s' declares spl-effect(%+d) but its computed net spl effect "
            "is [%d, %d]",
            name.c_str(), node.annotation, s.spl_lo, s.spl_hi);
        findings->push_back(std::move(f));
      }
    } else if (s.spl_hi < 0) {
      // Every return path lowers a level the caller raised: a restoring
      // helper that must declare its contract.
      Finding f;
      f.rule = "spl-imbalance-transitive";
      f.file = node.file;
      f.line = node.line;
      f.message = StrFormat(
          "'%s' restores the caller's interrupt level (net spl effect "
          "[%d, %d]) without declaring '// hwprof-lint: spl-effect(%+d)'",
          name.c_str(), s.spl_lo, s.spl_hi, s.spl_hi);
      findings->push_back(std::move(f));
    }

    // Interrupt-service roots must never reach a blocking call.
    const std::string last = SplitLast(name).second;
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
                         FormatSleepChain(name, s).c_str());
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
      if (s.spl_lo != 0 || s.spl_hi != 0 || s.raw_lo != 0 || s.raw_hi != 0 ||
          s.has_annotation) {
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
        s.spl_lo, s.spl_hi, s.raw_lo, s.raw_hi, s.emit_lo, s.emit_hi,
        s.span_lo, s.span_hi, s.may_sleep ? "true" : "false",
        s.in_cycle ? "true" : "false");
    if (node.has_annotation) {
      out += StrFormat(", \"annotation\": %d", node.annotation);
    }
    if (s.may_sleep) {
      out += ", \"sleep_chain\": ";
      AppendJsonString(FormatSleepChain(name, s), &out);
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
