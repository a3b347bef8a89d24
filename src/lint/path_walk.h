// The one path walk over a function's control-flow skeleton, shared by the
// rule checker (rules.cc) and the summary solver (callgraph.cc). The two
// passes differ only in what they track per path: a walker supplies
//
//   using State = ...;                          the per-path state
//   void Apply(const Stmt& event, State* st);   the per-event transfer
//   K Key(const State& st);                     any ordered K; states with
//                                               equal keys are one path
//   void EndOfPath(const State& st, int line);  a path ended at `line`
//
// Path policy: blocks run in order, an if forks (then-paths before
// else-paths), a loop body runs zero or one time (one pass surfaces any
// per-iteration imbalance; the zero case keeps skip paths live), and a
// switch body runs linearly because case labels are not modeled. A return
// ends its paths; paths that fall off the end of the body end at its last
// line.

#ifndef HWPROF_SRC_LINT_PATH_WALK_H_
#define HWPROF_SRC_LINT_PATH_WALK_H_

#include <algorithm>
#include <iterator>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/lint/source_model.h"

namespace hwprof::lint {

namespace path_walk_internal {

// Paths multiply at every branch; identical states are merged (first seen
// wins) and the population is capped so pathological nesting stays linear.
// Dropping states past the cap loses recall, never soundness of the states
// kept.
constexpr std::size_t kMaxStates = 64;

template <typename Walker>
std::vector<typename Walker::State> DedupAndCap(
    Walker& walker, std::vector<typename Walker::State> states) {
  std::vector<typename Walker::State> out;
  std::set<std::decay_t<decltype(walker.Key(states.front()))>> seen;
  for (auto& st : states) {
    if (out.size() >= kMaxStates) {
      break;
    }
    if (seen.insert(walker.Key(st)).second) {
      out.push_back(std::move(st));
    }
  }
  return out;
}

template <typename State>
void Append(std::vector<State>* to, std::vector<State> from) {
  to->insert(to->end(), std::make_move_iterator(from.begin()),
             std::make_move_iterator(from.end()));
}

template <typename Walker>
std::vector<typename Walker::State> Eval(const Stmt& s, Walker& walker,
                                         std::vector<typename Walker::State> states) {
  if (states.empty()) {
    return states;  // dead code after a return on every path
  }
  switch (s.kind) {
    case Stmt::Kind::kBlock: {
      for (const auto& child : s.children) {
        states = Eval(*child, walker, std::move(states));
      }
      return states;
    }
    case Stmt::Kind::kIf: {
      auto taken = Eval(*s.children[0], walker, states);
      Append(&taken, s.children.size() > 1 ? Eval(*s.children[1], walker, states)
                                           : std::move(states));
      return DedupAndCap(walker, std::move(taken));
    }
    case Stmt::Kind::kLoop: {
      auto once = Eval(*s.children[0], walker, states);
      Append(&once, std::move(states));
      return DedupAndCap(walker, std::move(once));
    }
    case Stmt::Kind::kSwitch: {
      // The entry states are revived whenever every path has returned — a
      // later case starts fresh from the switch head — and unioned back in
      // at the end for the no-case-matched paths.
      const auto entry = states;
      for (const auto& child : s.children[0]->children) {
        states = Eval(*child, walker, std::move(states));
        if (states.empty()) {
          states = entry;
        }
      }
      states.insert(states.end(), entry.begin(), entry.end());
      return DedupAndCap(walker, std::move(states));
    }
    case Stmt::Kind::kEvent: {
      for (auto& st : states) {
        walker.Apply(s, &st);
      }
      return DedupAndCap(walker, std::move(states));
    }
    case Stmt::Kind::kReturn: {
      for (const auto& st : states) {
        walker.EndOfPath(st, s.line);
      }
      return {};
    }
  }
  return states;
}

inline int EndLine(const Stmt& s) {
  int line = s.line;
  for (const auto& child : s.children) {
    line = std::max(line, EndLine(*child));
  }
  return line;
}

}  // namespace path_walk_internal

// Walks every path through `body` from one initial (default) state, calling
// walker.EndOfPath once per surviving state at each return and at the end.
template <typename Walker>
void WalkPaths(const Stmt& body, Walker& walker) {
  const auto states = path_walk_internal::Eval(body, walker, {typename Walker::State{}});
  if (states.empty()) {
    return;
  }
  const int end_line = path_walk_internal::EndLine(body);
  for (const auto& st : states) {
    walker.EndOfPath(st, end_line);
  }
}

}  // namespace hwprof::lint

#endif  // HWPROF_SRC_LINT_PATH_WALK_H_
