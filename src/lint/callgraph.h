// Whole-program call graph and per-function summaries for hwprof_lint.
//
// Every analyzed source contributes its function models; call sites recorded
// as kCall events become edges. A fixed-point (Jacobi) pass computes, per
// function, the net effect intervals a call can have on the caller's
// abstract machine — spl depth, RawRaise depth, raw trigger emits, telemetry
// spans — plus whether the function can reach a sleep primitive at any depth
// (with one representative call chain retained for diagnostics).
//
// Resolution is name-based and deliberately conservative:
//   1. a qualified spelling must match a node exactly (or be a suffix-
//      compatible match on the last components),
//   2. an unqualified spelling first tries the caller's own class,
//   3. then a last-component match anywhere in the program,
//   4. several candidates widen over exactly the resolved targets (union of
//      effects; the call may sleep if any target may),
//   5. no candidate at all — an external or library callee — yields a
//      neutral summary: unresolved calls cost recall, never false positives.
// The rule checker and the solver charge a call site through the same
// CallEffect, so the two passes cannot disagree on what a call costs.
//
// The solver iterates over function names in sorted order and recomputes all
// summaries from the previous round's map, so the result is independent of
// the order files were analyzed in.

#ifndef HWPROF_SRC_LINT_CALLGRAPH_H_
#define HWPROF_SRC_LINT_CALLGRAPH_H_

#include <compare>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/lint/diagnostics.h"
#include "src/lint/source_model.h"

namespace hwprof::lint {

// One hop of a representative sleeping call chain. The first hop is located
// inside the summarized function itself (a direct sleep primitive or the
// call site of a sleeping callee); later hops descend into callees.
struct SleepHop {
  std::string what;  // callee name, or the sleep primitive for the last hop
  std::string file;
  int line = 0;

  bool operator==(const SleepHop&) const = default;
};

// A net-effect interval: the minimum and maximum change over all return
// paths, clamped to [-8, 8] — deep enough for any real nesting, and the clamp
// bounds the solver: widening cannot run forever.
struct Interval {
  int lo = 0;
  int hi = 0;

  void Add(Interval d);    // clamped sum, per end
  void Widen(Interval o);  // the smallest interval covering both
  auto operator<=>(const Interval&) const = default;
};

// The effects a call can have on the caller's abstract machine. A balanced
// function is [0, 0] everywhere.
struct Effects {
  Interval spl;   // splnet()-family depth delta
  Interval raw;   // RawRaise depth delta
  Interval emit;  // raw entry-trigger emits left open
  Interval span;  // OBS_SPAN obligations left open

  void Add(const Effects& d);
  void Widen(const Effects& o);
  auto operator<=>(const Effects&) const = default;
};

struct FuncSummary : Effects {
  bool may_sleep = false;
  std::vector<SleepHop> sleep_path;  // empty unless may_sleep
  bool in_cycle = false;             // member of a recursion cycle
  bool has_annotation = false;       // declared via hwprof-lint: spl-effect(n)
  int annotation = 0;

  bool operator==(const FuncSummary&) const = default;
};

// What one call site charges its caller, from its resolved targets: the
// declared spl-effect when there is a single annotated target (the contract
// callers code against), otherwise the computed intervals widened over every
// target. The call may sleep if any target may; the chain comes from the
// first sleeping target in resolution order.
struct CallEffect {
  Effects eff;
  bool has_annotation = false;  // single annotated target
  int annotation = 0;
  bool may_sleep = false;
  const std::string* sleep_target = nullptr;          // when may_sleep
  const std::vector<SleepHop>* sleep_path = nullptr;  // its chain
};

// One call site inside a function body, with its resolved targets (node
// names). Empty targets = external / unresolved; more than one = ambiguous
// by last-component.
struct CallSite {
  std::string spelling;
  int line = 0;
  std::vector<std::string> targets;
};

// One named function in the program. Functions sharing a qualified name
// (overloads, same-named file-local helpers) share a node; their effects are
// widened together and the lexicographically first definition site is used
// for attribution.
struct FuncNode {
  std::string name;
  std::string file;  // first definition site (sorted by file, then line)
  int line = 0;
  bool has_annotation = false;
  int annotation = 0;
  std::vector<CallSite> calls;  // union over all definitions
  std::vector<const FunctionModel*> defs;
  std::vector<const SourceFile*> def_files;  // parallel to defs
};

class CallGraph {
 public:
  // Builds nodes and edges and runs the summary solver to fixed point.
  static CallGraph Build(const std::vector<SourceFile>& files);

  // The effect a call with this spelling (from this caller) charges, over
  // the final summaries; nullopt when the callee is external.
  std::optional<CallEffect> EffectOfCall(const std::string& spelling,
                                         const std::string& caller) const;

  // The resolved target set for a spelling (empty = external).
  std::vector<std::string> Resolve(const std::string& spelling,
                                   const std::string& caller) const;

  const std::map<std::string, FuncNode>& nodes() const { return nodes_; }
  const std::map<std::string, FuncSummary>& summaries() const { return summaries_; }
  // Recursion cycles (SCCs of size > 1 and self-loops), members sorted.
  const std::vector<std::vector<std::string>>& cycles() const { return cycles_; }
  int solver_rounds() const { return rounds_; }

 private:
  void ComputeSummaries();
  void FindCycles();

  std::map<std::string, FuncNode> nodes_;
  std::map<std::string, FuncSummary> summaries_;
  // last name component -> node names carrying it (sorted by map order)
  std::map<std::string, std::vector<std::string>> by_last_;
  std::vector<std::vector<std::string>> cycles_;
  int rounds_ = 0;
};

// Whole-program rules over the finished graph:
//   intr-blocking             an interrupt-service root can reach a sleep
//   spl-imbalance-transitive  a helper whose net spl effect disagrees with
//                             its annotation, or an unannotated helper that
//                             restores the caller's level
//   call-cycle                a recursion cycle carrying a non-zero level
//                             effect the solver had to widen
void CheckCallGraph(const CallGraph& graph, std::vector<Finding>* findings);

// "A -> B (file:line) -> Tsleep (file:line)" for diagnostics.
std::string FormatSleepChain(const std::string& callee,
                             const std::vector<SleepHop>& sleep_path);

// Splits "A::B::C" into {"A::B", "C"}; qualifier empty for unqualified names.
std::pair<std::string, std::string> SplitLastComponent(const std::string& name);

// {"nodes": [...], "cycles": [...]} — appended to --model-out output.
std::string CallGraphToJson(const CallGraph& graph);

}  // namespace hwprof::lint

#endif  // HWPROF_SRC_LINT_CALLGRAPH_H_
