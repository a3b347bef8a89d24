#include "src/analysis/callgraph.h"

#include <algorithm>

#include "src/base/strings.h"

namespace hwprof {

CallGraph::CallGraph(const DecodedTrace& trace) {
  for (const auto& stack : trace.stacks) {
    Walk(*stack->root, kSpontaneous);
  }
}

void CallGraph::Walk(const CallNode& node, const std::string& caller) {
  for (const auto& child : node.children) {
    const std::pair<std::string, std::string> key{caller, child->fn->name};
    auto it = index_.find(key);
    if (it == index_.end()) {
      it = index_.emplace(key, edges_.size()).first;
      edges_.push_back(CallEdge{caller, child->fn->name, 0, 0});
    }
    CallEdge& edge = edges_[it->second];
    edge.calls += child->calls;
    edge.callee_elapsed += child->elapsed;
    Walk(*child, child->fn->name);
  }
}

const CallEdge* CallGraph::Edge(const std::string& caller, const std::string& callee) const {
  auto it = index_.find({caller, callee});
  return it == index_.end() ? nullptr : &edges_[it->second];
}

std::vector<const CallEdge*> CallGraph::CallersOf(const std::string& name) const {
  std::vector<const CallEdge*> out;
  for (const CallEdge& edge : edges_) {
    if (edge.callee == name) {
      out.push_back(&edge);
    }
  }
  std::sort(out.begin(), out.end(), [](const CallEdge* a, const CallEdge* b) {
    return a->callee_elapsed != b->callee_elapsed
               ? a->callee_elapsed > b->callee_elapsed
               : a->caller < b->caller;
  });
  return out;
}

std::vector<const CallEdge*> CallGraph::CalleesOf(const std::string& name) const {
  std::vector<const CallEdge*> out;
  for (const CallEdge& edge : edges_) {
    if (edge.caller == name) {
      out.push_back(&edge);
    }
  }
  std::sort(out.begin(), out.end(), [](const CallEdge* a, const CallEdge* b) {
    return a->callee_elapsed != b->callee_elapsed
               ? a->callee_elapsed > b->callee_elapsed
               : a->callee < b->callee;
  });
  return out;
}

std::string CallGraph::Format(const DecodedTrace& trace, std::size_t top_n) const {
  // Order functions by net time.
  std::vector<std::pair<std::string, const FuncStats*>> order;
  for (const auto& [name, stats] : trace.per_function) {
    order.emplace_back(name, &stats);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second->net != b.second->net ? a.second->net > b.second->net
                                          : a.first < b.first;
  });

  std::string out;
  std::size_t emitted = 0;
  for (const auto& [name, stats] : order) {
    if (top_n != 0 && emitted >= top_n) {
      break;
    }
    ++emitted;
    out += StrFormat("%s  (%llu calls, %llu us net, %llu us total)\n", name.c_str(),
                     static_cast<unsigned long long>(stats->calls),
                     static_cast<unsigned long long>(ToWholeUsec(stats->net)),
                     static_cast<unsigned long long>(ToWholeUsec(stats->elapsed)));
    for (const CallEdge* edge : CallersOf(name)) {
      out += StrFormat("    <- %-24s %8llu calls %10llu us\n", edge->caller.c_str(),
                       static_cast<unsigned long long>(edge->calls),
                       static_cast<unsigned long long>(ToWholeUsec(edge->callee_elapsed)));
    }
    for (const CallEdge* edge : CalleesOf(name)) {
      out += StrFormat("    -> %-24s %8llu calls %10llu us\n", edge->callee.c_str(),
                       static_cast<unsigned long long>(edge->calls),
                       static_cast<unsigned long long>(ToWholeUsec(edge->callee_elapsed)));
    }
    out += "\n";
  }
  return out;
}

}  // namespace hwprof
