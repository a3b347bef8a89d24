#include "src/analysis/trace_report.h"

#include "src/base/strings.h"

namespace hwprof {
namespace {

constexpr int kIndentWidth = 4;  // spaces per nesting level

std::string FormatStamp(Nanoseconds t) {
  const std::uint64_t us = ToWholeUsec(t);
  return StrFormat("%llu:%03llu %03llu", static_cast<unsigned long long>(us / 1000000),
                   static_cast<unsigned long long>((us / 1000) % 1000),
                   static_cast<unsigned long long>(us % 1000));
}

}  // namespace

std::string TraceReport::Format(const DecodedTrace& trace, TraceReportOptions options) {
  std::string out;
  std::size_t lines = 0;
  for (const TraceStep& step : trace.steps) {
    if (options.max_lines != 0 && lines >= options.max_lines) {
      out += "...\n";
      break;
    }
    const Nanoseconds rel = step.t - trace.start_time;
    const std::string indent(static_cast<std::size_t>(step.depth * kIndentWidth), ' ');
    const char* name = step.fn->name.c_str();

    if (step.is_exit && step.context_switch_in) {
      out += StrFormat("%s <-  ---- Context switch in ----\n", FormatStamp(rel).c_str());
      ++lines;
      if (options.max_lines != 0 && lines >= options.max_lines) {
        out += "...\n";
        break;
      }
    }

    if (step.inline_marker) {
      out += StrFormat("%s %s== %s\n", FormatStamp(rel).c_str(), indent.c_str(), name);
      ++lines;
      continue;
    }

    const std::uint64_t net_us = ToWholeUsec(step.net);
    const std::uint64_t total_us = ToWholeUsec(step.elapsed);
    if (!step.is_exit) {
      if (!step.has_children) {
        out += StrFormat("%s %s-> %s (%llu us)\n", FormatStamp(rel).c_str(), indent.c_str(),
                         name, static_cast<unsigned long long>(net_us));
      } else {
        out += StrFormat("%s %s-> %s (%llu us, %llu total)\n", FormatStamp(rel).c_str(),
                         indent.c_str(), name, static_cast<unsigned long long>(net_us),
                         static_cast<unsigned long long>(total_us));
      }
      ++lines;
      continue;
    }

    // Exit lines: only for calls with subroutines (the entry line already
    // carries the times of leaf calls), or when crossing a context switch.
    if (step.has_children || step.context_switch_in) {
      out += StrFormat("%s %s<- %s (%llu us, %llu total)%s\n", FormatStamp(rel).c_str(),
                       indent.c_str(), name, static_cast<unsigned long long>(net_us),
                       static_cast<unsigned long long>(total_us),
                       step.forced_close ? " [truncated]" : "");
      ++lines;
    }
  }
  return out;
}

}  // namespace hwprof
