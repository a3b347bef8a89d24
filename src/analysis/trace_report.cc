#include "src/analysis/trace_report.h"

#include "src/base/strings.h"

namespace hwprof {
namespace {

constexpr int kIndentWidth = 4;  // spaces per nesting level

// "s:mmm uuu": seconds, then milliseconds and microseconds as three digits.
void AppendStamp(Nanoseconds t, std::string* out) {
  const std::uint64_t us = ToWholeUsec(t);
  AppendUint(us / 1000000, out);
  const auto ms = static_cast<unsigned>((us / 1000) % 1000);
  const auto rest = static_cast<unsigned>(us % 1000);
  const char digits[] = {':',
                         static_cast<char>('0' + ms / 100),
                         static_cast<char>('0' + ms / 10 % 10),
                         static_cast<char>('0' + ms % 10),
                         ' ',
                         static_cast<char>('0' + rest / 100),
                         static_cast<char>('0' + rest / 10 % 10),
                         static_cast<char>('0' + rest % 10)};
  out->append(digits, sizeof(digits));
}

// A call line up to its times: stamp, indent, `arrow`, function name.
void AppendCallHead(Nanoseconds rel, const TraceStep& step, const char* arrow,
                    std::string* out) {
  AppendStamp(rel, out);
  out->push_back(' ');
  out->append(static_cast<std::size_t>(step.depth * kIndentWidth), ' ');
  *out += arrow;
  *out += step.fn->name;
}

}  // namespace

// One line per call, so each is appended piece by piece rather than
// formatted.
std::string TraceReport::Format(const DecodedTrace& trace, TraceReportOptions options) {
  std::string out;
  std::size_t lines = 0;
  auto full = [&] { return options.max_lines != 0 && lines >= options.max_lines; };
  for (const TraceStep& step : trace.steps) {
    if (full()) {
      out += "...\n";
      break;
    }
    const Nanoseconds rel = step.t - trace.start_time;

    if (step.is_exit && step.context_switch_in) {
      AppendStamp(rel, &out);
      out += " <-  ---- Context switch in ----\n";
      ++lines;
      if (full()) {
        out += "...\n";
        break;
      }
    }

    if (step.inline_marker) {
      AppendCallHead(rel, step, "== ", &out);
      out += '\n';
      ++lines;
      continue;
    }

    // Exit lines: only for calls with subroutines (the entry line already
    // carries the times of leaf calls), or when crossing a context switch.
    if (step.is_exit && !step.has_children && !step.context_switch_in) {
      continue;
    }
    AppendCallHead(rel, step, step.is_exit ? "<- " : "-> ", &out);
    out += " (";
    AppendUint(ToWholeUsec(step.net), &out);
    if (!step.is_exit && !step.has_children) {
      out += " us)\n";
    } else {
      out += " us, ";
      AppendUint(ToWholeUsec(step.elapsed), &out);
      out += step.is_exit && step.forced_close ? " total) [truncated]\n" : " total)\n";
    }
    ++lines;
  }
  return out;
}

}  // namespace hwprof
