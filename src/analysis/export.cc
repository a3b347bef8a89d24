#include "src/analysis/export.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>
#include <vector>

#include "src/base/json.h"
#include "src/base/strings.h"

namespace hwprof {

namespace {

// --- Emission helpers --------------------------------------------------------

void AppendUint(std::uint64_t v, std::string* out) {
  char buf[20];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, end.ptr);
}

// Chrome wants microseconds; integer-only rendering of the exact nanosecond
// value ("us.nnn") keeps the output byte-stable across platforms.
void AppendUsec(Nanoseconds ns, std::string* out) {
  AppendUint(ns / 1000, out);
  const auto frac = static_cast<unsigned>(ns % 1000);
  const char digits[] = {'.', static_cast<char>('0' + frac / 100),
                         static_cast<char>('0' + frac / 10 % 10),
                         static_cast<char>('0' + frac % 10)};
  out->append(digits, sizeof(digits));
}

std::string UsecStr(Nanoseconds ns) {
  std::string out;
  AppendUsec(ns, &out);
  return out;
}

constexpr int kPid = 1;
constexpr int kAnomalyTid = 0;  // stacks are tid 1..N

// One entry step as a slice ("X"), or an inline marker as an instant ("i").
// There is one per call, so it is appended piece by piece rather than
// formatted.
void AppendStepEvent(const TraceStep& step, std::string* out) {
  *out += "{\"name\":";
  AppendJsonString(step.fn->name, out);
  *out += step.inline_marker ? ",\"ph\":\"i\",\"pid\":" : ",\"ph\":\"X\",\"pid\":";
  AppendUint(kPid, out);
  *out += ",\"tid\":";
  AppendUint(static_cast<std::uint64_t>(step.stack_id) + 1, out);
  *out += ",\"ts\":";
  AppendUsec(step.t, out);
  if (step.inline_marker) {
    *out += ",\"s\":\"t\"}";
    return;
  }
  *out += ",\"dur\":";
  AppendUsec(step.exit_time >= step.t ? step.exit_time - step.t : 0, out);
  *out += ",\"args\":{\"net_ns\":";
  AppendUint(step.net, out);
  *out += ",\"elapsed_ns\":";
  AppendUint(step.elapsed, out);
  *out += step.forced_close ? ",\"forced_close\":1}}" : "}}";
}

struct AnomalyRow {
  const char* name;
  std::uint64_t count;
};

// The instant-event ledger: exactly the typed counters DecodedTrace keeps,
// so tests can assert instants == counters with no slack.
std::vector<AnomalyRow> AnomalyRows(const DecodedTrace& d) {
  return {
      {"corrupt_words", d.corrupt_words},
      {"impossible_deltas", d.impossible_deltas},
      {"wrap_ambiguous_gaps", d.wrap_ambiguous_gaps},
      {"unknown_tags", d.unknown_tags},
      {"orphan_exits", d.orphan_exits},
      {"dropped_events", d.dropped_events},
      {"capture_gaps", d.capture_gaps},
      {"mid_trace_unclosed_entries", d.MidTraceUnclosedEntries()},
  };
}

}  // namespace

std::string ExportTraceEventJson(const DecodedTrace& decoded) {
  return ExportTraceEventJson(decoded, nullptr);
}

std::string ExportTraceEventJson(const DecodedTrace& decoded,
                                 const obs::Snapshot* telemetry) {
  // Events are written straight into the output, one per line.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto next_event = [&out, &first]() -> std::string& {
    if (!first) {
      out += ",\n";
    }
    first = false;
    return out;
  };
  next_event() += StrFormat(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
      "\"args\":{\"name\":\"hwprof simulated machine\"}}",
      kPid);
  next_event() += StrFormat(
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
      "\"args\":{\"name\":\"anomalies\"}}",
      kPid, kAnomalyTid);
  for (const auto& stack : decoded.stacks) {
    next_event() += StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"context %d\"}}",
        kPid, stack->id + 1, stack->id);
  }

  // Slices per context in open order (each context's calls nest, so that is
  // its tree's pre-order), the contexts in id order.
  std::vector<std::vector<const TraceStep*>> by_stack(decoded.stacks.size());
  for (const TraceStep& step : decoded.steps) {
    if (!step.is_exit) {
      by_stack[static_cast<std::size_t>(step.stack_id)].push_back(&step);
    }
  }
  for (const auto& opened : by_stack) {
    for (const TraceStep* step : opened) {
      AppendStepEvent(*step, &next_event());
    }
  }

  // Cumulative idle / interrupt counter track, sampled at every context
  // switch exit: the closing '!' call banks its net time as idle and its
  // subroutines' elapsed time (elapsed - net) as interrupt work taken during
  // the idle window.
  Nanoseconds idle_cum = 0;
  Nanoseconds intr_cum = 0;
  auto counter_sample = [&](Nanoseconds t) {
    next_event() += StrFormat(
        "{\"name\":\"cpu (cumulative us)\",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,"
        "\"args\":{\"idle_us\":%s,\"interrupt_us\":%s}}",
        kPid, UsecStr(t).c_str(), UsecStr(idle_cum).c_str(), UsecStr(intr_cum).c_str());
  };
  if (!decoded.steps.empty()) {
    counter_sample(decoded.start_time);
    for (const TraceStep& step : decoded.steps) {
      if (!step.is_exit || step.fn->kind != TagKind::kContextSwitch) {
        continue;
      }
      idle_cum += step.net;
      intr_cum += step.elapsed - step.net;
      counter_sample(step.t);
    }
  }

  for (const AnomalyRow& row : AnomalyRows(decoded)) {
    if (row.count == 0) {
      continue;
    }
    next_event() += StrFormat(
        "{\"name\":\"anomaly: %s\",\"ph\":\"i\",\"pid\":%d,\"tid\":%d,"
        "\"ts\":%s,\"s\":\"g\",\"args\":{\"count\":%llu}}",
        row.name, kPid, kAnomalyTid, UsecStr(decoded.end_time).c_str(),
        static_cast<unsigned long long>(row.count));
  }

  // Pipeline-telemetry counter tracks (snapshots are name-sorted, so the
  // emission order — and the rendered bytes — are deterministic).
  if (telemetry != nullptr) {
    for (const obs::MetricValue& m : telemetry->metrics) {
      if (m.kind != obs::MetricKind::kCounter) {
        continue;
      }
      std::string& event = next_event();
      event += "{\"name\":";
      AppendJsonString("telemetry: " + m.name, &event);
      event += StrFormat(",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,\"args\":{\"count\":%llu}}",
                         kPid, UsecStr(decoded.end_time).c_str(),
                         static_cast<unsigned long long>(m.count));
    }
  }
  out += "\n]}\n";
  return out;
}

namespace {

void FoldNode(const CallNode& node, const std::string& prefix,
              std::map<std::string, std::uint64_t>* agg) {
  for (const auto& child : node.children) {
    const std::string path = prefix + ";" + child->fn->name;
    (*agg)[path] += static_cast<std::uint64_t>(child->net);
    FoldNode(*child, path, agg);
  }
}

}  // namespace

std::string ExportFoldedStacks(const DecodedTrace& decoded) {
  std::map<std::string, std::uint64_t> agg;
  for (const auto& stack : decoded.stacks) {
    FoldNode(*stack->root, StrFormat("context %d", stack->id), &agg);
  }
  std::string out;
  for (const auto& [path, net_ns] : agg) {
    out += path;
    out += StrFormat(" %llu\n", static_cast<unsigned long long>(net_ns));
  }
  return out;
}

// --- Trace-event validation -------------------------------------------------

namespace {

bool NumberField(const JsonValue& event, const char* key, double* out) {
  const JsonValue* v = event.Get(key);
  if (v == nullptr || v->kind != JsonValue::kNumber) return false;
  *out = v->number;
  return true;
}

bool GetTraceEvents(const JsonValue& root, const JsonValue** out,
                    std::string* error) {
  if (root.kind != JsonValue::kObject) {
    *error = "top level is not an object";
    return false;
  }
  const JsonValue* events = root.Get("traceEvents");
  if (events == nullptr || events->kind != JsonValue::kArray) {
    *error = "missing traceEvents array";
    return false;
  }
  *out = events;
  return true;
}

std::uint64_t ToNs(double usec) {
  return static_cast<std::uint64_t>(std::llround(usec * 1000.0));
}

}  // namespace

bool ValidateTraceEventJson(const std::string& json, std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  JsonValue root;
  if (!ParseJson(json, &root, error)) {
    return false;
  }
  const JsonValue* events = nullptr;
  if (!GetTraceEvents(root, &events, error)) {
    return false;
  }
  struct Slice {
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
  };
  std::map<std::pair<int, int>, std::vector<Slice>> slices;
  for (std::size_t i = 0; i < events->arr.size(); ++i) {
    const JsonValue& e = events->arr[i];
    auto fail = [&](const char* why) {
      *error = StrFormat("event %zu: %s", i, why);
      return false;
    };
    if (e.kind != JsonValue::kObject) return fail("not an object");
    const JsonValue* ph = e.Get("ph");
    if (ph == nullptr || ph->kind != JsonValue::kString || ph->str.size() != 1) {
      return fail("missing one-char ph");
    }
    double pid = 0;
    double tid = 0;
    if (!NumberField(e, "pid", &pid)) return fail("missing numeric pid");
    const JsonValue* name = e.Get("name");
    const bool has_name =
        name != nullptr && name->kind == JsonValue::kString && !name->str.empty();
    double ts = 0;
    switch (ph->str[0]) {
      case 'X': {
        if (!has_name) return fail("X event without a name");
        if (!NumberField(e, "tid", &tid)) return fail("missing numeric tid");
        double dur = 0;
        if (!NumberField(e, "ts", &ts)) return fail("X event without ts");
        if (!NumberField(e, "dur", &dur) || dur < 0) {
          return fail("X event without dur >= 0");
        }
        slices[{static_cast<int>(pid), static_cast<int>(tid)}].push_back(
            Slice{ToNs(ts), ToNs(dur)});
        break;
      }
      case 'i':
      case 'I':
        if (!has_name) return fail("instant without a name");
        if (!NumberField(e, "ts", &ts)) return fail("instant without ts");
        break;
      case 'C': {
        if (!has_name) return fail("counter without a name");
        if (!NumberField(e, "ts", &ts)) return fail("counter without ts");
        const JsonValue* args = e.Get("args");
        if (args == nullptr || args->kind != JsonValue::kObject ||
            args->obj.empty()) {
          return fail("counter without an args object");
        }
        break;
      }
      case 'M':
        if (!has_name) return fail("metadata without a name");
        break;
      default:
        // Other phases (B/E, async, flow...) are legal trace-event JSON;
        // the minimal checker only insists on the fields above.
        break;
    }
  }
  for (auto& [key, list] : slices) {
    std::sort(list.begin(), list.end(), [](const Slice& a, const Slice& b) {
      return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.dur_ns > b.dur_ns;
    });
    std::vector<std::uint64_t> open_ends;
    for (const Slice& s : list) {
      while (!open_ends.empty() && s.ts_ns >= open_ends.back()) {
        open_ends.pop_back();
      }
      if (!open_ends.empty() && s.ts_ns + s.dur_ns > open_ends.back()) {
        *error = StrFormat(
            "pid %d tid %d: slice at ts=%lluns (dur %lluns) straddles its "
            "enclosing slice's end",
            key.first, key.second, static_cast<unsigned long long>(s.ts_ns),
            static_cast<unsigned long long>(s.dur_ns));
        return false;
      }
      open_ends.push_back(s.ts_ns + s.dur_ns);
    }
  }
  return true;
}

bool SummarizeTraceEventJson(const std::string& json, TraceEventTotals* out,
                             std::string* error) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  JsonValue root;
  if (!ParseJson(json, &root, error)) {
    return false;
  }
  const JsonValue* events = nullptr;
  if (!GetTraceEvents(root, &events, error)) {
    return false;
  }
  *out = TraceEventTotals{};
  for (const JsonValue& e : events->arr) {
    if (e.kind != JsonValue::kObject) continue;
    const JsonValue* ph = e.Get("ph");
    const JsonValue* name = e.Get("name");
    if (ph == nullptr || ph->kind != JsonValue::kString || name == nullptr ||
        name->kind != JsonValue::kString) {
      continue;
    }
    if (ph->str == "X") {
      ++out->slices;
      const JsonValue* args = e.Get("args");
      if (args != nullptr) {
        double v = 0;
        if (NumberField(*args, "net_ns", &v)) {
          out->net_ns[name->str] += static_cast<std::uint64_t>(v);
        }
        if (NumberField(*args, "elapsed_ns", &v)) {
          out->elapsed_ns[name->str] += static_cast<std::uint64_t>(v);
        }
      }
    } else if (ph->str == "i") {
      ++out->instants;
      const std::string prefix = "anomaly: ";
      if (name->str.rfind(prefix, 0) == 0) {
        const JsonValue* args = e.Get("args");
        double v = 0;
        if (args != nullptr && NumberField(*args, "count", &v)) {
          out->anomaly_counts[name->str.substr(prefix.size())] +=
              static_cast<std::uint64_t>(v);
        }
      }
    } else if (ph->str == "C") {
      ++out->counter_samples;
    }
  }
  return true;
}

}  // namespace hwprof
