#include "src/profhw/raw_trace.h"

#include "src/base/strings.h"

namespace hwprof {

std::string RawTrace::Serialize() const {
  std::string out = StrFormat("hwprof-raw v1 %u %llu %d", timer_bits,
                              static_cast<unsigned long long>(timer_clock_hz),
                              overflowed ? 1 : 0);
  if (dropped_events > 0) {
    out += StrFormat(" dropped=%llu", static_cast<unsigned long long>(dropped_events));
  }
  if (capture_elapsed_ns > 0) {
    out += StrFormat(" elapsed=%llu", static_cast<unsigned long long>(capture_elapsed_ns));
  }
  out += "\n";
  for (const RawEvent& e : events) {
    out += StrFormat("%u %u\n", e.tag, e.timestamp);
  }
  return out;
}

}  // namespace hwprof
