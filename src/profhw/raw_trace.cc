#include "src/profhw/raw_trace.h"

#include "src/base/strings.h"
#include "src/obs/telemetry.h"

namespace hwprof {

TimerFieldFault CheckTimerFields(std::uint64_t timer_bits, std::uint64_t timer_clock_hz) {
  if (timer_bits < 8 || timer_bits > 32) {
    return kTimerWidthFault;
  }
  return timer_clock_hz == 0 ? kTimerClockFault : kTimerFieldsSound;
}

std::string RecordFault(std::uint64_t tag, std::uint64_t timestamp, unsigned timer_bits) {
  if (tag > 0xFFFF) {
    return StrFormat("tag %llu exceeds the 16-bit tag section",
                     static_cast<unsigned long long>(tag));
  }
  const std::uint32_t mask = TimerMaskFor(timer_bits);
  if (timestamp > mask) {
    return StrFormat("timestamp %llu exceeds the %u-bit timer mask (%lu)",
                     static_cast<unsigned long long>(timestamp), timer_bits,
                     static_cast<unsigned long>(mask));
  }
  return {};
}

bool BookDamage(TraceDiag diag, std::uint64_t lost, bool salvage,
                std::vector<TraceDiag>* diags, std::uint64_t* corrupt_words,
                bool* failed) {
  diags->push_back(std::move(diag));
  if (!salvage) {
    *failed = true;
    return false;
  }
  *corrupt_words += lost;
  if (lost > 0) {
    OBS_COUNT("socket.corrupt_lines", lost);
  }
  return true;
}

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
    AppendEventText(e, &out);
  }
  return out;
}

void AppendEventText(const RawEvent& e, std::string* out) {
  AppendUint(e.tag, out);
  out->push_back(' ');
  AppendUint(e.timestamp, out);
  out->push_back('\n');
}

}  // namespace hwprof
