// Raw capture data: the exact information the Profiler's RAM holds.
//
// Each stored event is 40 bits wide — a 16-bit tag section and a 24-bit (by
// default) timer section. This is *all* the analysis software ever receives;
// keeping the container this narrow enforces the paper's information
// boundary between hardware capture and host-side analysis.
//
// The board is physically fragile by design (battery-backed RAMs carried
// between hosts, an overflow LED, a counter that wraps every ~16.7 s), so
// the upload format distinguishes the two loss conditions the hardware can
// report — "storing stopped" (single-buffer address-counter overflow) and
// "events dropped" (double-buffer drain races) — and carries an optional
// host wall-clock envelope so the analyser can detect quiet gaps longer
// than one timer wrap.

#ifndef HWPROF_SRC_PROFHW_RAW_TRACE_H_
#define HWPROF_SRC_PROFHW_RAW_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hwprof {

struct RawEvent {
  std::uint16_t tag = 0;
  std::uint32_t timestamp = 0;  // masked to the timer width

  friend bool operator==(const RawEvent&, const RawEvent&) = default;
};

// One drained bank of a streaming (double-buffered) capture: the events in
// address order plus the number of events the board dropped immediately
// before the first one (the drain lost the race to the fill).
struct TraceChunk {
  std::vector<RawEvent> events;
  std::uint64_t dropped_before = 0;

  friend bool operator==(const TraceChunk&, const TraceChunk&) = default;
};

// One parse problem in an uploaded capture or stream file, attributed to a
// 1-based line of the input text (same shape as TagDiag for names files).
struct TraceDiag {
  int line = 0;
  std::string message;
};

// --- The checks and the damage rule every capture reader shares -------------
//
// The text reader behind CaptureReader (src/profhw/capture_reader.cc) and
// BinaryChunkReader (src/profhw/binary_trace.h) check header fields and
// records here and book every damage through BookDamage, so both formats
// refuse, count and explain the same things the same way.

// Timer counter mask (2^timer_bits - 1).
constexpr std::uint32_t TimerMaskFor(unsigned timer_bits) {
  return timer_bits >= 32 ? 0xFFFFFFFFu : ((1u << timer_bits) - 1u);
}

// Which timer field of a capture header is unusable: the width must be
// 8..32 bits and the clock rate positive. The width is checked first.
enum TimerFieldFault { kTimerFieldsSound, kTimerWidthFault, kTimerClockFault };
TimerFieldFault CheckTimerFields(std::uint64_t timer_bits, std::uint64_t timer_clock_hz);

// Why a (tag, timestamp) record cannot have come from the board — a tag
// beyond the 16-bit tag section or a timestamp beyond the timer mask — or
// empty when it could.
std::string RecordFault(std::uint64_t tag, std::uint64_t timestamp, unsigned timer_bits);

// The one damage rule: `diag` is appended to *diags; a strict reader is
// marked *failed; a salvage reader adds `lost` unreadable words to
// *corrupt_words and to socket.corrupt_lines. Returns whether reading may go
// on (that is, !*failed).
bool BookDamage(TraceDiag diag, std::uint64_t lost, bool salvage,
                std::vector<TraceDiag>* diags, std::uint64_t* corrupt_words,
                bool* failed);

struct RawTrace {
  std::vector<RawEvent> events;
  unsigned timer_bits = 24;
  std::uint64_t timer_clock_hz = 1'000'000;
  bool overflowed = false;  // address counter hit the end; capture stopped

  // Events a double-buffered board dropped while both banks were full
  // (drain races). Distinct from `overflowed`: dropping loses events but
  // storing continues; overflow stops storing entirely.
  std::uint64_t dropped_events = 0;

  // Host wall-clock envelope: how long the board was armed, as measured by
  // the host that started/stopped the capture. 0 = unknown. When present,
  // the analyser can detect quiet gaps longer than one timer wrap (which
  // otherwise silently decode as short deltas).
  std::uint64_t capture_elapsed_ns = 0;

  // Timer counter mask (2^timer_bits - 1) for this capture's header.
  std::uint32_t TimerMask() const { return TimerMaskFor(timer_bits); }

  // Serialises to the simple line format uploaded to the UNIX host:
  //   "hwprof-raw v1 <timer_bits> <clock_hz> <overflowed>[ dropped=N][ elapsed=NS]"
  // then one "<tag> <timestamp>" line per event. The optional key=value
  // header tokens are emitted only when nonzero, so captures from
  // single-buffer boards round-trip through the original 5-field header.
  // CaptureReader + ReadCapture (src/profhw/capture_reader.h) read it back.
  std::string Serialize() const;
};

// Appends one "<tag> <timestamp>\n" record line, the event line of text
// captures and text stream files.
void AppendEventText(const RawEvent& e, std::string* out);

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_RAW_TRACE_H_
