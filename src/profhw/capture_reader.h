// The one capture reader: every path that turns capture bytes into engine
// input — the offline tools, hwprofd uploads, the file loaders — reads them
// through CaptureReader, so format detection, the kind check, drop folding,
// the torn-tail rule and the strict/salvage split are each decided here once
// (full rules in DESIGN.md §11).
//
//   * Format: bytes starting with the hwpb magic are a binary container
//     (decoded zero-copy by BinaryChunkReader); bytes starting with
//     "hwprof-stream" are a text stream; anything else is parsed as a text
//     capture, whose header check explains what is wrong with it.
//   * Kind: a one-shot capture or a chunked stream of drained banks, from
//     the hwpb kind byte or the text header keyword.
//   * Drops: a capture has ONE drop count — the header's plus any nonzero
//     chunk dropped_before (the spec says 0 there), folded together, which
//     is exactly what the text form can carry. A stream's drops travel per
//     chunk; its header carries none (nor an overflow flag or an envelope).
//   * Torn tail: a stream may end mid-chunk in both modes (a writer caught
//     mid-append): complete records stand and truncated_tail() is set. A
//     capture torn anywhere is damage.
//   * Strict/salvage: every damage is booked by one rule (BookDamage,
//     src/profhw/raw_trace.h): strict stops at the first (failed()) —
//     a strict text capture still lists every bad line, checking the rest
//     for diagnostics only — and salvage counts unreadable words into
//     corrupt_words() and resynchronises.
//
// Every format is read chunk by chunk: hwpb by BinaryChunkReader, text by
// a reader of the same shape that walks the lines from where it stopped (a
// text capture in kBinaryCaptureChunkRecords slices, a text stream bank by
// bank). Memory is one chunk, whatever the format.

#ifndef HWPROF_SRC_PROFHW_CAPTURE_READER_H_
#define HWPROF_SRC_PROFHW_CAPTURE_READER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/profhw/binary_trace.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/smart_socket.h"

namespace hwprof {

class CaptureReader {
 public:
  // `bytes` must outlive the reader (typically an mmap or an upload body).
  CaptureReader(std::string_view bytes, bool salvage);
  ~CaptureReader();

  CaptureFormat format() const { return format_; }
  bool is_stream() const { return stream_; }
  // False when the header is absent, malformed or fails its CRC; nothing
  // after an unusable header can be trusted, in either mode.
  bool header_ok() const { return header_ok_; }

  unsigned timer_bits() const { return timer_bits_; }
  std::uint64_t timer_clock_hz() const { return timer_clock_hz_; }
  // Capture kind only (false / 0 for streams).
  bool overflowed() const { return overflowed_; }
  std::uint64_t capture_elapsed_ns() const { return capture_elapsed_ns_; }
  // Capture kind: the header's drop count plus every chunk drop read so far
  // (the chunks themselves come out with dropped_before 0). Stream kind: 0.
  std::uint64_t dropped_events() const { return dropped_events_; }

  // Decodes the next chunk into *chunk, reusing its vectors. Returns false
  // at the end of the input or, in strict mode, at the first damage.
  bool Next(SoaChunk* chunk);

  // Refuses a sound header of the other kind: records a file-level
  // diagnostic and marks the reader failed. Returns !failed().
  bool ExpectKind(bool stream);

  // The input ended mid-chunk (stream kind only).
  bool truncated_tail() const;
  // The header was unusable or of the wrong kind, or strict reading hit
  // damage.
  bool failed() const;
  std::uint64_t corrupt_words() const;
  // Every problem found so far: 1-based lines for text, byte offsets for
  // hwpb (0 = file-level).
  std::vector<TraceDiag> diags() const;

 private:
  class TextChunkReader;

  CaptureFormat format_ = CaptureFormat::kText;
  bool stream_ = false;
  bool header_ok_ = false;
  bool wrong_kind_ = false;
  unsigned timer_bits_ = 24;
  std::uint64_t timer_clock_hz_ = 1'000'000;
  bool overflowed_ = false;
  std::uint64_t capture_elapsed_ns_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::vector<TraceDiag> diags_;  // ExpectKind's refusal, after the reader's

  // Exactly one of the two is set.
  std::optional<BinaryChunkReader> binary_;
  std::unique_ptr<TextChunkReader> text_;
};

// The two whole-input conversions over a reader. Each checks the kind,
// drains the reader and appends its diagnostics to `diags` (when non-null).
// Strict readers fail on any damage; salvage readers only on an unusable
// header (the skipped words are in reader.corrupt_words()).
bool ReadCapture(CaptureReader& reader, RawTrace* out,
                 std::vector<TraceDiag>* diags);
bool ReadStream(CaptureReader& reader, StreamCapture* out,
                std::vector<TraceDiag>* diags);

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_CAPTURE_READER_H_
