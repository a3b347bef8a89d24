// Battery-backed Smart-Socket transfer: file persistence for captures.
//
// In the paper the data RAMs sit in battery-backed Smart-Sockets and are
// physically carried to a networked host, then copied to a UNIX machine for
// processing. Here that journey is a round-trip through a file in either of
// two interchanges:
//
//   * kText — the original line-oriented upload format (the debug
//     interchange; human-readable, greppable);
//   * kBinary — the compact chunked "hwpb" container (src/profhw/
//     binary_trace.h): varint delta records behind CRC-carrying chunk
//     headers, decoded zero-copy from an mmap.
//
// Every reader auto-detects the format from the first bytes (CaptureReader,
// src/profhw/capture_reader.h), so tools never need to be told which one
// they were handed; hwprof_convert translates losslessly in both directions.
//
// Streaming captures use an append-friendly layout — a header followed by
// one block per drained bank — so a long-running target can keep appending
// chunks while `hwprof_analyze --follow` digests the same file
// incrementally. In text:
//
//   hwprof-stream v1 <timer_bits> <clock_hz>
//   chunk <event_count> <dropped_before>
//   <tag> <timestamp>
//   ...

#ifndef HWPROF_SRC_PROFHW_SMART_SOCKET_H_
#define HWPROF_SRC_PROFHW_SMART_SOCKET_H_

#include <string>
#include <vector>

#include "src/base/mmap_file.h"
#include "src/profhw/raw_trace.h"

namespace hwprof {

enum class CaptureFormat { kText, kBinary };

// Maps (or reads) a capture or stream file whole, for a CaptureReader
// (src/profhw/capture_reader.h). A missing or unreadable file is a
// file-level (line 0) diagnostic in `diags` (when non-null), so tools can
// print a reason instead of a bare failure.
bool OpenCaptureFile(const std::string& path, MappedFile* file,
                     std::vector<TraceDiag>* diags);

// Writes `trace` to `path` in the given format. Returns false on I/O failure.
bool SaveCapture(const RawTrace& trace, const std::string& path,
                 CaptureFormat format);
bool SaveCapture(const RawTrace& trace, const std::string& path);

// Reads a capture previously written by SaveCapture, auto-detecting the
// format (strict: ReadCapture over a CaptureReader). Returns false on I/O
// failure or malformed contents; when `diags` is non-null every problem is
// appended with its 1-based line number (text) or byte offset (binary) and
// reason (0 = file-level).
bool LoadCapture(const std::string& path, RawTrace* out,
                 std::vector<TraceDiag>* diags);
bool LoadCapture(const std::string& path, RawTrace* out);

// --- Chunked stream files ----------------------------------------------------

// A parsed stream file: chunks in drain order.
struct StreamCapture {
  unsigned timer_bits = 24;
  std::uint64_t timer_clock_hz = 1'000'000;
  std::vector<TraceChunk> chunks;
  // The file ended mid-chunk (writer still appending, or a torn write). The
  // events parsed so far are kept; the missing tail is simply not there yet.
  bool truncated_tail = false;

  std::uint64_t TotalEvents() const;
  std::uint64_t TotalDropped() const;
  // Flattens the chunks into one RawTrace (drop counts are lost; callers
  // that care about gaps should feed chunks to the StreamingDecoder).
  RawTrace Flatten() const;
};

// Renders a parsed stream back to the canonical text layout (what
// SaveStreamHeader + AppendStreamChunk would have written).
std::string SerializeStreamText(const StreamCapture& stream);

// Starts (truncates) a stream file with the header only.
bool SaveStreamHeader(const std::string& path, unsigned timer_bits,
                      std::uint64_t timer_clock_hz, CaptureFormat format);
bool SaveStreamHeader(const std::string& path, unsigned timer_bits,
                      std::uint64_t timer_clock_hz);

// Appends one drained chunk to an existing stream file, matching the format
// the file was started in (sniffed from its header — stream files are
// self-describing).
bool AppendStreamChunk(const std::string& path, const TraceChunk& chunk);

// Parses a stream file (either format, auto-detected; strict: ReadStream
// over a CaptureReader). Tolerates a truncated final chunk AND a torn final
// record (a writer caught mid-append, or a sheared file) — both just set
// StreamCapture::truncated_tail and keep everything parsed so far. Returns
// false only on I/O failure or a malformed header/body; `diags` (when
// non-null) receives line/offset + reason for every problem found.
bool LoadStream(const std::string& path, StreamCapture* out,
                std::vector<TraceDiag>* diags);
bool LoadStream(const std::string& path, StreamCapture* out);

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_SMART_SOCKET_H_
