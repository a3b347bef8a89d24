#include "src/profhw/capture_reader.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/obs/telemetry.h"

namespace hwprof {

namespace {

void NoteDiag(std::vector<TraceDiag>* diags, int line, std::string message) {
  if (diags != nullptr) {
    diags->push_back(TraceDiag{line, std::move(message)});
  }
}

void CountCorrupt(std::uint64_t* corrupt_words) {
  if (corrupt_words != nullptr) {
    ++*corrupt_words;
  }
  OBS_COUNT("socket.corrupt_lines", 1);
}

// --- Text capture: "hwprof-raw v1 <bits> <hz> <overflowed>[ key=N...]" -------

// In strict mode every problem is a failure (but parsing continues so one
// pass reports them all); in salvage mode bad event lines are counted and
// skipped. *header_ok says whether the header line itself was sound.
bool ParseCaptureText(std::string_view text, RawTrace* out,
                      std::vector<TraceDiag>* diags, bool salvage,
                      std::uint64_t* corrupt_words, bool* header_ok) {
  *header_ok = false;
  const std::vector<std::string_view> lines = SplitLines(text);
  if (lines.empty()) {
    NoteDiag(diags, 1, "empty file: expected 'hwprof-raw v1 ...' header");
    return false;
  }
  const std::vector<std::string_view> header = Split(lines[0], ' ');
  if (header.size() < 5 || header[0] != "hwprof-raw" || header[1] != "v1") {
    NoteDiag(diags, 1, "bad header: expected 'hwprof-raw v1 <bits> <hz> <overflowed>'");
    return false;
  }
  std::uint64_t bits = 0;
  std::uint64_t hz = 0;
  std::uint64_t overflow = 0;
  if (!ParseUint(header[2], &bits) || bits < 8 || bits > 32) {
    NoteDiag(diags, 1, "timer width must be a number in 8..32");
    return false;
  }
  if (!ParseUint(header[3], &hz) || hz == 0) {
    NoteDiag(diags, 1, "timer clock rate must be a positive number");
    return false;
  }
  if (!ParseUint(header[4], &overflow) || overflow > 1) {
    NoteDiag(diags, 1, "overflowed flag must be 0 or 1");
    return false;
  }
  RawTrace trace;
  trace.timer_bits = static_cast<unsigned>(bits);
  trace.timer_clock_hz = hz;
  trace.overflowed = overflow == 1;
  // Optional key=value header tokens (dropped=N, elapsed=NS).
  for (std::size_t h = 5; h < header.size(); ++h) {
    const std::string_view token = header[h];
    const std::size_t eq = token.find('=');
    std::uint64_t value = 0;
    if (eq == std::string_view::npos || !ParseUint(token.substr(eq + 1), &value)) {
      NoteDiag(diags, 1, StrFormat("bad header token '%.*s': expected key=<number>",
                                   static_cast<int>(token.size()), token.data()));
      return false;
    }
    const std::string_view key = token.substr(0, eq);
    if (key == "dropped") {
      trace.dropped_events = value;
    } else if (key == "elapsed") {
      trace.capture_elapsed_ns = value;
    } else {
      NoteDiag(diags, 1, StrFormat("unknown header token '%.*s'",
                                   static_cast<int>(token.size()), token.data()));
      return false;
    }
  }
  *header_ok = true;

  const std::uint32_t mask = trace.TimerMask();
  bool events_ok = true;
  trace.events.reserve(lines.size() - 1);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const std::vector<std::string_view> fields = Split(lines[i], ' ');
    std::uint64_t tag = 0;
    std::uint64_t timestamp = 0;
    std::string reason;
    if (fields.size() != 2) {
      reason = StrFormat("expected '<tag> <timestamp>', got %zu fields", fields.size());
    } else if (!ParseUint(fields[0], &tag) || !ParseUint(fields[1], &timestamp)) {
      reason = "tag and timestamp must be non-negative decimal numbers";
    } else if (tag > 0xFFFF) {
      reason = StrFormat("tag %llu exceeds the 16-bit tag section",
                         static_cast<unsigned long long>(tag));
    } else if (timestamp > mask) {
      reason = StrFormat("timestamp %llu exceeds the %u-bit timer mask (%lu)",
                         static_cast<unsigned long long>(timestamp), trace.timer_bits,
                         static_cast<unsigned long>(mask));
    }
    if (!reason.empty()) {
      NoteDiag(diags, line_no, std::move(reason));
      if (salvage) {
        if (corrupt_words != nullptr) {
          ++*corrupt_words;
        }
        continue;
      }
      events_ok = false;
      continue;
    }
    trace.events.push_back(RawEvent{static_cast<std::uint16_t>(tag),
                                    static_cast<std::uint32_t>(timestamp)});
  }
  if (!events_ok) {
    return false;
  }
  *out = std::move(trace);
  return true;
}

// --- Text stream: "hwprof-stream v1 <bits> <hz>", then "chunk <n> <dropped>"
// blocks -----------------------------------------------------------------------

bool ParseChunkHeader(std::string_view line, std::uint64_t* count,
                      std::uint64_t* dropped) {
  const std::vector<std::string_view> fields = Split(line, ' ');
  return fields.size() == 3 && fields[0] == "chunk" &&
         ParseUint(fields[1], count) && ParseUint(fields[2], dropped);
}

// Parses one '<tag> <timestamp>' event line against the header's timer mask;
// on failure fills `reason` and returns false.
bool ParseEventLine(std::string_view line, std::uint32_t mask,
                    unsigned timer_bits, RawEvent* out, std::string* reason) {
  const std::vector<std::string_view> ev = Split(line, ' ');
  std::uint64_t tag = 0;
  std::uint64_t timestamp = 0;
  if (ev.size() != 2 || !ParseUint(ev[0], &tag) ||
      !ParseUint(ev[1], &timestamp)) {
    *reason =
        StrFormat("expected '<tag> <timestamp>', got %zu fields", ev.size());
    return false;
  }
  if (tag > 0xFFFF) {
    *reason = StrFormat("tag %llu exceeds the 16-bit tag section",
                        static_cast<unsigned long long>(tag));
    return false;
  }
  if (timestamp > mask) {
    *reason = StrFormat("timestamp %llu exceeds the %u-bit timer mask (%lu)",
                        static_cast<unsigned long long>(timestamp), timer_bits,
                        static_cast<unsigned long>(mask));
    return false;
  }
  out->tag = static_cast<std::uint16_t>(tag);
  out->timestamp = static_cast<std::uint32_t>(timestamp);
  return true;
}

// A torn final line — wherever it falls — is tolerated in both modes (the
// writer may be mid-append; --follow polls the same file the target is still
// writing): everything parsed so far stands and truncated_tail is set.
// Mid-file damage is a failure in strict mode; in salvage mode unreadable
// lines count one corrupt word each and parsing resynchronises at the next
// chunk boundary — or at the next run of intact event lines, which are kept
// as a recovery chunk (a destroyed chunk header must not bill the events
// behind it).
bool ParseStreamText(std::string_view text, StreamCapture* out,
                     std::vector<TraceDiag>* diags, bool salvage,
                     std::uint64_t* corrupt_words, bool* header_ok) {
  *header_ok = false;
  const std::vector<std::string_view> lines = SplitLines(text);
  if (lines.empty()) {
    NoteDiag(diags, 1, "empty file: expected 'hwprof-stream v1 <bits> <hz>' header");
    return false;
  }
  const std::vector<std::string_view> header = Split(lines[0], ' ');
  if (header.size() != 4 || header[0] != "hwprof-stream" || header[1] != "v1") {
    NoteDiag(diags, 1, "bad header: expected 'hwprof-stream v1 <bits> <hz>'");
    return false;
  }
  std::uint64_t bits = 0;
  std::uint64_t hz = 0;
  if (!ParseUint(header[2], &bits) || bits < 8 || bits > 32) {
    NoteDiag(diags, 1, "timer width must be a number in 8..32");
    return false;
  }
  if (!ParseUint(header[3], &hz) || hz == 0) {
    NoteDiag(diags, 1, "timer clock rate must be a positive number");
    return false;
  }
  *header_ok = true;
  StreamCapture capture;
  capture.timer_bits = static_cast<unsigned>(bits);
  capture.timer_clock_hz = hz;
  const std::uint32_t mask =
      bits >= 32 ? 0xFFFFFFFFu : ((1u << bits) - 1u);

  std::size_t i = 1;
  while (i < lines.size()) {
    std::uint64_t count = 0;
    std::uint64_t dropped = 0;
    if (!ParseChunkHeader(lines[i], &count, &dropped)) {
      if (i + 1 == lines.size()) {
        capture.truncated_tail = true;  // torn chunk header mid-append
        break;
      }
      NoteDiag(diags, static_cast<int>(i) + 1,
               "expected 'chunk <count> <dropped>'");
      if (!salvage) {
        return false;
      }
      CountCorrupt(corrupt_words);
      ++i;
      // A destroyed chunk header orphans the intact event lines behind it.
      // Salvage them into a recovery chunk (the bank boundary is gone, so
      // its drop count is too) instead of billing each as a corrupt word.
      TraceChunk recovered;
      std::string reason;
      RawEvent event;
      std::uint64_t nc = 0;
      std::uint64_t nd = 0;
      while (i < lines.size() && !ParseChunkHeader(lines[i], &nc, &nd) &&
             ParseEventLine(lines[i], mask, capture.timer_bits, &event,
                            &reason)) {
        recovered.events.push_back(event);
        ++i;
      }
      if (!recovered.events.empty()) {
        NoteDiag(diags, static_cast<int>(i),
                 StrFormat("recovered %zu orphaned event lines after the "
                           "unreadable chunk header",
                           recovered.events.size()));
        OBS_COUNT("socket.salvage_resyncs", 1);
        capture.chunks.push_back(std::move(recovered));
      }
      continue;
    }
    ++i;
    TraceChunk chunk;
    chunk.dropped_before = dropped;
    chunk.events.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(count, lines.size())));
    while (chunk.events.size() < count && i < lines.size()) {
      const int line_no = static_cast<int>(i) + 1;
      RawEvent event;
      std::string reason;
      if (!ParseEventLine(lines[i], mask, capture.timer_bits, &event,
                          &reason)) {
        if (i + 1 == lines.size()) {
          ++i;  // torn final record: the short count marks the tail below
          break;
        }
        NoteDiag(diags, line_no, std::move(reason));
        if (!salvage) {
          return false;
        }
        std::uint64_t nc = 0;
        std::uint64_t nd = 0;
        if (ParseChunkHeader(lines[i], &nc, &nd)) {
          OBS_COUNT("socket.salvage_resyncs", 1);
          break;  // chunk cut short; resynchronise at the bank boundary
        }
        CountCorrupt(corrupt_words);
        ++i;
        continue;
      }
      chunk.events.push_back(event);
      ++i;
    }
    // Short only counts as a torn tail when the line supply actually ran
    // out; a mid-file salvage resync at the next bank boundary is damage,
    // not a writer still appending.
    if (chunk.events.size() < count && i >= lines.size()) {
      capture.truncated_tail = true;
    }
    capture.chunks.push_back(std::move(chunk));
  }
  *out = std::move(capture);
  return true;
}

void ToColumns(const RawEvent* events, std::size_t count, SoaChunk* chunk) {
  chunk->tags.resize(count);
  chunk->timestamps.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    chunk->tags[i] = events[i].tag;
    chunk->timestamps[i] = events[i].timestamp;
  }
}

void ZipColumns(const SoaChunk& chunk, std::vector<RawEvent>* out) {
  const std::size_t base = out->size();
  out->resize(base + chunk.tags.size());
  for (std::size_t i = 0; i < chunk.tags.size(); ++i) {
    (*out)[base + i] = RawEvent{chunk.tags[i], chunk.timestamps[i]};
  }
}

void AppendDiags(const CaptureReader& reader, std::vector<TraceDiag>* diags) {
  if (diags != nullptr) {
    const std::vector<TraceDiag> found = reader.diags();
    diags->insert(diags->end(), found.begin(), found.end());
  }
}

}  // namespace

CaptureReader::CaptureReader(std::string_view bytes, bool salvage) {
  if (LooksBinaryContainer(bytes)) {
    format_ = CaptureFormat::kBinary;
    binary_.emplace(bytes, salvage);
    header_ok_ = binary_->header_ok();
    stream_ = binary_->kind() == BinaryKind::kStream;
    timer_bits_ = binary_->timer_bits();
    timer_clock_hz_ = binary_->timer_clock_hz();
    if (!stream_) {
      overflowed_ = binary_->overflowed();
      capture_elapsed_ns_ = binary_->capture_elapsed_ns();
      dropped_events_ = binary_->dropped_events();
    }
    return;
  }
  stream_ = StartsWith(bytes, "hwprof-stream");
  if (stream_) {
    text_failed_ = !ParseStreamText(bytes, &text_stream_, &diags_, salvage,
                                    &text_corrupt_words_, &header_ok_);
    timer_bits_ = text_stream_.timer_bits;
    timer_clock_hz_ = text_stream_.timer_clock_hz;
    return;
  }
  text_failed_ = !ParseCaptureText(bytes, &text_capture_, &diags_, salvage,
                                   &text_corrupt_words_, &header_ok_);
  timer_bits_ = text_capture_.timer_bits;
  timer_clock_hz_ = text_capture_.timer_clock_hz;
  overflowed_ = text_capture_.overflowed;
  capture_elapsed_ns_ = text_capture_.capture_elapsed_ns;
  dropped_events_ = text_capture_.dropped_events;
}

bool CaptureReader::Next(SoaChunk* chunk) {
  if (failed()) {
    return false;
  }
  if (binary_) {
    if (!binary_->Next(chunk)) {
      return false;
    }
  } else if (stream_) {
    if (next_ >= text_stream_.chunks.size()) {
      return false;
    }
    const TraceChunk& bank = text_stream_.chunks[next_++];
    ToColumns(bank.events.data(), bank.events.size(), chunk);
    chunk->dropped_before = bank.dropped_before;
  } else {
    const std::vector<RawEvent>& events = text_capture_.events;
    if (next_ >= events.size()) {
      return false;
    }
    const std::size_t n = std::min(kBinaryCaptureChunkRecords, events.size() - next_);
    ToColumns(events.data() + next_, n, chunk);
    chunk->dropped_before = 0;
    next_ += n;
  }
  if (stream_) {
    OBS_COUNT("socket.dropped_events", chunk->dropped_before);
  } else {
    dropped_events_ += chunk->dropped_before;  // one drop count per capture
    chunk->dropped_before = 0;
  }
  return true;
}

bool CaptureReader::ExpectKind(bool stream) {
  if (header_ok_ && !wrong_kind_ && stream_ != stream) {
    wrong_kind_ = true;
    const bool binary = format_ == CaptureFormat::kBinary;
    diags_.push_back(TraceDiag{
        binary ? 9 : 1,
        StrFormat("%s %s where a %s was expected", stream_ ? "stream" : "capture",
                  binary ? "container" : "file", stream ? "stream" : "capture")});
  }
  return !failed();
}

bool CaptureReader::truncated_tail() const {
  return binary_ ? binary_->truncated_tail() : text_stream_.truncated_tail;
}

bool CaptureReader::failed() const {
  return !header_ok_ || wrong_kind_ || text_failed_ || (binary_ && binary_->failed());
}

std::uint64_t CaptureReader::corrupt_words() const {
  return binary_ ? binary_->corrupt_words() : text_corrupt_words_;
}

std::vector<TraceDiag> CaptureReader::diags() const {
  if (!binary_) {
    return diags_;
  }
  std::vector<TraceDiag> all = binary_->diags();
  all.insert(all.end(), diags_.begin(), diags_.end());
  return all;
}

bool ReadCapture(CaptureReader& reader, RawTrace* out,
                 std::vector<TraceDiag>* diags) {
  RawTrace trace;
  if (reader.ExpectKind(/*stream=*/false)) {
    trace.timer_bits = reader.timer_bits();
    trace.timer_clock_hz = reader.timer_clock_hz();
    trace.overflowed = reader.overflowed();
    trace.capture_elapsed_ns = reader.capture_elapsed_ns();
    SoaChunk chunk;
    while (reader.Next(&chunk)) {
      ZipColumns(chunk, &trace.events);
    }
    trace.dropped_events = reader.dropped_events();
  }
  AppendDiags(reader, diags);
  if (reader.failed()) {
    return false;
  }
  *out = std::move(trace);
  return true;
}

bool ReadStream(CaptureReader& reader, StreamCapture* out,
                std::vector<TraceDiag>* diags) {
  StreamCapture stream;
  if (reader.ExpectKind(/*stream=*/true)) {
    stream.timer_bits = reader.timer_bits();
    stream.timer_clock_hz = reader.timer_clock_hz();
    SoaChunk soa;
    while (reader.Next(&soa)) {
      TraceChunk chunk;
      chunk.dropped_before = soa.dropped_before;
      ZipColumns(soa, &chunk.events);
      stream.chunks.push_back(std::move(chunk));
    }
    stream.truncated_tail = reader.truncated_tail();
  }
  AppendDiags(reader, diags);
  if (reader.failed()) {
    return false;
  }
  *out = std::move(stream);
  return true;
}

bool DecodeCaptureBinary(std::string_view bytes, RawTrace* out,
                         std::vector<TraceDiag>* diags) {
  CaptureReader reader(bytes, /*salvage=*/false);
  return ReadCapture(reader, out, diags);
}

bool RawTrace::Deserialize(const std::string& text, RawTrace* out,
                           std::vector<TraceDiag>* diags) {
  bool header_ok = false;
  return ParseCaptureText(text, out, diags, /*salvage=*/false, nullptr, &header_ok);
}

bool RawTrace::DeserializeSalvage(const std::string& text, RawTrace* out,
                                  std::vector<TraceDiag>* diags,
                                  std::uint64_t* corrupt_words) {
  bool header_ok = false;
  return ParseCaptureText(text, out, diags, /*salvage=*/true, corrupt_words, &header_ok);
}

}  // namespace hwprof
