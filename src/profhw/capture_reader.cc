#include "src/profhw/capture_reader.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/obs/telemetry.h"

namespace hwprof {

namespace {

// Parses one '<tag> <timestamp>' record line into *tag and *timestamp, or
// returns why it is not one.
std::string ParseRecord(std::string_view line, unsigned timer_bits, std::uint16_t* tag,
                        std::uint32_t* timestamp) {
  const std::size_t space = line.find(' ');
  if (space == std::string_view::npos || line.find(' ', space + 1) != std::string_view::npos) {
    return StrFormat("expected '<tag> <timestamp>', got %zu fields",
                     static_cast<std::size_t>(std::count(line.begin(), line.end(), ' ')) + 1);
  }
  std::uint64_t t = 0;
  std::uint64_t ts = 0;
  if (!ParseUint(line.substr(0, space), &t) || !ParseUint(line.substr(space + 1), &ts)) {
    return "tag and timestamp must be non-negative decimal numbers";
  }
  std::string fault = RecordFault(t, ts, timer_bits);
  *tag = static_cast<std::uint16_t>(t);
  *timestamp = static_cast<std::uint32_t>(ts);
  return fault;
}

bool ParseBankHeader(std::string_view line, std::uint64_t* count, std::uint64_t* dropped) {
  const std::vector<std::string_view> fields = Split(line, ' ');
  return fields.size() == 3 && fields[0] == "chunk" && ParseUint(fields[1], count) &&
         ParseUint(fields[2], dropped);
}

void Append(SoaChunk* chunk, std::uint16_t tag, std::uint32_t timestamp) {
  chunk->tags.push_back(tag);
  chunk->timestamps.push_back(timestamp);
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

// The text twin of BinaryChunkReader: checks the header line when built,
// and each Next() walks the lines from where the last one stopped, filling
// the SoA columns directly. Diagnostics carry 1-based line numbers.
//
//   capture: "hwprof-raw v1 <bits> <hz> <overflowed>[ dropped=N][ elapsed=NS]",
//            then '<tag> <timestamp>' lines, handed out in
//            kBinaryCaptureChunkRecords slices.
//   stream:  "hwprof-stream v1 <bits> <hz>", then "chunk <count> <dropped>"
//            banks of record lines, handed out bank by bank.
class CaptureReader::TextChunkReader {
 public:
  TextChunkReader(std::string_view text, bool stream, bool salvage);

  bool header_ok() const { return header_ok_; }
  unsigned timer_bits() const { return timer_bits_; }
  std::uint64_t timer_clock_hz() const { return timer_clock_hz_; }
  bool overflowed() const { return overflowed_; }
  std::uint64_t dropped_events() const { return dropped_events_; }
  std::uint64_t capture_elapsed_ns() const { return capture_elapsed_ns_; }

  bool Next(SoaChunk* chunk) {
    chunk->tags.clear();
    chunk->timestamps.clear();
    chunk->dropped_before = 0;
    return header_ok_ && !failed_ && (stream_ ? NextBank(chunk) : NextSlice(chunk));
  }

  bool truncated_tail() const { return truncated_tail_; }
  bool failed() const { return failed_; }
  std::uint64_t corrupt_words() const { return corrupt_words_; }
  const std::vector<TraceDiag>& diags() const { return diags_; }

 private:
  // One line of the text (the SplitLines rule: a final newline ends the
  // last line rather than starting an empty one).
  struct Line {
    std::string_view text;
    int number = 0;        // 1-based
    std::size_t next = 0;  // where the line after it starts
  };

  // The line at the read position, without taking it; false at the end.
  bool Peek(Line* line) const {
    if (pos_ >= text_.size()) {
      return false;
    }
    const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
    *line = Line{text_.substr(pos_, end - pos_), line_no_, end + 1};
    return true;
  }
  void Take(const Line& line) {
    pos_ = line.next;
    line_no_ = line.number + 1;
  }
  bool IsLast(const Line& line) const { return line.next >= text_.size(); }

  bool Damage(int line, std::string message, std::uint64_t lost) {
    return BookDamage(TraceDiag{line, std::move(message)}, lost, salvage_, &diags_,
                      &corrupt_words_, &failed_);
  }
  void ParseHeader(std::string_view line);
  bool NextSlice(SoaChunk* chunk);
  bool NextBank(SoaChunk* chunk);

  std::string_view text_;
  bool stream_ = false;
  bool salvage_ = false;
  std::size_t pos_ = 0;
  int line_no_ = 1;
  bool header_ok_ = false;
  unsigned timer_bits_ = 24;
  std::uint64_t timer_clock_hz_ = 1'000'000;
  bool overflowed_ = false;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t capture_elapsed_ns_ = 0;
  bool failed_ = false;
  bool truncated_tail_ = false;
  std::uint64_t corrupt_words_ = 0;
  std::vector<TraceDiag> diags_;
};

CaptureReader::TextChunkReader::TextChunkReader(std::string_view text, bool stream,
                                                bool salvage)
    : text_(text), stream_(stream), salvage_(salvage) {
  Line line;
  if (!Peek(&line)) {
    diags_.push_back(TraceDiag{1, "empty file: expected 'hwprof-raw v1 ...' header"});
    return;
  }
  Take(line);
  ParseHeader(line.text);
}

// A header problem is no damage: nothing after an unusable header can be
// trusted, so header_ok() stays false in both modes.
void CaptureReader::TextChunkReader::ParseHeader(std::string_view line) {
  auto refuse = [this](std::string message) {
    diags_.push_back(TraceDiag{1, std::move(message)});
  };
  const std::vector<std::string_view> fields = Split(line, ' ');
  const bool shaped = stream_ ? fields.size() == 4 && fields[0] == "hwprof-stream"
                              : fields.size() >= 5 && fields[0] == "hwprof-raw";
  if (!shaped || fields[1] != "v1") {
    refuse(stream_ ? "bad header: expected 'hwprof-stream v1 <bits> <hz>'"
                   : "bad header: expected 'hwprof-raw v1 <bits> <hz> <overflowed>'");
    return;
  }
  // An unparsable field stays 0, which CheckTimerFields refuses.
  std::uint64_t bits = 0;
  std::uint64_t hz = 0;
  ParseUint(fields[2], &bits);
  ParseUint(fields[3], &hz);
  switch (CheckTimerFields(bits, hz)) {
    case kTimerWidthFault:
      refuse("timer width must be a number in 8..32");
      return;
    case kTimerClockFault:
      refuse("timer clock rate must be a positive number");
      return;
    case kTimerFieldsSound:
      break;
  }
  timer_bits_ = static_cast<unsigned>(bits);
  timer_clock_hz_ = hz;
  if (!stream_) {
    std::uint64_t overflow = 0;
    if (!ParseUint(fields[4], &overflow) || overflow > 1) {
      refuse("overflowed flag must be 0 or 1");
      return;
    }
    overflowed_ = overflow == 1;
    // Optional key=value header tokens (dropped=N, elapsed=NS).
    for (std::size_t h = 5; h < fields.size(); ++h) {
      const std::string_view token = fields[h];
      const std::size_t eq = token.find('=');
      std::uint64_t value = 0;
      if (eq == std::string_view::npos || !ParseUint(token.substr(eq + 1), &value)) {
        refuse(StrFormat("bad header token '%.*s': expected key=<number>",
                         static_cast<int>(token.size()), token.data()));
        return;
      }
      const std::string_view key = token.substr(0, eq);
      if (key == "dropped") {
        dropped_events_ = value;
      } else if (key == "elapsed") {
        capture_elapsed_ns_ = value;
      } else {
        refuse(StrFormat("unknown header token '%.*s'", static_cast<int>(token.size()),
                         token.data()));
        return;
      }
    }
  }
  header_ok_ = true;
}

// Up to kBinaryCaptureChunkRecords records. Salvage skips each bad line as
// one corrupt word; strict fails at the first but checks every line after it
// for diagnostics only, so one pass reports them all.
bool CaptureReader::TextChunkReader::NextSlice(SoaChunk* chunk) {
  Line line;
  while ((failed_ || chunk->tags.size() < kBinaryCaptureChunkRecords) && Peek(&line)) {
    Take(line);
    std::uint16_t tag = 0;
    std::uint32_t timestamp = 0;
    std::string reason = ParseRecord(line.text, timer_bits_, &tag, &timestamp);
    if (!reason.empty()) {
      Damage(line.number, std::move(reason), 1);
    } else if (!failed_) {
      Append(chunk, tag, timestamp);
    }
  }
  return !failed_ && !chunk->tags.empty();
}

// One bank. A torn final line — wherever it falls — is tolerated in both
// modes (the writer may be mid-append; --follow polls the file the target
// is still writing): what was read stands and truncated_tail() is set.
// Mid-file damage fails a strict reader; salvage counts each unreadable line
// as one corrupt word and resynchronises at the next bank header — or at the
// next run of intact record lines, handed out as a recovery chunk (a
// destroyed bank header must not bill the records behind it).
bool CaptureReader::TextChunkReader::NextBank(SoaChunk* chunk) {
  Line line;
  std::uint16_t tag = 0;
  std::uint32_t timestamp = 0;
  while (Peek(&line)) {
    Take(line);
    std::uint64_t count = 0;
    if (!ParseBankHeader(line.text, &count, &chunk->dropped_before)) {
      if (IsLast(line)) {
        truncated_tail_ = true;  // torn bank header mid-append
        return false;
      }
      if (!Damage(line.number, "expected 'chunk <count> <dropped>'", 1)) {
        return false;
      }
      // The intact record lines behind it become a recovery chunk; the bank
      // boundary is gone, and its drop count (0 here) with it.
      Line orphan;
      while (Peek(&orphan) && ParseRecord(orphan.text, timer_bits_, &tag, &timestamp).empty()) {
        Take(orphan);
        Append(chunk, tag, timestamp);
      }
      if (!chunk->tags.empty()) {
        diags_.push_back(TraceDiag{line_no_ - 1,
                                   StrFormat("recovered %zu orphaned event lines after the "
                                             "unreadable chunk header",
                                             chunk->tags.size())});
        OBS_COUNT("socket.salvage_resyncs", 1);
        return true;
      }
      continue;
    }
    while (chunk->tags.size() < count && Peek(&line)) {
      std::string reason = ParseRecord(line.text, timer_bits_, &tag, &timestamp);
      if (reason.empty()) {
        Take(line);
        Append(chunk, tag, timestamp);
        continue;
      }
      if (IsLast(line)) {
        Take(line);  // torn final record: the short count marks the tail below
        break;
      }
      // A bank header cut this bank short: resynchronise there.
      std::uint64_t next_count = 0;
      std::uint64_t next_dropped = 0;
      const bool boundary = ParseBankHeader(line.text, &next_count, &next_dropped);
      if (!Damage(line.number, std::move(reason), boundary ? 0 : 1)) {
        return false;
      }
      if (boundary) {
        OBS_COUNT("socket.salvage_resyncs", 1);
        break;
      }
      Take(line);
    }
    // Short only counts as a torn tail when the text ran out; a mid-file
    // salvage resync at the next bank header is damage, not a writer still
    // appending.
    if (chunk->tags.size() < count && pos_ >= text_.size()) {
      truncated_tail_ = true;
    }
    return true;
  }
  return false;
}


CaptureReader::CaptureReader(std::string_view bytes, bool salvage) {
  auto take_header = [this](const auto& reader) {
    header_ok_ = reader.header_ok();
    timer_bits_ = reader.timer_bits();
    timer_clock_hz_ = reader.timer_clock_hz();
    if (!stream_) {
      overflowed_ = reader.overflowed();
      capture_elapsed_ns_ = reader.capture_elapsed_ns();
      dropped_events_ = reader.dropped_events();
    }
  };
  if (LooksBinaryContainer(bytes)) {
    format_ = CaptureFormat::kBinary;
    binary_.emplace(bytes, salvage);
    stream_ = binary_->kind() == BinaryKind::kStream;
    take_header(*binary_);
  } else {
    stream_ = StartsWith(bytes, "hwprof-stream");
    text_ = std::make_unique<TextChunkReader>(bytes, stream_, salvage);
    take_header(*text_);
  }
}

CaptureReader::~CaptureReader() = default;

bool CaptureReader::Next(SoaChunk* chunk) {
  if (failed() || !(binary_ ? binary_->Next(chunk) : text_->Next(chunk))) {
    return false;
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
  return binary_ ? binary_->truncated_tail() : text_->truncated_tail();
}

bool CaptureReader::failed() const {
  return !header_ok_ || wrong_kind_ || (binary_ ? binary_->failed() : text_->failed());
}

std::uint64_t CaptureReader::corrupt_words() const {
  return binary_ ? binary_->corrupt_words() : text_->corrupt_words();
}

std::vector<TraceDiag> CaptureReader::diags() const {
  std::vector<TraceDiag> all = binary_ ? binary_->diags() : text_->diags();
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

}  // namespace hwprof
