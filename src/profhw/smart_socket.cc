#include "src/profhw/smart_socket.h"

#include <fstream>
#include <sstream>
#include <string_view>

#include "src/base/mmap_file.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/capture_reader.h"

namespace hwprof {

namespace {

bool WriteFile(const std::string& path, std::string_view bytes) {
  OBS_SCOPED_SPAN("socket.save");
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    OBS_COUNT("socket.save_failures", 1);
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    OBS_COUNT("socket.save_failures", 1);
    return false;
  }
  OBS_COUNT("socket.uploads", 1);
  OBS_COUNT("socket.upload_bytes", bytes.size());
  return true;
}

}  // namespace

bool OpenCaptureFile(const std::string& path, MappedFile* file,
                     std::vector<TraceDiag>* diags) {
  OBS_SCOPED_SPAN("socket.load");
  if (!file->Open(path)) {
    if (diags != nullptr) {
      diags->push_back(TraceDiag{0, "cannot open file"});
    }
    OBS_COUNT("socket.load_failures", 1);
    return false;
  }
  OBS_COUNT("socket.download_bytes", file->size());
  return true;
}

bool SaveCapture(const RawTrace& trace, const std::string& path,
                 CaptureFormat format) {
  return WriteFile(path, format == CaptureFormat::kBinary
                             ? EncodeCaptureBinary(trace)
                             : trace.Serialize());
}

bool SaveCapture(const RawTrace& trace, const std::string& path) {
  return SaveCapture(trace, path, CaptureFormat::kText);
}

bool LoadCapture(const std::string& path, RawTrace* out,
                 std::vector<TraceDiag>* diags) {
  MappedFile file;
  if (!OpenCaptureFile(path, &file, diags)) {
    return false;
  }
  CaptureReader reader(file.view(), /*salvage=*/false);
  return ReadCapture(reader, out, diags);
}

bool LoadCapture(const std::string& path, RawTrace* out) {
  return LoadCapture(path, out, nullptr);
}

std::uint64_t StreamCapture::TotalEvents() const {
  std::uint64_t n = 0;
  for (const TraceChunk& c : chunks) {
    n += c.events.size();
  }
  return n;
}

std::uint64_t StreamCapture::TotalDropped() const {
  std::uint64_t n = 0;
  for (const TraceChunk& c : chunks) {
    n += c.dropped_before;
  }
  return n;
}

RawTrace StreamCapture::Flatten() const {
  RawTrace raw;
  raw.timer_bits = timer_bits;
  raw.timer_clock_hz = timer_clock_hz;
  raw.events.reserve(static_cast<std::size_t>(TotalEvents()));
  for (const TraceChunk& c : chunks) {
    raw.events.insert(raw.events.end(), c.events.begin(), c.events.end());
  }
  return raw;
}

namespace {

std::string StreamHeaderText(unsigned timer_bits, std::uint64_t timer_clock_hz) {
  return StrFormat("hwprof-stream v1 %u %llu\n", timer_bits,
                   static_cast<unsigned long long>(timer_clock_hz));
}

std::string StreamChunkText(const TraceChunk& chunk) {
  std::string text =
      StrFormat("chunk %zu %llu\n", chunk.events.size(),
                static_cast<unsigned long long>(chunk.dropped_before));
  for (const RawEvent& e : chunk.events) {
    AppendEventText(e, &text);
  }
  return text;
}

}  // namespace

std::string SerializeStreamText(const StreamCapture& stream) {
  std::string text = StreamHeaderText(stream.timer_bits, stream.timer_clock_hz);
  for (const TraceChunk& chunk : stream.chunks) {
    text += StreamChunkText(chunk);
  }
  return text;
}

bool SaveStreamHeader(const std::string& path, unsigned timer_bits,
                      std::uint64_t timer_clock_hz, CaptureFormat format) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return false;
  }
  const std::string header =
      format == CaptureFormat::kBinary
          ? EncodeStreamHeaderBinary(timer_bits, timer_clock_hz)
          : StreamHeaderText(timer_bits, timer_clock_hz);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  return static_cast<bool>(out);
}

bool SaveStreamHeader(const std::string& path, unsigned timer_bits,
                      std::uint64_t timer_clock_hz) {
  return SaveStreamHeader(path, timer_bits, timer_clock_hz,
                          CaptureFormat::kText);
}

bool AppendStreamChunk(const std::string& path, const TraceChunk& chunk) {
  // Stream files are self-describing: match whatever format the header was
  // started in, so writers never carry format state between drains.
  bool binary = false;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return false;
    }
    char head[8] = {};
    in.read(head, sizeof(head));
    binary = LooksBinaryContainer(
        std::string_view(head, static_cast<std::size_t>(in.gcount())));
  }
  std::ofstream out(path, std::ios::app | std::ios::binary);
  if (!out) {
    return false;
  }
  OBS_SCOPED_SPAN("socket.append_chunk");
  const std::string block =
      binary ? EncodeStreamChunkBinary(chunk) : StreamChunkText(chunk);
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  if (!out) {
    OBS_COUNT("socket.save_failures", 1);
    return false;
  }
  OBS_COUNT("socket.stream_chunks", 1);
  OBS_COUNT("socket.upload_bytes", block.size());
  return true;
}

bool LoadStream(const std::string& path, StreamCapture* out,
                std::vector<TraceDiag>* diags) {
  MappedFile file;
  if (!OpenCaptureFile(path, &file, diags)) {
    return false;
  }
  CaptureReader reader(file.view(), /*salvage=*/false);
  return ReadStream(reader, out, diags);
}

bool LoadStream(const std::string& path, StreamCapture* out) {
  return LoadStream(path, out, nullptr);
}

}  // namespace hwprof
