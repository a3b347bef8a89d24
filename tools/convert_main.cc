#include "tools/convert_main.h"

#include <cstdio>
#include <fstream>

#include "src/base/mmap_file.h"
#include "src/base/strings.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/capture_reader.h"
#include "src/profhw/smart_socket.h"
#include "tools/tool_common.h"

namespace hwprof {
namespace {

bool WriteWholeFile(const std::string& path, const std::string& bytes,
                    std::string* error) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    *error = StrFormat("cannot open output file '%s'", path.c_str());
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    *error = StrFormat("cannot write output file '%s'", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int ConvertMain(int argc, const char* const* argv, std::string* error) {
  if (argc < 3) {
    *error = "usage: hwprof_convert <input> <output> [--to text|binary]";
    return 2;
  }
  const std::string in_path = argv[1];
  const std::string out_path = argv[2];
  std::string to;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--to" && i + 1 < argc) {
      to = argv[++i];
      if (to != "text" && to != "binary") {
        *error = StrFormat("--to wants 'text' or 'binary', got '%s'", to.c_str());
        return 2;
      }
    } else {
      *error = StrFormat("unknown option '%s'", arg.c_str());
      return 2;
    }
  }

  MappedFile file;
  std::vector<TraceDiag> diags;
  const bool opened = OpenCaptureFile(in_path, &file, &diags);
  CaptureReader reader(file.view(), /*salvage=*/false);
  if (!opened || !reader.header_ok()) {
    *error = StrFormat(
        "cannot identify '%s': expected the binary container magic or an "
        "'hwprof-raw'/'hwprof-stream' text header",
        in_path.c_str());
    AppendTraceDiags(in_path, opened ? reader.diags() : diags, error);
    return 1;
  }
  const CaptureFormat from = reader.format();
  const bool is_stream = reader.is_stream();
  const CaptureFormat target =
      to.empty() ? (from == CaptureFormat::kText ? CaptureFormat::kBinary
                                                 : CaptureFormat::kText)
      : to == "binary" ? CaptureFormat::kBinary
                       : CaptureFormat::kText;

  std::string bytes;
  std::uint64_t events = 0;
  if (is_stream) {
    StreamCapture stream;
    if (!ReadStream(reader, &stream, &diags)) {
      *error = StrFormat("cannot load stream '%s'", in_path.c_str());
      AppendTraceDiags(in_path, diags, error);
      return 1;
    }
    if (stream.truncated_tail) {
      // A torn tail cannot survive a round trip (the partial record or
      // chunk is not representable); converting it would silently lose the
      // "writer was still appending" marker.
      *error = StrFormat(
          "stream '%s' has a torn tail (writer still appending?); refusing "
          "a lossy conversion",
          in_path.c_str());
      return 1;
    }
    events = stream.TotalEvents();
    bytes = target == CaptureFormat::kBinary ? EncodeStreamBinary(stream)
                                             : SerializeStreamText(stream);
  } else {
    RawTrace raw;
    if (!ReadCapture(reader, &raw, &diags)) {
      *error = StrFormat("cannot load capture '%s'", in_path.c_str());
      AppendTraceDiags(in_path, diags, error);
      return 1;
    }
    events = raw.events.size();
    bytes = target == CaptureFormat::kBinary ? EncodeCaptureBinary(raw)
                                             : raw.Serialize();
  }
  if (!WriteWholeFile(out_path, bytes, error)) {
    return 1;
  }
  std::printf("%s: %s %s -> %s %s (%llu events, %zu bytes)\n", in_path.c_str(),
              from == CaptureFormat::kBinary ? "binary" : "text",
              is_stream ? "stream" : "capture",
              target == CaptureFormat::kBinary ? "binary" : "text",
              out_path.c_str(), static_cast<unsigned long long>(events),
              bytes.size());
  return 0;
}

}  // namespace hwprof
