#include "tools/tool_common.h"

#include <fstream>
#include <sstream>

#include "src/base/strings.h"
#include "src/profhw/capture_reader.h"
#include "src/profhw/smart_socket.h"

namespace hwprof {

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

void AppendTraceDiags(const std::string& path, const std::vector<TraceDiag>& diags,
                      std::string* message) {
  for (const TraceDiag& d : diags) {
    if (d.line > 0) {
      *message += StrFormat("\n%s:%d: %s", path.c_str(), d.line, d.message.c_str());
    } else {
      *message += StrFormat("\n%s: %s", path.c_str(), d.message.c_str());
    }
  }
}

bool LoadNamesFile(const std::string& path, TagFile* names, std::string* error) {
  std::string text;
  std::vector<TagDiag> diags;
  if (ReadFileToString(path, &text) && TagFile::Parse(text, names, &diags)) {
    return true;
  }
  *error = StrFormat("cannot parse names file '%s'", path.c_str());
  for (const TagDiag& d : diags) {
    *error += StrFormat("\n%s:%d: %s", path.c_str(), d.line, d.message.c_str());
  }
  return false;
}

bool OpenCapture(const std::string& path, MappedFile* file, std::string* error) {
  std::vector<TraceDiag> diags;
  if (OpenCaptureFile(path, file, &diags)) {
    return true;
  }
  *error = StrFormat("cannot load capture '%s'", path.c_str());
  AppendTraceDiags(path, diags, error);
  return false;
}

bool DecodeCapture(const std::string& path, std::string_view bytes,
                   const TagFile& names, StreamingOptions keep, bool salvage,
                   std::FILE* warnings, DecodedTrace* decoded, std::string* error) {
  CaptureReader reader(bytes, salvage);
  auto fail = [&] {
    *error = StrFormat("cannot load capture '%s'", path.c_str());
    AppendTraceDiags(path, reader.diags(), error);
    return false;
  };
  if (reader.failed()) {
    return fail();
  }
  *decoded =
      StreamingDecoder(names, reader.timer_bits(), reader.timer_clock_hz(), keep).DecodeAll(reader);
  if (reader.failed()) {
    return fail();
  }
  const char* at = reader.format() == CaptureFormat::kBinary ? " @" : ":";
  for (const TraceDiag& d : reader.diags()) {
    std::fprintf(warnings, "warning: %s%s%d: %s (salvaged)\n", path.c_str(), at, d.line,
                 d.message.c_str());
  }
  return true;
}

}  // namespace hwprof
