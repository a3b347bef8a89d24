// Minimal dependency-free JSON reader: a recursive-descent parser into a
// value tree, enough for the files the tools write themselves (trace-event
// exports, lint findings): objects, arrays, strings (with escapes), numbers,
// true/false/null.

#ifndef HWPROF_SRC_BASE_JSON_H_
#define HWPROF_SRC_BASE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hwprof {

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // in document order

  // The first member named `key`, or nullptr (also for non-objects).
  const JsonValue* Get(std::string_view key) const;
};

// Parses one JSON document (surrounding whitespace allowed). On failure sets
// *error (when non-null) to "JSON parse error at offset N: reason" or
// "trailing garbage at offset N".
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace hwprof

#endif  // HWPROF_SRC_BASE_JSON_H_
