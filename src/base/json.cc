#include "src/base/json.h"

#include <cstdlib>

#include "src/base/strings.h"

namespace hwprof {

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out)) {
      if (error != nullptr) {
        *error = StrFormat("JSON parse error at offset %zu: %s", i_,
                           err_.empty() ? "malformed value" : err_.c_str());
      }
      return false;
    }
    SkipWs();
    if (i_ != s_.size()) {
      if (error != nullptr) {
        *error = StrFormat("trailing garbage at offset %zu", i_);
      }
      return false;
    }
    return true;
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Literal(const char* lit) {
    const std::size_t n = std::string_view(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (i_ >= s_.size()) return Fail("unexpected end of input");
    switch (s_[i_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::kBool;
        out->boolean = true;
        return Literal("true") || Fail("bad literal");
      case 'f':
        out->kind = JsonValue::kBool;
        out->boolean = false;
        return Literal("false") || Fail("bad literal");
      case 'n':
        out->kind = JsonValue::kNull;
        return Literal("null") || Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (i_ >= s_.size() || s_[i_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return Fail("expected ':'");
      ++i_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->obj.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->arr.push_back(std::move(value));
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == ']') {
        ++i_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++i_;  // opening quote
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_];
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size()) return Fail("unterminated escape");
        switch (s_[i_]) {
          case '"':
            c = '"';
            break;
          case '\\':
            c = '\\';
            break;
          case '/':
            c = '/';
            break;
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case 'b':
            c = '\b';
            break;
          case 'f':
            c = '\f';
            break;
          case 'u': {
            if (i_ + 4 >= s_.size()) return Fail("short \\u escape");
            unsigned code = 0;
            for (int k = 1; k <= 4; ++k) {
              const char h = s_[i_ + static_cast<std::size_t>(k)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            i_ += 4;
            c = static_cast<char>(code & 0xFF);  // enough for our ASCII output
            break;
          }
          default:
            return Fail("unknown escape");
        }
      }
      out->push_back(c);
      ++i_;
    }
    if (i_ >= s_.size()) return Fail("unterminated string");
    ++i_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = i_;
    if (i_ < s_.size() && (s_[i_] == '-' || s_[i_] == '+')) ++i_;
    bool any = false;
    while (i_ < s_.size() &&
           ((s_[i_] >= '0' && s_[i_] <= '9') || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '-' || s_[i_] == '+')) {
      any = true;
      ++i_;
    }
    if (!any) return Fail("expected a value");
    out->kind = JsonValue::kNumber;
    out->number = std::strtod(std::string(s_.substr(start, i_ - start)).c_str(), nullptr);
    return true;
  }

  bool Fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  std::string err_;
};

}  // namespace

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return JsonReader(text).Parse(out, error);
}

}  // namespace hwprof
