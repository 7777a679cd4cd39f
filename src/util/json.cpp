#include "util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/status.hpp"

namespace fsim::util {

std::string JsonWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::pre_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_elem_.empty()) {
    if (has_elem_.back()) out_ += ',';
    has_elem_.back() = true;
  }
}

void JsonWriter::raw(const std::string& s) {
  pre_value();
  out_ += s;
}

JsonWriter& JsonWriter::begin_object() {
  raw("{");
  has_elem_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  FSIM_CHECK(!has_elem_.empty());
  has_elem_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  raw("[");
  has_elem_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  FSIM_CHECK(!has_elem_.empty());
  has_elem_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& name) {
  FSIM_CHECK(!pending_key_);
  if (!has_elem_.empty()) {
    if (has_elem_.back()) out_ += ',';
    has_elem_.back() = true;
  }
  out_ += '"' + escape(name) + "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  raw('"' + escape(v) + '"');
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) {
  return value(std::string(v));
}

JsonWriter& JsonWriter::value(double v) {
  if (std::isnan(v) || std::isinf(v)) {
    raw("null");  // JSON has no NaN/Inf
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  raw(buf);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  raw(std::to_string(v));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  raw(std::to_string(v));
  return *this;
}

JsonWriter& JsonWriter::value(int v) { return value(static_cast<std::int64_t>(v)); }

JsonWriter& JsonWriter::value(bool v) {
  raw(v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  raw("null");
  return *this;
}

namespace {

[[noreturn]] void type_error(const char* want, JsonValue::Kind got) {
  static const char* const names[] = {"null",   "bool",  "number",
                                      "string", "array", "object"};
  throw SetupError(std::string("json: expected ") + want + ", found " +
                   names[static_cast<unsigned>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) type_error("bool", kind_);
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) type_error("number", kind_);
  return std::strtod(scalar_.c_str(), nullptr);
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::kNumber) type_error("number", kind_);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(scalar_.c_str(), &end, 10);
  if (errno != 0 || end == scalar_.c_str() || *end != '\0')
    throw SetupError("json: '" + scalar_ + "' is not a 64-bit integer");
  return static_cast<std::int64_t>(v);
}

int JsonValue::as_i32() const {
  const std::int64_t v = as_int();
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    throw SetupError("json: '" + scalar_ + "' is not a 32-bit integer");
  return static_cast<int>(v);
}

std::uint64_t JsonValue::as_u64() const {
  if (kind_ != Kind::kNumber) type_error("number", kind_);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(scalar_.c_str(), &end, 10);
  if (errno != 0 || end == scalar_.c_str() || *end != '\0' ||
      scalar_[0] == '-')
    throw SetupError("json: '" + scalar_ + "' is not an unsigned 64-bit integer");
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) type_error("string", kind_);
  return scalar_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) type_error("array", kind_);
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject) type_error("object", kind_);
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) type_error("object", kind_);
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw SetupError("json: missing key '" + key + "'");
  return *v;
}

/// Recursive-descent parser over the subset JsonWriter emits (which is all
/// of JSON minus \uXXXX escapes above the Latin-1 range, kept anyway).
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw SetupError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string parse_string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode (the writer only emits \u00XX, but be complete).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
  }

  JsonValue parse_value() {
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      ++pos_;
      v.kind_ = JsonValue::Kind::kObject;
      if (peek() == '}') { ++pos_; return v; }
      while (true) {
        std::string key = parse_string_body();
        expect(':');
        v.members_.emplace_back(std::move(key), parse_value());
        const char sep = peek();
        ++pos_;
        if (sep == '}') return v;
        if (sep != ',') fail("expected ',' or '}' in object");
        skip_ws();
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind_ = JsonValue::Kind::kArray;
      if (peek() == ']') { ++pos_; return v; }
      while (true) {
        v.items_.push_back(parse_value());
        const char sep = peek();
        ++pos_;
        if (sep == ']') return v;
        if (sep != ',') fail("expected ',' or ']' in array");
      }
    }
    if (c == '"') {
      v.kind_ = JsonValue::Kind::kString;
      v.scalar_ = parse_string_body();
      return v;
    }
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = true;
      return v;
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = false;
      return v;
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return v;  // kNull
    }
    // Number: capture the raw token so integer precision survives.
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') { ++pos_; eat_digits(); }
    if (digits && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      eat_digits();
    }
    if (!digits) fail("unexpected character");
    v.kind_ = JsonValue::Kind::kNumber;
    v.scalar_ = text_.substr(start, pos_ - start);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace fsim::util
