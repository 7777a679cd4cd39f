// Minimal JSON emission and parsing for experiment artefacts.
//
// Campaign results are exported as JSON so downstream tooling (plotting,
// regression tracking) can consume them without parsing ASCII tables. The
// parser exists for the laboratory's own inputs: `fsim batch` spec files,
// checkpoints (which `fsim merge` folds back together) and service
// messages.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fsim::util {

/// Incremental JSON writer with correct string escaping and comma handling.
/// Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("app").value("wavetoy");
///   w.key("regions").begin_array();
///   ...
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(const std::string& name);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// The serialised document. Valid once all containers are closed.
  const std::string& str() const noexcept { return out_; }

 private:
  void pre_value();
  void raw(const std::string& s);
  static std::string escape(const std::string& s);

  std::string out_;
  // Per-nesting-level flag: has this container already emitted an element?
  std::vector<bool> has_elem_;
  bool pending_key_ = false;
};

/// Parsed JSON document node. Numbers keep their source token so 64-bit
/// integers (seeds, digests) round-trip exactly — a double would silently
/// lose precision above 2^53.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }

  /// Typed accessors; each throws SetupError when the node has a different
  /// kind (a malformed artefact should fail loudly, not read as zero).
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  /// as_int narrowed to `int`; an out-of-range value is refused, never
  /// wrapped (2^32 + 1 must not read back as 1).
  int as_i32() const;
  std::uint64_t as_u64() const;
  const std::string& as_string() const;

  /// Array elements (throws unless kind() == kArray).
  const std::vector<JsonValue>& items() const;

  /// Object members in document order (throws unless kind() == kObject).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;
  /// Member lookup: null when absent, throws when not an object.
  const JsonValue* find(const std::string& key) const;
  /// Member lookup that throws SetupError when the key is absent.
  const JsonValue& at(const std::string& key) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string scalar_;  // string value, or the raw number token
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse a complete JSON document (trailing whitespace allowed, nothing
/// else). Throws SetupError with a byte offset on malformed input.
JsonValue parse_json(const std::string& text);

}  // namespace fsim::util
