// The obs JSON codec: deterministic writer primitives, a minimal reader, and
// a whole-file read shared by every artifact loader.
//
// Writer. Doubles are rendered with std::to_chars (shortest round-trip
// form), so the same value always produces the same bytes regardless of
// stream state. JSON has no literal for NaN or the infinities; those render
// as the quoted strings "NaN", "Infinity", and "-Infinity" so the emitted
// document stays parseable by any conforming reader instead of containing
// bare `nan`/`inf` tokens.
//
// Reader. A deliberately small recursive-descent parser: objects, arrays,
// strings, numbers, booleans, null. It exists so spec and artifact files can
// be plain JSON without pulling a dependency into the tree. Semantics the
// loaders rely on (covered by tests/obs/json_util_test.cpp):
//   * duplicate object keys: last value wins;
//   * \uXXXX escapes decode to UTF-8, surrogate pairs included; a lone
//     surrogate decodes to U+FFFD (replacement) instead of failing, so a
//     damaged artifact degrades rather than becoming unreadable;
//   * nesting beyond kMaxJsonDepth is rejected (a hostile or corrupt
//     document cannot overflow the parse stack);
//   * integer tokens keep their raw text, so as_u64() is exact over the
//     full u64 range (2^63 and friends round-trip bit-for-bit).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace swiftest::obs {

// ------------------------------------------------------------------ writer

/// Appends a finite double in shortest round-trip decimal form; non-finite
/// values render as the quoted strings "NaN" / "Infinity" / "-Infinity".
void append_double(std::string& out, double v);

void append_u64(std::string& out, std::uint64_t v);
void append_i64(std::string& out, std::int64_t v);

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes, and
/// control characters.
void append_json_string(std::string& out, std::string_view s);

// ------------------------------------------------------------------ reader

/// Maximum object/array nesting the parser accepts. Deep enough for any
/// artifact this tree writes (they nest < 10 levels), small enough that a
/// pathological document cannot exhaust the recursion stack.
inline constexpr int kMaxJsonDepth = 192;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }

  [[nodiscard]] double as_number(double fallback = 0.0) const {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  /// Exact unsigned 64-bit read: doubles carry 53 mantissa bits, so ids above
  /// 2^53 (trace nonces) must be re-parsed from the raw number token.
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const;
  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return type_ == Type::kBool ? number_ != 0.0 : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& as_array() const { return array_; }

  /// Object member by key, or nullptr.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
  /// All object members, key-ordered (empty for non-objects).
  [[nodiscard]] const std::map<std::string, JsonValue>& members() const noexcept {
    return object_;
  }
  /// Convenience accessors with fallbacks for absent/mistyped members.
  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view fallback) const;
  [[nodiscard]] double get_number(std::string_view key, double fallback) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  double number_ = 0.0;  // doubles as bool storage
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one JSON document. Returns nullopt (with a position/reason in
/// `error`, when provided) on malformed input or trailing garbage.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error = nullptr);

// -------------------------------------------------------------------- files

/// Reads a whole file as bytes. Returns nullopt (with "cannot read <path>"
/// in `error`, when provided) if it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path,
                                                   std::string* error = nullptr);

}  // namespace swiftest::obs
