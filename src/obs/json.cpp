#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace swiftest::obs {

void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"NaN\"";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "\"Infinity\"" : "\"-Infinity\"";
    return;
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  out += '"';
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string_view fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->type() == Type::kString ? v->string_
                                                    : std::string(fallback);
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->type() == Type::kNumber ? v->number_ : fallback;
}

std::uint64_t JsonValue::as_u64(std::uint64_t fallback) const {
  if (type_ != Type::kNumber) return fallback;
  std::uint64_t v = 0;
  const char* begin = string_.data();
  const char* end = begin + string_.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec == std::errc() && ptr == end) return v;
  // Not a plain non-negative integer token (sign, fraction, exponent, or
  // beyond 2^64 - 1): the double value is the best available reading, when
  // it fits — casting a double at or past 2^64 is undefined.
  constexpr double kTwoPow64 = 18446744073709551616.0;
  return number_ >= 0.0 && number_ < kTwoPow64 ? static_cast<std::uint64_t>(number_)
                                               : fallback;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue value;
    if (!parse_value(value)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = "trailing characters at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool fail(const std::string& why) {
    error_ = why + " at offset " + std::to_string(pos_);
    return false;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') return parse_string(out);
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  /// RAII depth guard: containers nest at most kMaxJsonDepth levels.
  class DepthScope {
   public:
    explicit DepthScope(JsonParser& parser) : parser_(parser) { ++parser_.depth_; }
    ~DepthScope() { --parser_.depth_; }
    [[nodiscard]] bool ok() const { return parser_.depth_ <= kMaxJsonDepth; }

   private:
    JsonParser& parser_;
  };

  bool parse_object(JsonValue& out) {
    const DepthScope depth(*this);
    if (!depth.ok()) return fail("nesting deeper than kMaxJsonDepth");
    if (!consume('{')) return false;
    out.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue key;
      skip_ws();
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object_[key.string_] = std::move(value);
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    const DepthScope depth(*this);
    if (!depth.ok()) return fail("nesting deeper than kMaxJsonDepth");
    if (!consume('[')) return false;
    out.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.array_.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(JsonValue& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.type_ = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.string_ += '"'; break;
          case '\\': out.string_ += '\\'; break;
          case '/': out.string_ += '/'; break;
          case 'n': out.string_ += '\n'; break;
          case 't': out.string_ += '\t'; break;
          case 'r': out.string_ += '\r'; break;
          case 'b': out.string_ += '\b'; break;
          case 'f': out.string_ += '\f'; break;
          case 'u': {
            if (!parse_unicode_escape(out.string_)) return false;
            break;
          }
          default: return fail("unsupported escape");
        }
      } else {
        out.string_ += c;
      }
    }
    return fail("unterminated string");
  }

  /// Reads the four hex digits after "\u"; nullopt on malformed hex.
  std::optional<std::uint32_t> read_hex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
    }
    pos_ += 4;
    return v;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  /// Decodes one \uXXXX escape (pos_ is just past the 'u'). A high surrogate
  /// followed by a \uXXXX low surrogate combines into one code point; a lone
  /// surrogate — unpaired high, or a low with no preceding high — decodes to
  /// U+FFFD so damaged artifacts stay loadable.
  bool parse_unicode_escape(std::string& out) {
    static constexpr std::uint32_t kReplacement = 0xfffd;
    const auto first = read_hex4();
    if (!first) return fail("bad \\u escape");
    std::uint32_t cp = *first;
    if (cp >= 0xdc00 && cp <= 0xdfff) {
      cp = kReplacement;  // lone low surrogate
    } else if (cp >= 0xd800 && cp <= 0xdbff) {
      // High surrogate: consume the paired \uXXXX if present and valid.
      if (pos_ + 1 < text_.size() && text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
        const std::size_t rewind = pos_;
        pos_ += 2;
        const auto second = read_hex4();
        if (!second) return fail("bad \\u escape");
        if (*second >= 0xdc00 && *second <= 0xdfff) {
          cp = 0x10000 + ((cp - 0xd800) << 10) + (*second - 0xdc00);
        } else {
          // Not a low surrogate: the first escape was lone; re-parse the
          // second one on the next loop iteration.
          cp = kReplacement;
          pos_ = rewind;
        }
      } else {
        cp = kReplacement;  // lone high surrogate at end / before other text
      }
    }
    append_utf8(out, cp);
    return true;
  }

  bool parse_bool(JsonValue& out) {
    if (text_.substr(pos_, 4) == "true") {
      out.type_ = JsonValue::Type::kBool;
      out.number_ = 1.0;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out.type_ = JsonValue::Type::kBool;
      out.number_ = 0.0;
      pos_ += 5;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_null(JsonValue& out) {
    if (text_.substr(pos_, 4) == "null") {
      out.type_ = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return fail("bad literal");
  }

  bool parse_number(JsonValue& out) {
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc() || ptr == begin) return fail("bad number");
    out.type_ = JsonValue::Type::kNumber;
    out.number_ = v;
    // Keep the raw token so 64-bit integers (trace ids) survive exactly:
    // a double holds only 53 mantissa bits.
    out.string_.assign(begin, static_cast<std::size_t>(ptr - begin));
    pos_ += static_cast<std::size_t>(ptr - begin);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

std::optional<std::string> read_file(const std::string& path, std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    if (error != nullptr) *error = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << file.rdbuf();
  return std::move(text).str();
}

}  // namespace swiftest::obs
