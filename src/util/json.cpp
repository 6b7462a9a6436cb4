#include "util/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace adaparse::util {

const Json& Json::at(const std::string& key) const {
  return as_object().at(key);
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

Json::Json(std::uint64_t u) {
  if (u <= static_cast<std::uint64_t>(
               std::numeric_limits<std::int64_t>::max())) {
    value_ = static_cast<std::int64_t>(u);
  } else {
    value_ = u;
  }
}

double Json::as_number() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*u);
  }
  return std::get<double>(value_);
}

std::uint64_t Json::as_uint64() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    if (*i < 0) throw std::bad_variant_access();
    return static_cast<std::uint64_t>(*i);
  }
  return std::get<std::uint64_t>(value_);
}

namespace {

/// Per byte: 0 if it passes through unescaped, else the character after
/// the backslash ('u' for the \u00xx form every other control byte takes).
constexpr std::array<char, 256> kEscapes = [] {
  std::array<char, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[c] = 'u';
  table['"'] = '"';
  table['\\'] = '\\';
  table['\n'] = 'n';
  table['\r'] = 'r';
  table['\t'] = 't';
  table['\b'] = 'b';
  table['\f'] = 'f';
  return table;
}();

constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

/// The 8 bytes at `p` as one word (byte order does not matter below).
std::uint64_t load_word(const char* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

/// Nonzero iff some byte of `word` equals `c`.
std::uint64_t has_byte(std::uint64_t word, unsigned char c) {
  const std::uint64_t x = word ^ (kLowBits * c);
  return (x - kLowBits) & ~x & kHighBits;
}

/// Nonzero iff some byte of `word` is below `n` (n <= 0x80).
std::uint64_t has_byte_below(std::uint64_t word, unsigned char n) {
  return (word - kLowBits * n) & ~word & kHighBits;
}

/// Appends `s`, escaped, to `out`: each maximal run of bytes that need no
/// escape goes in with one append. Bytes >= 0x80 pass through.
void escape_into(std::string& out, std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end) {
    const char* const run = p;
    // Eight bytes at a time while none needs an escape, then bytewise.
    while (end - p >= 8) {
      const std::uint64_t word = load_word(p);
      if (has_byte_below(word, 0x20) | has_byte(word, '"') |
          has_byte(word, '\\')) {
        break;
      }
      p += 8;
    }
    while (p != end && kEscapes[static_cast<unsigned char>(*p)] == 0) ++p;
    out.append(run, p);
    if (p == end) break;
    const auto c = static_cast<unsigned char>(*p++);
    const char e = kEscapes[c];
    if (e == 'u') {
      constexpr char kHex[] = "0123456789abcdef";
      const char seq[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
      out.append(seq, 6);
    } else {
      const char seq[2] = {'\\', e};
      out.append(seq, 2);
    }
  }
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  escape_into(out, s);
  return out;
}

namespace {

void dump_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf; null is the conventional fallback.
    return;
  }
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  std::array<char, 32> buf{};
  const int n = std::snprintf(buf.data(), buf.size(), "%.12g", d);
  out.append(buf.data(), static_cast<std::size_t>(n));
}

void dump_value(std::string& out, const Json& j);

void dump_array(std::string& out, const JsonArray& a) {
  out += '[';
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) out += ',';
    dump_value(out, a[i]);
  }
  out += ']';
}

void dump_object(std::string& out, const JsonObject& o) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : o) {
    if (!first) out += ',';
    first = false;
    out += '"';
    escape_into(out, k);
    out += "\":";
    dump_value(out, v);
  }
  out += '}';
}

void dump_value(std::string& out, const Json& j) {
  if (j.is_null()) {
    out += "null";
  } else if (j.is_bool()) {
    out += j.as_bool() ? "true" : "false";
  } else if (j.is_integer()) {
    out += j.as_number() < 0.0 ? std::to_string(j.as_int64())
                               : std::to_string(j.as_uint64());
  } else if (j.is_number()) {
    dump_number(out, j.as_number());
  } else if (j.is_string()) {
    out += '"';
    escape_into(out, j.as_string());
    out += '"';
  } else if (j.is_array()) {
    dump_array(out, j.as_array());
  } else {
    dump_object(out, j.as_object());
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // Keys usually arrive sorted (dump() writes them in map order), so
      // the end hint makes each insert O(1); a repeated key still takes
      // the last value.
      obj.insert_or_assign(obj.end(), std::move(key), parse_value());
      skip_ws();
      const char c = advance();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = advance();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Everything up to the next quote or backslash goes in with one
      // append; running off the end fails in advance() at the same offset
      // a byte-at-a-time scan would.
      const std::size_t run = pos_;
      while (pos_ + 8 <= text_.size()) {
        const std::uint64_t word = load_word(text_.data() + pos_);
        if (has_byte(word, '"') | has_byte(word, '\\')) break;
        pos_ += 8;
      }
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (advance() == '"') break;
      const char e = advance();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const int digit = hex_digit(advance());
            if (digit < 0) fail("invalid hex digit in \\u escape");
            code = (code << 4) | static_cast<unsigned>(digit);
          }
          // A high surrogate escaped right before a low one is a single
          // code point beyond the BMP (JSON's only spelling of one in
          // ASCII). A lone surrogate keeps its 3-byte form.
          if (code >= 0xD800 && code <= 0xDBFF) {
            const unsigned low = escaped_low_surrogate();
            if (low != 0) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
              pos_ += 6;
            }
          }
          append_utf8(out, code);
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  static int hex_digit(char h) {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
  }

  /// The low surrogate spelled by a complete `\uDC00`-`\uDFFF` escape at
  /// pos_, or 0 (nothing is consumed either way).
  unsigned escaped_low_surrogate() const {
    if (pos_ + 6 > text_.size() || text_[pos_] != '\\' ||
        text_[pos_ + 1] != 'u') {
      return 0;
    }
    unsigned code = 0;
    for (std::size_t i = pos_ + 2; i < pos_ + 6; ++i) {
      const int digit = hex_digit(text_[i]);
      if (digit < 0) return 0;
      code = (code << 4) | static_cast<unsigned>(digit);
    }
    return code >= 0xDC00 && code <= 0xDFFF ? code : 0;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // An integer literal that fits 64 bits stays exact; anything else
    // (fraction, exponent, overflow) falls through to a double.
    if (*first == '-') {
      std::int64_t value = 0;
      const auto res = std::from_chars(first, last, value);
      if (res.ec == std::errc() && res.ptr == last) return Json(value);
    } else {
      std::uint64_t value = 0;
      const auto res = std::from_chars(first, last, value);
      if (res.ec == std::errc() && res.ptr == last) return Json(value);
    }
    double value = 0.0;
    const auto res = std::from_chars(first, last, value);
    if (res.ec != std::errc() || res.ptr != last) fail("invalid number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace adaparse::util
