#include "io/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace tfjs::io {

namespace {

void dumpString(const std::string& s, std::ostream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void dumpValue(const Json& j, std::ostream& os, int indent, int depth) {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)),
                               ' ')
                 : "";
  const std::string padEnd =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : "";
  const char* nl = indent > 0 ? "\n" : "";
  if (j.isNull()) {
    os << "null";
  } else if (j.isBool()) {
    os << (j.asBool() ? "true" : "false");
  } else if (j.isNumber()) {
    const double d = j.asDouble();
    if (!std::isfinite(d)) {
      os << "null";  // JSON has no NaN or infinity
    } else if (d == std::floor(d) && std::fabs(d) < 1e15) {
      os << static_cast<long long>(d);
    } else {
      // Shortest text that parses back to the same double.
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof(buf), d);
      os.write(buf, res.ptr - buf);
    }
  } else if (j.isString()) {
    dumpString(j.asString(), os);
  } else if (j.isArray()) {
    const auto& a = j.asArray();
    if (a.empty()) {
      os << "[]";
      return;
    }
    os << '[' << nl;
    for (std::size_t i = 0; i < a.size(); ++i) {
      os << pad;
      dumpValue(a[i], os, indent, depth + 1);
      if (i + 1 < a.size()) os << ',';
      os << nl;
    }
    os << padEnd << ']';
  } else {
    const auto& o = j.asObject();
    if (o.empty()) {
      os << "{}";
      return;
    }
    os << '{' << nl;
    std::size_t i = 0;
    for (const auto& [k, v] : o) {
      os << pad;
      dumpString(k, os);
      os << (indent > 0 ? ": " : ":");
      dumpValue(v, os, indent, depth + 1);
      if (++i < o.size()) os << ',';
      os << nl;
    }
    os << padEnd << '}';
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse() {
    Json j = value();
    skipWs();
    TFJS_ARG_CHECK(pos_ == s_.size(), "JSON: trailing characters at " << pos_);
    return j;
  }

 private:
  void skipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skipWs();
    TFJS_ARG_CHECK(pos_ < s_.size(), "JSON: unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    TFJS_ARG_CHECK(peek() == c, "JSON: expected '" << c << "' at " << pos_);
    ++pos_;
  }

  bool consume(const std::string& word) {
    skipWs();
    if (s_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Json value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json(string());
    if (consume("true")) return Json(true);
    if (consume("false")) return Json(false);
    if (consume("null")) return Json(nullptr);
    return number();
  }

  Json object() {
    expect('{');
    JsonObject o;
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(o));
    }
    for (;;) {
      std::string key = string();
      expect(':');
      o.emplace(std::move(key), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(o));
    }
  }

  Json array() {
    expect('[');
    JsonArray a;
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(a));
    }
    for (;;) {
      a.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(a));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        TFJS_ARG_CHECK(pos_ < s_.size(), "JSON: bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            TFJS_ARG_CHECK(pos_ + 4 <= s_.size(), "JSON: bad \\u escape");
            const int code = std::stoi(s_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            // Basic-plane ASCII only; multi-byte escapes are re-encoded
            // as UTF-8 best-effort (enough for layer names).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            throw InvalidArgumentError("JSON: unknown escape sequence");
        }
      } else {
        out += c;
      }
    }
    TFJS_ARG_CHECK(pos_ < s_.size(), "JSON: unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Json number() {
    skipWs();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      digits = true;
      ++pos_;
    }
    TFJS_ARG_CHECK(digits, "JSON: invalid token at " << start);
    try {
      return Json(std::stod(s_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      throw InvalidArgumentError("JSON: invalid number at " +
                                 std::to_string(start));
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump(int indent) const {
  std::ostringstream os;
  dumpValue(*this, os, indent, 0);
  return os.str();
}

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace tfjs::io
