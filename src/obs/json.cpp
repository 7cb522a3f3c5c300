#include "obs/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace zapc::obs {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  // Integral values within the double-exact range print as integers, so
  // virtual times and byte counts round-trip byte-identically.
  if (std::nearbyint(d) == d && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

void append_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::NUL: out += "null"; return;
    case Type::BOOL: out += bool_ ? "true" : "false"; return;
    case Type::NUM: append_number(out, num_); return;
    case Type::STR: append_escaped(out, str_); return;
    case Type::ARR: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out += ',';
        first = false;
        append_newline_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::OBJ: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        append_newline_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      append_newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---- Parser ----------------------------------------------------------------

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<Json> parse() {
    auto v = value(0);
    if (!v) return v;
    skip_ws();
    if (pos_ != s_.size()) {
      return Status(Err::PROTO, "trailing characters in JSON");
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* lit) {
    std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Result<Json> value(int depth) {
    skip_ws();
    if (pos_ >= s_.size()) return Status(Err::PROTO, "unexpected end");
    char c = s_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxJsonDepth) {
      return Status(Err::PROTO, "JSON nested too deep");
    }
    if (c == '{') return object(depth + 1);
    if (c == '[') return array(depth + 1);
    if (c == '"') {
      auto str = string();
      if (!str) return str.status();
      return Json(std::move(str).value());
    }
    if (literal("true")) return Json(true);
    if (literal("false")) return Json(false);
    if (literal("null")) return Json();
    return number();
  }

  std::size_t digits() {
    std::size_t start = pos_;
    while (pos_ < s_.size() && is_digit(s_[pos_])) ++pos_;
    return pos_ - start;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  Result<Json> number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    bool ok = int_digits == 1 || (int_digits > 1 && s_[int_start] != '0');
    if (ok && pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      ok = digits() > 0;
    }
    if (ok && pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      ok = digits() > 0;
    }
    if (!ok) return Status(Err::PROTO, "bad JSON value");
    const double d =
        std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    if (!std::isfinite(d)) return Status(Err::PROTO, "bad JSON number");
    return Json(d);
  }

  Result<std::string> string() {
    if (!consume('"')) return Status(Err::PROTO, "expected string");
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        char e = s_[pos_++];
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
            if (pos_ + 4 > s_.size()) {
              return Status(Err::PROTO, "short \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Status(Err::PROTO, "bad \\u escape");
              }
            }
            // The writer escapes only control bytes; anything above
            // ASCII is written as its raw UTF-8 bytes.
            if (code > 0x7f) {
              return Status(Err::PROTO, "\\u escape above 0x7f");
            }
            out += static_cast<char>(code);
            break;
          }
          default:
            return Status(Err::PROTO, "bad escape");
        }
      } else {
        out += c;
      }
    }
    return Status(Err::PROTO, "unterminated string");
  }

  Result<Json> array(int depth) {
    if (!consume('[')) return Status(Err::PROTO, "expected [");
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      auto v = value(depth);
      if (!v) return v;
      arr.push(std::move(v).value());
      if (consume(']')) return arr;
      if (!consume(',')) return Status(Err::PROTO, "expected , or ]");
    }
  }

  Result<Json> object(int depth) {
    if (!consume('{')) return Status(Err::PROTO, "expected {");
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return key.status();
      if (obj.find(key.value()) != nullptr) {
        return Status(Err::PROTO, "duplicate key " + key.value());
      }
      if (!consume(':')) return Status(Err::PROTO, "expected :");
      auto v = value(depth);
      if (!v) return v;
      obj[key.value()] = std::move(v).value();
      if (consume('}')) return obj;
      if (!consume(',')) return Status(Err::PROTO, "expected , or }");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> json_parse(const std::string& text) {
  return Parser(text).parse();
}

// ---- Named field lists -----------------------------------------------------

Status JsonReader::finish() const {
  if (!st_ || found_ == obj_.size()) return st_;
  for (const auto& [k, v] : obj_.fields()) {
    if (std::none_of(keys_.begin(), keys_.end(),
                     [&k = k](const char* n) { return k == n; })) {
      return Status(Err::PROTO, k + ": unknown key");
    }
  }
  return Status(Err::PROTO, "unknown key");
}

std::string to_hex(const Bytes& b) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(b.size() * 2);
  for (u8 c : b) {
    s.push_back(kHex[c >> 4]);
    s.push_back(kHex[c & 0xF]);
  }
  return s;
}

Result<Bytes> from_hex(const std::string& s) {
  if (s.size() % 2 != 0) return Status(Err::PROTO, "odd hex length");
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  Bytes out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    int hi = nib(s[i]), lo = nib(s[i + 1]);
    if (hi < 0 || lo < 0) return Status(Err::PROTO, "bad hex digit");
    out.push_back(static_cast<u8>((hi << 4) | lo));
  }
  return out;
}

}  // namespace zapc::obs
