#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace eo::json {

const Value* Value::get(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

bool fail(std::string* err, const std::string& msg) {
  if (err) *err = msg;
  return false;
}

bool require_number(const Value& obj, const char* key, std::string* err) {
  const Value* v = obj.get(key);
  if (!v || !v->is_number()) {
    return fail(err, std::string("missing numeric field '") + key + "'");
  }
  return true;
}

bool check_schema(const Value& v, const char* name, int version,
                  std::string* err, const char* what) {
  const Value* schema = v.get("schema");
  if (!schema || !schema->is_string() || schema->str != name) {
    return fail(err, std::string(what) + "'schema' is not \"" + name + "\"");
  }
  const Value* ver = v.get("schema_version");
  if (!ver || !ver->is_number() || ver->num != version) {
    return fail(err, std::string(what) + "'schema_version' is not " +
                         std::to_string(version));
  }
  return true;
}

bool write_file(const std::string& path, const std::string& text,
                std::string* err) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return fail(err, "cannot open " + path + " for writing");
  f << text;
  f.close();
  if (!f) return fail(err, "write to " + path + " failed");
  return true;
}

// ---------------------------------------------------------------------------
// Parser: full grammar (objects, arrays, strings with escapes, numbers,
// true/false/null), recursive descent over the raw text.
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(Value* out, std::string* err) {
    skip_ws();
    if (!value(out)) {
      if (err != nullptr) {
        *err = "JSON parse error near offset " + std::to_string(pos_) + ": " +
               err_;
      }
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      if (err != nullptr) {
        *err = "trailing garbage at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return fail("bad literal");
    pos_ += n;
    return true;
  }

  bool value(Value* out) {
    if (pos_ >= s_.size()) return fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->type = Value::kString;
      return string(&out->str);
    }
    if (c == 't') {
      out->type = Value::kBool;
      out->b = true;
      return literal("true");
    }
    if (c == 'f') {
      out->type = Value::kBool;
      out->b = false;
      return literal("false");
    }
    if (c == 'n') {
      out->type = Value::kNull;
      return literal("null");
    }
    return number(out);
  }

  bool object(Value* out) {
    out->type = Value::kObject;
    consume('{');
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(&key)) return fail("expected object key");
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      Value v;
      if (!value(&v)) return false;
      out->fields.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool array(Value* out) {
    out->type = Value::kArray;
    consume('[');
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      skip_ws();
      Value v;
      if (!value(&v)) return false;
      out->items.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string* out) {
    if (!consume('"')) return fail("expected string");
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("raw control char");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
        case 'f':
          out->push_back(' ');
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("short \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[pos_ + i]))) {
              return fail("bad \\u escape");
            }
          }
          pos_ += 4;
          out->push_back('?');  // validation only needs well-formedness
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(Value* out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected value");
    char* end = nullptr;
    const std::string tok = s_.substr(start, pos_ - start);
    out->num = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out->type = Value::kNumber;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string err_;
};

}  // namespace

bool parse(const std::string& text, Value* out, std::string* err) {
  return Parser(text).parse(out, err);
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::sep() {
  if (pending_value_) {
    // Value directly follows its key; no separator.
    pending_value_ = false;
    return;
  }
  if (stack_.empty()) return;
  if (!stack_.back().first) os_ << ',';
  stack_.back().first = false;
}

void Writer::begin_object() {
  sep();
  os_ << '{';
  stack_.push_back({/*array=*/false, /*first=*/true});
}

void Writer::end_object() {
  os_ << '}';
  stack_.pop_back();
}

void Writer::begin_array() {
  sep();
  os_ << '[';
  stack_.push_back({/*array=*/true, /*first=*/true});
}

void Writer::end_array() {
  os_ << ']';
  stack_.pop_back();
}

Writer& Writer::key(const std::string& k) {
  sep();
  os_ << '"' << escape(k) << "\":";
  pending_value_ = true;
  return *this;
}

void Writer::value(const std::string& s) {
  sep();
  os_ << '"' << escape(s) << '"';
}

void Writer::value(const char* s) { value(std::string(s)); }

void Writer::value(double d) {
  sep();
  if (!std::isfinite(d)) {
    // JSON has no NaN/Inf; the validators would reject the bare tokens.
    os_ << "null";
    return;
  }
  char buf[40];
  const auto res = std::to_chars(buf, buf + sizeof(buf), d);
  os_.write(buf, res.ptr - buf);
}

void Writer::value(std::int64_t v) {
  sep();
  os_ << v;
}

void Writer::value(std::uint64_t v) {
  sep();
  os_ << v;
}

void Writer::value(bool v) {
  sep();
  os_ << (v ? "true" : "false");
}

void Writer::null() {
  sep();
  os_ << "null";
}

}  // namespace eo::json
