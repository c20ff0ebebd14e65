#include "json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace rsnn::e2e {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::string parse(Json* out) {
    value(out);
    skip_space();
    if (error_.empty() && pos_ != text_.size()) fail("trailing characters");
    return error_;
  }

 private:
  void fail(const std::string& what) {
    if (error_.empty())
      error_ = "JSON: " + what + " at offset " + std::to_string(pos_);
  }
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t'))
      ++pos_;
  }
  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  void value(Json* out) {
    if (!error_.empty()) return;
    if (++depth_ > 64) return fail("nesting too deep");
    skip_space();
    if (pos_ >= text_.size()) return fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') {
      object(out);
    } else if (c == '[') {
      array(out);
    } else if (c == '"') {
      out->kind = Json::Kind::kString;
      string(&out->text);
    } else if (literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
    } else if (literal("false")) {
      out->kind = Json::Kind::kBool;
    } else if (literal("null")) {
      out->kind = Json::Kind::kNull;
    } else {
      const char* begin = text_.c_str() + pos_;
      char* end = nullptr;
      out->number = std::strtod(begin, &end);
      if (end == begin) return fail("unexpected character");
      out->kind = Json::Kind::kNumber;
      pos_ += static_cast<std::size_t>(end - begin);
    }
    --depth_;
  }

  void object(Json* out) {
    out->kind = Json::Kind::kObject;
    ++pos_;
    if (consume('}')) return;
    do {
      skip_space();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected key");
      string(&key);
      if (!consume(':')) return fail("expected ':'");
      Json member;
      value(&member);
      if (!error_.empty()) return;
      out->members.emplace_back(std::move(key), std::move(member));
    } while (consume(','));
    if (!consume('}')) fail("expected '}'");
  }

  void array(Json* out) {
    out->kind = Json::Kind::kArray;
    ++pos_;
    if (consume(']')) return;
    do {
      Json item;
      value(&item);
      if (!error_.empty()) return;
      out->items.push_back(std::move(item));
    } while (consume(','));
    if (!consume(']')) fail("expected ']'");
  }

  // Escapes beyond \uXXXX in the ASCII range are kept verbatim: the files
  // this reads are ASCII.
  void string(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            c = static_cast<char>(
                std::strtol(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          default: c = e; break;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

const Json* Json::find(const std::string& key) const {
  for (const auto& [name, member] : members)
    if (name == key) return &member;
  return nullptr;
}

std::string parse_json(const std::string& text, Json* out) {
  *out = Json{};
  return Parser(text).parse(out);
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string json_quote(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace rsnn::e2e
