#include "obs/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hlm::obs {

std::string JsonQuote(const std::string& raw) {
  std::string out = "\"";
  for (char c : raw) {
    unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
        if (u < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", u);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonUnescape(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    char c = escaped[i];
    if (c != '\\' || i + 1 >= escaped.size()) {
      out.push_back(c);
      continue;
    }
    char next = escaped[++i];
    switch (next) {
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'u': {
        unsigned value = 0;
        bool valid = i + 4 < escaped.size();
        for (size_t d = 1; valid && d <= 4; ++d) {
          char h = escaped[i + d];
          value <<= 4;
          if (h >= '0' && h <= '9') {
            value |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            value |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            value |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            valid = false;
          }
        }
        if (valid) {
          i += 4;
          out.push_back(value <= 0xFF ? static_cast<char>(value) : '?');
        } else {
          out.push_back('u');
        }
        break;
      }
      default:
        // Covers \" \\ \/ and keeps unknown escapes readable.
        out.push_back(next);
    }
  }
  return out;
}

/// Recursive-descent parser over the JsonValue tree. Kept as a friend
/// class (not a lambda nest) so the depth guard and error plumbing stay
/// readable.
class JsonValueParser {
 public:
  explicit JsonValueParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    HLM_RETURN_IF_ERROR(ParseValue(&root, 0));
    SkipWhitespace();
    if (at_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json offset " + std::to_string(at_) +
                                   ": " + message);
  }

  void SkipWhitespace() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\t' || text_[at_] == '\n' ||
            text_[at_] == '\r')) {
      ++at_;
    }
  }

  bool Consume(char c) {
    if (at_ < text_.size() && text_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }

  Status ParseLiteral(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (at_ >= text_.size() || text_[at_] != *p) {
        return Error(std::string("expected '") + literal + "'");
      }
      ++at_;
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    size_t start = at_;
    while (at_ < text_.size() && text_[at_] != '"') {
      if (text_[at_] == '\\') ++at_;  // skip the escaped character
      ++at_;
    }
    if (at_ >= text_.size()) return Error("unterminated string");
    *out = JsonUnescape(text_.substr(start, at_ - start));
    ++at_;  // closing quote
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (at_ >= text_.size()) return Error("unexpected end of document");
    char c = text_[at_];
    if (c == '{') {
      ++at_;
      out->kind_ = JsonValue::Kind::kObject;
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      while (true) {
        SkipWhitespace();
        std::string key;
        HLM_RETURN_IF_ERROR(ParseString(&key));
        SkipWhitespace();
        if (!Consume(':')) return Error("expected ':' in object");
        JsonValue value;
        HLM_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        out->object_.emplace(std::move(key), std::move(value));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume('}')) return Status::OK();
        return Error("expected ',' or '}' in object");
      }
    }
    if (c == '[') {
      ++at_;
      out->kind_ = JsonValue::Kind::kArray;
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      while (true) {
        JsonValue value;
        HLM_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
        out->array_.push_back(std::move(value));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume(']')) return Status::OK();
        return Error("expected ',' or ']' in array");
      }
    }
    if (c == '"') {
      out->kind_ = JsonValue::Kind::kString;
      return ParseString(&out->string_);
    }
    if (c == 't') {
      HLM_RETURN_IF_ERROR(ParseLiteral("true"));
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = true;
      return Status::OK();
    }
    if (c == 'f') {
      HLM_RETURN_IF_ERROR(ParseLiteral("false"));
      out->kind_ = JsonValue::Kind::kBool;
      out->bool_ = false;
      return Status::OK();
    }
    if (c == 'n') {
      HLM_RETURN_IF_ERROR(ParseLiteral("null"));
      out->kind_ = JsonValue::Kind::kNull;
      return Status::OK();
    }
    // Number: delegate to strtod over the longest plausible span.
    size_t start = at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '-' || text_[at_] == '+' || text_[at_] == '.' ||
            text_[at_] == 'e' || text_[at_] == 'E')) {
      ++at_;
    }
    if (at_ == start) return Error("unexpected character");
    std::string span = text_.substr(start, at_ - start);
    char* parse_end = nullptr;
    double value = std::strtod(span.c_str(), &parse_end);
    if (parse_end == nullptr || *parse_end != '\0') {
      return Error("unparsable number '" + span + "'");
    }
    // JSON has no inf/nan; an overflowing literal is corrupt input.
    if (!std::isfinite(value)) {
      return Error("number out of range '" + span + "'");
    }
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = value;
    if (span.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      long long integer = std::strtoll(span.c_str(), &parse_end, 10);
      if (errno == 0 && *parse_end == '\0') out->integer_ = integer;
    }
    return Status::OK();
  }

  const std::string& text_;
  size_t at_ = 0;
};

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  JsonValueParser parser(text);
  return parser.Parse();
}

bool JsonValue::AsBool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::AsNumber(double fallback) const {
  return kind_ == Kind::kNumber ? number_ : fallback;
}

std::string JsonValue::AsString(const std::string& fallback) const {
  return kind_ == Kind::kString ? string_ : fallback;
}

std::optional<long long> JsonValue::AsInteger() const {
  if (kind_ != Kind::kNumber) return std::nullopt;
  if (integer_.has_value()) return integer_;
  // 2^63 is exactly representable; every double below it in magnitude
  // converts without overflow.
  constexpr double kLimit = 9223372036854775808.0;
  if (number_ != std::trunc(number_) || number_ < -kLimit ||
      number_ >= kLimit) {
    return std::nullopt;
  }
  return static_cast<long long>(number_);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::At(size_t index) const {
  if (kind_ != Kind::kArray || index >= array_.size()) return nullptr;
  return &array_[index];
}

size_t JsonValue::size() const {
  switch (kind_) {
    case Kind::kArray:
      return array_.size();
    case Kind::kObject:
      return object_.size();
    default:
      return 0;
  }
}

}  // namespace hlm::obs
