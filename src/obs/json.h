#ifndef HLM_OBS_JSON_H_
#define HLM_OBS_JSON_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace hlm::obs {

/// `raw` as a JSON string literal, quotes included. Escapes `"`, `\`,
/// and every control character below 0x20 (named escapes for \b \f \n
/// \r \t, \u00XX otherwise), so arbitrary span/metric names can never
/// corrupt an exported document. Shared by the metrics and trace
/// exporters; use this instead of hand-rolling quoting.
std::string JsonQuote(const std::string& raw);

/// Inverse of JsonQuote's escaping for the payload between the quotes:
/// decodes \" \\ \/ \b \f \n \r \t and \u00XX (code points above 0xFF
/// are replaced with '?'; this codebase emits none). Unknown escapes
/// keep the escaped character verbatim.
std::string JsonUnescape(const std::string& escaped);

/// A parsed JSON document node: the one JSON reader in the codebase.
/// Metrics snapshots (MetricsSnapshot::FromJson), events-JSONL lines
/// (Event::FromJsonLine) and live /statusz documents (hlm_statusz top)
/// all parse through it. Numbers are finite doubles, and integer
/// literals additionally keep their exact int64 value (AsInteger);
/// object keys keep first-wins semantics on duplicates.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one complete JSON document (trailing garbage is an error).
  /// Nesting is capped at 128 levels so hostile input cannot blow the
  /// stack.
  static Result<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Type-coercing accessors: the fallback comes back when the node is
  /// absent or of a different kind.
  bool AsBool(bool fallback = false) const;
  double AsNumber(double fallback = 0.0) const;
  std::string AsString(const std::string& fallback = "") const;
  /// The number as an int64 when it is integral and in range: exact for
  /// integer literals (doubles lose precision past 2^53, and span ids
  /// use 63 bits); nullopt for fractions, out-of-range values and
  /// non-numbers.
  std::optional<long long> AsInteger() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Array element; nullptr when out of range or not an array.
  const JsonValue* At(size_t index) const;
  size_t size() const;

  const std::map<std::string, JsonValue>& object() const { return object_; }
  const std::vector<JsonValue>& array() const { return array_; }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::optional<long long> integer_;  ///< set for integer literals
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonValueParser;
};

}  // namespace hlm::obs

#endif  // HLM_OBS_JSON_H_
