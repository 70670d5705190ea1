// A lightweight JSON value: parser plus builder/serializer. Parsing is used
// to validate the trace subsystem's Chrome trace-event output; building and
// `dump` back the machine-readable run reports (src/driver/report) and the
// bench perf files (bench/common) without an external dependency.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace zc::json {

/// A parsed JSON value. Object member order is not preserved (members are
/// keyed); numbers are doubles (adequate for trace timestamps/counters).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }

  /// Object member access; throws zc::Error when not an object or missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;

  // --- construction (exporters: run reports, bench perf JSON) ------------
  [[nodiscard]] static Value make_null();
  [[nodiscard]] static Value make_bool(bool b);
  [[nodiscard]] static Value make_num(double v);
  [[nodiscard]] static Value make_int(long long v);
  [[nodiscard]] static Value make_str(std::string s);
  [[nodiscard]] static Value make_array();
  [[nodiscard]] static Value make_object();

  /// Builder member access: creates the member (null) if absent. A null
  /// value silently becomes an object; any other non-object kind throws.
  Value& operator[](const std::string& key);

  /// Array append; a null value silently becomes an array.
  void push_back(Value v);

  /// Serializes: object keys sorted (map order), shortest round-trip
  /// numbers (integral values print without a decimal point), `indent`
  /// spaces per nesting level (0 = compact single line). Non-finite
  /// numbers render as null — JSON has no NaN/Inf.
  [[nodiscard]] std::string dump(int indent = 2) const;
};

/// Guard rails for parsing untrusted input (archive lines, BENCH and report
/// files). Every limit violation throws zc::Error carrying the byte offset
/// where parsing stopped — there is no unbounded recursion or allocation
/// path for any input.
struct ParseLimits {
  /// Documents larger than this are rejected before any parsing.
  std::size_t max_bytes = 16u << 20;  // 16 MiB
  /// Maximum container (object/array) nesting depth. The parser recurses
  /// per level, so this bounds stack use for adversarial inputs like
  /// "[[[[[...".
  int max_depth = 128;
};

/// Parses one JSON document (throws zc::Error, with the byte offset, on
/// syntax errors, trailing garbage, or a ParseLimits violation).
Value parse(std::string_view text, const ParseLimits& limits = {});

}  // namespace zc::json
