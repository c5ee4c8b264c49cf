//===- support/Json.h - Minimal JSON value + parser -------------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately small JSON reader for the thistle-serve wire protocol:
/// one newline-delimited request per line, parsed into an
/// order-preserving JsonValue tree. The parser returns
/// Expected<JsonValue> with byte-offset diagnostics so a malformed
/// request becomes an error *response* (exit-code-2 semantics), never a
/// dropped connection. It accepts exactly RFC-8259 JSON minus two
/// liberties we don't need: no \uXXXX surrogate-pair decoding (escapes
/// are preserved verbatim into the string) and numbers are parsed as
/// doubles with an exact-integer fast path.
///
/// Writing JSON is JsonWriter.h's job; this header is read-only on
/// purpose so the emit path keeps its deterministic field ordering.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_SUPPORT_JSON_H
#define THISTLE_SUPPORT_JSON_H

#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace thistle {
namespace json {

/// One parsed JSON value. Objects keep their members in source order
/// (duplicate keys keep the last occurrence on lookup, mirroring most
/// consumers) so diagnostics and round-trip comparisons stay stable.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  static JsonValue makeNull() { return JsonValue(); }
  static JsonValue makeBool(bool V) {
    JsonValue J;
    J.K = Kind::Bool;
    J.BoolV = V;
    return J;
  }
  static JsonValue makeNumber(double V) {
    JsonValue J;
    J.K = Kind::Number;
    J.NumberV = V;
    return J;
  }
  static JsonValue makeString(std::string V) {
    JsonValue J;
    J.K = Kind::String;
    J.StringV = std::move(V);
    return J;
  }
  static JsonValue makeArray() {
    JsonValue J;
    J.K = Kind::Array;
    return J;
  }
  static JsonValue makeObject() {
    JsonValue J;
    J.K = Kind::Object;
    return J;
  }

  bool boolean() const { return BoolV; }
  double number() const { return NumberV; }
  const std::string &string() const { return StringV; }

  /// Number as a non-negative integer if it is exactly one (serve
  /// requests carry ids, extents and millisecond budgets this way);
  /// numbers of 2^64 or more do not fit and are rejected.
  bool asUint(std::uint64_t &Out) const {
    if (K != Kind::Number || !(NumberV >= 0 && NumberV < 0x1p64))
      return false;
    std::uint64_t V = static_cast<std::uint64_t>(NumberV);
    if (static_cast<double>(V) != NumberV)
      return false;
    Out = V;
    return true;
  }

  const std::vector<JsonValue> &array() const { return ArrayV; }
  std::vector<JsonValue> &array() { return ArrayV; }

  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return ObjectV;
  }

  /// Last member with this key, or null if absent.
  const JsonValue *find(const std::string &Key) const {
    for (auto It = ObjectV.rbegin(); It != ObjectV.rend(); ++It)
      if (It->first == Key)
        return &It->second;
    return nullptr;
  }

  void push(JsonValue V) { ArrayV.push_back(std::move(V)); }
  void set(std::string Key, JsonValue V) {
    ObjectV.emplace_back(std::move(Key), std::move(V));
  }

private:
  Kind K = Kind::Null;
  bool BoolV = false;
  double NumberV = 0.0;
  std::string StringV;
  std::vector<JsonValue> ArrayV;
  std::vector<std::pair<std::string, JsonValue>> ObjectV;
};

/// Parses one complete JSON document from Text. Trailing garbage after
/// the document is an error (wire lines carry exactly one value).
/// Errors carry StatusCode::ParseError and a byte offset.
Expected<JsonValue> parseJson(const std::string &Text);

} // namespace json
} // namespace thistle

#endif // THISTLE_SUPPORT_JSON_H
