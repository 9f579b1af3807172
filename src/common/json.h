// Dependency-free JSON support shared by the exporters and validators.
//
// Two halves:
//  * `Value` + `parse` — a full-grammar recursive-descent parser producing a
//    small DOM. Used by the structural validators (trace export, bench result
//    documents) so an emitted file is known well-formed before a human or a
//    plotting script ever opens it.
//  * `Writer` — a streaming serializer with comma/nesting bookkeeping and
//    deterministic number formatting (shortest round-trip via to_chars), so
//    identical inputs render byte-identical documents.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace eo::json {

struct Value {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  std::string str;                                  // kString
  double num = 0;                                   // kNumber
  bool b = false;                                   // kBool
  std::vector<Value> items;                         // kArray
  std::vector<std::pair<std::string, Value>> fields;  // kObject

  /// Object field lookup; null when absent or not an object.
  const Value* get(const std::string& key) const;

  bool is_string() const { return type == kString; }
  bool is_number() const { return type == kNumber; }
  bool is_object() const { return type == kObject; }
  bool is_array() const { return type == kArray; }
  bool is_bool() const { return type == kBool; }
};

/// Parses `text` as one JSON document (no trailing garbage). Returns false
/// and fills `err` (if non-null) with a position-annotated reason on failure.
bool parse(const std::string& text, Value* out, std::string* err);

/// Escapes a string for embedding inside a JSON string literal (no quotes).
std::string escape(const std::string& s);

// --- validator and exporter helpers ----------------------------------------
// Failure reasons are built only on the failure path.

/// Stores `msg` in `*err` (when non-null) and returns false.
bool fail(std::string* err, const std::string& msg);

/// True when `obj` has a numeric field `key`; otherwise fails with
/// "missing numeric field '<key>'".
bool require_number(const Value& obj, const char* key, std::string* err);

/// The envelope every `eo-*` document opens with: a "schema" string equal to
/// `name` and a "schema_version" number equal to `version`. `what` prefixes
/// the reason (an embedded section names itself; a document passes "").
bool check_schema(const Value& v, const char* name, int version,
                  std::string* err, const char* what = "");

/// Writes `text` to `path`, replacing the file. Returns false with "cannot
/// open <path> for writing" or "write to <path> failed" in `err`.
bool write_file(const std::string& path, const std::string& text,
                std::string* err);

/// Streaming JSON writer. The caller drives the document shape; the writer
/// inserts commas, quotes keys, escapes strings, and formats numbers
/// deterministically. Misuse (a bare value where a key is required) is a
/// programming error and only detected by the validators downstream.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Starts an object field; must be followed by exactly one value (or
  /// container). Returns *this so `w.key("x").value(1)` chains.
  Writer& key(const std::string& k);

  void value(const std::string& s);
  void value(const char* s);
  void value(double d);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();

  // One-call object fields.
  template <typename T>
  void field(const std::string& k, const T& v) {
    key(k);
    value(v);
  }

 private:
  void sep();

  std::ostream& os_;
  struct Level {
    bool array = false;
    bool first = true;
  };
  std::vector<Level> stack_;
  bool pending_value_ = false;  // a key was just written
};

}  // namespace eo::json
