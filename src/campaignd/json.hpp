// Minimal JSON document model for the campaignd wire protocol and
// checkpoint files.
//
// The rest of the repo only ever *emits* JSON (hand-rolled ostream
// serializers); campaignd is the first subsystem that must also *parse* it
// -- run snapshots come back over sockets and checkpoints are reloaded
// across process lifetimes. Two properties matter more than generality:
//
//   * Lossless numbers. Seeds are full-range uint64 (campaign_run_seed
//     avalanches into the top bit), so numbers cannot transit through
//     double. An integral token keeps its exact textual form and converts
//     on demand (u64 / i64 / double); doubles are emitted with %.17g,
//     which round-trips every finite IEEE-754 binary64 exactly. A restored
//     snapshot therefore re-renders byte-identically.
//
//   * Total rejection. Anything malformed throws ProtocolError with a
//     byte offset -- never UB, never a partial document. The framing fuzz
//     suite (tests/campaignd/test_json.cpp) feeds this parser garbage
//     under ASan/UBSan.
//
// The model is a tree of Value nodes (object keys keep INSERTION order so
// emitted documents are deterministic and diffable). Depth and size are
// bounded to keep hostile inputs from exhausting the stack or the heap.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mts::campaignd::json {

/// Malformed document, wrong type, or missing member. `what()` carries the
/// byte offset for parse errors.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& msg)
      : std::runtime_error("json: " + msg) {}
};

class Value;
using Array = std::vector<Value>;
/// Object member list in insertion order (deterministic emission).
using Members = std::vector<std::pair<std::string, Value>>;

enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(std::nullptr_t) : kind_(Kind::kNull) {}  // NOLINT(runtime/explicit)
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Value(const char* s) : kind_(Kind::kString), str_(s) {}  // NOLINT
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT

  /// Numbers keep their exact textual form; these factories format it.
  static Value number_u64(std::uint64_t v);
  static Value number_i64(std::int64_t v);
  /// %.17g: exact round-trip for every finite double. Non-finite values
  /// (JSON has no inf/nan) are emitted as 0.
  static Value number_double(double v);
  static Value number_size(std::size_t v) {
    return number_u64(static_cast<std::uint64_t>(v));
  }
  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }

  // -- typed accessors (throw ProtocolError on kind mismatch) ---------------

  bool as_bool() const;
  const std::string& as_string() const;
  /// Exact unsigned conversion: rejects negatives, fractions and overflow.
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  std::size_t as_size() const { return static_cast<std::size_t>(as_u64()); }
  unsigned as_unsigned() const;
  const Array& as_array() const;
  const Members& as_object() const;

  /// The number's exact textual form (kNumber only).
  const std::string& number_text() const;

  // -- object helpers -------------------------------------------------------

  /// Member lookup; nullptr when absent (object only; throws otherwise).
  const Value* find(const std::string& key) const;
  /// Member lookup; throws ProtocolError when absent.
  const Value& at(const std::string& key) const;
  /// Appends (or replaces) a member, keeping insertion order.
  void set(const std::string& key, Value v);
  bool has(const std::string& key) const { return find(key) != nullptr; }

  // -- convenience: optional members with defaults --------------------------

  std::uint64_t get_u64(const std::string& key, std::uint64_t dflt) const;
  double get_double(const std::string& key, double dflt) const;
  std::string get_string(const std::string& key,
                         const std::string& dflt) const;
  bool get_bool(const std::string& key, bool dflt) const;

  // -- array helpers --------------------------------------------------------

  void push(Value v);
  std::size_t size() const;

  /// Serializes this value compactly (no insignificant whitespace).
  std::string dump() const;

 private:
  friend Value parse(const std::string&);
  friend class Parser;

  Kind kind_;
  bool bool_ = false;
  std::string str_;  ///< kString: value; kNumber: exact textual form
  Array arr_;
  Members obj_;
};

/// Parses one complete JSON document; trailing non-whitespace, depth beyond
/// 64 levels, or any syntax error throws ProtocolError.
Value parse(const std::string& text);

}  // namespace mts::campaignd::json
