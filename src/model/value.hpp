// Tuple field values (paper Section 2).
//
// HyperFile understands only a few simple data kinds — strings, numbers,
// keywords-as-strings, pointers to other objects — and treats everything
// else (document text, images, object code) as an opaque byte sequence, much
// like a file. Selection filters can match the simple kinds; blobs can only
// be stored and retrieved.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "model/object_id.hpp"

namespace hyperfile {

enum class ValueKind : std::uint8_t {
  kNull = 0,
  kString = 1,
  kNumber = 2,
  kPointer = 3,
  kBlob = 4,
};

const char* to_string(ValueKind k);

class Value {
 public:
  using Blob = std::vector<std::uint8_t>;

  Value() = default;

  static Value string(std::string s) { return Value(std::move(s)); }
  static Value number(std::int64_t n) { return Value(n); }
  static Value pointer(ObjectId id) { return Value(id); }
  static Value blob(Blob b) { return Value(std::move(b)); }
  /// Convenience: blob from text payload (e.g. document body).
  static Value blob_text(const std::string& text) {
    return Value(Blob(text.begin(), text.end()));
  }

  ValueKind kind() const { return static_cast<ValueKind>(rep_.index()); }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_number() const { return kind() == ValueKind::kNumber; }
  bool is_pointer() const { return kind() == ValueKind::kPointer; }
  bool is_blob() const { return kind() == ValueKind::kBlob; }

  const std::string& as_string() const { return std::get<1>(rep_); }
  std::int64_t as_number() const { return std::get<2>(rep_); }
  const ObjectId& as_pointer() const { return std::get<3>(rep_); }
  const Blob& as_blob() const { return std::get<4>(rep_); }

  /// Deep equality. Pointers compare by identity (birth site + seq), so a
  /// stale presumed-site hint does not affect query semantics.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Total order (kind-major) so values can key ordered containers.
  friend bool operator<(const Value& a, const Value& b);

  /// Approximate in-memory / on-wire size in bytes; used by the baseline
  /// comparator to account for shipping whole objects.
  std::size_t byte_size() const;

  std::string to_string() const;

  /// The wire field list (wire/serialize.hpp).
  template <class Ar>
  friend void fields(Ar& ar, Value& v);

 private:
  struct Null {
    friend bool operator==(const Null&, const Null&) { return true; }
  };
  explicit Value(std::string s) : rep_(std::move(s)) {}
  explicit Value(std::int64_t n) : rep_(n) {}
  explicit Value(ObjectId id) : rep_(id) {}
  explicit Value(Blob b) : rep_(std::move(b)) {}

  std::variant<Null, std::string, std::int64_t, ObjectId, Blob> rep_;
};

}  // namespace hyperfile
