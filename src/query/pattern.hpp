// Patterns appearing in selection filters (paper Sections 2-3).
//
// A selection filter (type_pattern, key_pattern, data_pattern) matches a
// tuple field-by-field. The paper enumerates the pattern forms:
//   * a simple comparison — literal equivalence, a regular expression for
//     strings, or a range of values for a number;
//   * "?" — matches anything;
//   * "?X" — matches anything and *binds* the field value into the object's
//     matching-variable table O.mvars(X) (bindings are applied only if the
//     tuple as a whole matches);
//   * "$X" — matches if the field value is among the current bindings of X
//     (the footnote-2 "compare different tuples within a document" use);
//   * "->slot" — the retrieval operator: matches anything and emits the
//     field value to the query originator, tagged with the slot so the
//     application can bind it to a program variable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "model/value.hpp"

namespace hyperfile {

enum class PatternKind : std::uint8_t {
  kAny = 0,        // ?
  kLiteral = 1,    // "abc" or 42 or a pointer literal
  kRegex = 2,      // /expr/ (strings only)
  kRange = 3,      // [lo..hi] (numbers only)
  kBind = 4,       // ?X
  kUse = 5,        // $X
  kRetrieve = 6,   // ->slot
};

/// Fast-path classification of a kRegex pattern whose source contains no
/// regex metacharacters: the innermost tuple scan then runs a plain
/// substring / prefix / suffix comparison instead of std::regex_search
/// (which dominates CPU-bound drains — see DESIGN.md §14). Detected once at
/// compile time; `matches_reference` keeps the generic engine available as
/// the equivalence oracle.
enum class RegexFastPath : std::uint8_t {
  kNone = 0,      // general regex: std::regex_search
  kContains = 1,  // "lit"    — unanchored substring
  kPrefix = 2,    // "^lit"   — anchored at the start
  kSuffix = 3,    // "lit$"   — anchored at the end
  kExact = 4,     // "^lit$"  — whole-string equality
};

class Pattern {
 public:
  /// Default-constructed pattern is kAny.
  Pattern() = default;

  static Pattern any() { return Pattern(); }
  static Pattern literal(Value v);
  /// Convenience literal from a string / number.
  static Pattern literal(std::string s) { return literal(Value::string(std::move(s))); }
  static Pattern literal(const char* s) { return literal(Value::string(s)); }
  static Pattern literal(std::int64_t n) { return literal(Value::number(n)); }
  /// Compiles `expr` as ECMAScript regex; returns an error for bad syntax.
  static Result<Pattern> regex(std::string expr);
  static Pattern range(std::int64_t lo, std::int64_t hi);
  static Pattern bind(std::string var);
  static Pattern use(std::string var);
  static Pattern retrieve(std::uint32_t slot);

  PatternKind kind() const { return kind_; }
  const Value& literal_value() const { return literal_; }
  const std::string& regex_text() const { return text_; }
  const std::string& var() const { return text_; }
  std::int64_t range_lo() const { return lo_; }
  std::int64_t range_hi() const { return hi_; }
  std::uint32_t slot() const { return slot_; }

  bool binds() const { return kind_ == PatternKind::kBind; }
  bool uses() const { return kind_ == PatternKind::kUse; }
  bool retrieves() const { return kind_ == PatternKind::kRetrieve; }

  /// Field-level match, ignoring bind/use semantics (those need the object's
  /// binding table and are handled by the engine's E function):
  ///   kAny / kBind / kRetrieve  -> true
  ///   kLiteral                  -> value equality (numbers vs numbers, ...)
  ///   kRegex                    -> value is a string matching the regex
  ///   kRange                    -> value is a number in [lo, hi]
  ///   kUse                      -> false (engine resolves against bindings)
  bool matches_basic(const Value& v) const;

  /// Match a plain string field (tuple type / key names) without
  /// materializing a Value — the allocation-free form the hot tuple scan
  /// uses. Identical semantics to matches_basic(Value::string(s)).
  bool matches_basic(std::string_view s) const;
  bool matches_basic(const std::string& s) const {
    return matches_basic(std::string_view(s));
  }

  /// The generic matcher without the fast path: literal patterns compare
  /// Values, regex patterns always run std::regex_search. Semantically
  /// identical to matches_basic and called by no engine. It is the oracle:
  /// tests assert fast path == reference on arbitrary inputs, and
  /// bench_parallel_site times matches_basic against it.
  bool matches_reference(const Value& v) const;

  RegexFastPath fast_path() const { return fast_; }

  /// The literal a non-kNone fast path compares against (empty otherwise).
  /// Exposed so site summaries can probe kPrefix/kExact regexes against a
  /// peer's Bloom filter the same way the engine would match them.
  const std::string& fast_text() const { return fast_text_; }

  friend bool operator==(const Pattern& a, const Pattern& b);
  friend bool operator!=(const Pattern& a, const Pattern& b) { return !(a == b); }

  /// Textual form accepted by the parser (round-trips).
  std::string to_string() const;

  /// The wire field list (wire/serialize.hpp).
  template <class Ar>
  friend void fields(Ar& ar, Pattern& p);

 private:
  PatternKind kind_ = PatternKind::kAny;
  Value literal_;
  std::string text_;  // regex source, or variable name
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
  std::uint32_t slot_ = 0;
  std::shared_ptr<const std::regex> compiled_;  // shared: patterns are copied a lot
  RegexFastPath fast_ = RegexFastPath::kNone;
  std::string fast_text_;  // the literal the fast path compares against
};

}  // namespace hyperfile
