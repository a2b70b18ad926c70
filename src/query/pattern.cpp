#include "query/pattern.hpp"

#include <algorithm>

namespace hyperfile {
namespace {

/// ECMAScript regex metacharacters: an expression containing none of these
/// matches exactly the strings its literal text occurs in.
bool is_regex_meta(char c) {
  switch (c) {
    case '\\': case '^': case '$': case '.': case '|':
    case '?': case '*': case '+': case '(': case ')':
    case '[': case ']': case '{': case '}':
      return true;
    default:
      return false;
  }
}

bool is_plain_literal(std::string_view s) {
  return std::none_of(s.begin(), s.end(), is_regex_meta);
}

/// Classify `expr` for the fast path. Anchors are only recognized at the
/// very ends; any other metacharacter (including an interior anchor) falls
/// back to the general engine.
RegexFastPath classify_fast_path(std::string_view expr, std::string* literal) {
  bool anchored_front = false;
  bool anchored_back = false;
  if (!expr.empty() && expr.front() == '^') {
    anchored_front = true;
    expr.remove_prefix(1);
  }
  if (!expr.empty() && expr.back() == '$') {
    anchored_back = true;
    expr.remove_suffix(1);
  }
  if (!is_plain_literal(expr)) return RegexFastPath::kNone;
  *literal = std::string(expr);
  if (anchored_front && anchored_back) return RegexFastPath::kExact;
  if (anchored_front) return RegexFastPath::kPrefix;
  if (anchored_back) return RegexFastPath::kSuffix;
  return RegexFastPath::kContains;
}

bool fast_match(RegexFastPath fast, std::string_view text,
                std::string_view s) {
  switch (fast) {
    case RegexFastPath::kContains:
      return s.find(text) != std::string_view::npos;
    case RegexFastPath::kPrefix:
      return s.size() >= text.size() && s.substr(0, text.size()) == text;
    case RegexFastPath::kSuffix:
      return s.size() >= text.size() &&
             s.substr(s.size() - text.size()) == text;
    case RegexFastPath::kExact:
      return s == text;
    case RegexFastPath::kNone:
      break;
  }
  return false;
}

}  // namespace

Pattern Pattern::literal(Value v) {
  Pattern p;
  p.kind_ = PatternKind::kLiteral;
  p.literal_ = std::move(v);
  return p;
}

Result<Pattern> Pattern::regex(std::string expr) {
  Pattern p;
  p.kind_ = PatternKind::kRegex;
  try {
    p.compiled_ = std::make_shared<const std::regex>(expr, std::regex::ECMAScript);
  } catch (const std::regex_error& e) {
    return make_error(Errc::kInvalidArgument,
                      "bad regex '" + expr + "': " + e.what());
  }
  // The compiled regex is kept even when the fast path applies:
  // matches_reference needs the generic engine for the same pattern object.
  p.fast_ = classify_fast_path(expr, &p.fast_text_);
  p.text_ = std::move(expr);
  return p;
}

Pattern Pattern::range(std::int64_t lo, std::int64_t hi) {
  Pattern p;
  p.kind_ = PatternKind::kRange;
  p.lo_ = lo;
  p.hi_ = hi;
  return p;
}

Pattern Pattern::bind(std::string var) {
  Pattern p;
  p.kind_ = PatternKind::kBind;
  p.text_ = std::move(var);
  return p;
}

Pattern Pattern::use(std::string var) {
  Pattern p;
  p.kind_ = PatternKind::kUse;
  p.text_ = std::move(var);
  return p;
}

Pattern Pattern::retrieve(std::uint32_t slot) {
  Pattern p;
  p.kind_ = PatternKind::kRetrieve;
  p.slot_ = slot;
  return p;
}

bool Pattern::matches_basic(const Value& v) const {
  switch (kind_) {
    case PatternKind::kAny:
    case PatternKind::kBind:
    case PatternKind::kRetrieve:
      return true;
    case PatternKind::kLiteral:
      return literal_ == v;
    case PatternKind::kRegex:
      if (!v.is_string()) return false;
      if (fast_ != RegexFastPath::kNone) {
        return fast_match(fast_, fast_text_, v.as_string());
      }
      return compiled_ != nullptr && std::regex_search(v.as_string(), *compiled_);
    case PatternKind::kRange:
      return v.is_number() && v.as_number() >= lo_ && v.as_number() <= hi_;
    case PatternKind::kUse:
      return false;  // needs binding table; resolved by the engine
  }
  return false;
}

bool Pattern::matches_basic(std::string_view s) const {
  switch (kind_) {
    case PatternKind::kAny:
    case PatternKind::kBind:
    case PatternKind::kRetrieve:
      return true;
    case PatternKind::kLiteral:
      return literal_.is_string() && literal_.as_string() == s;
    case PatternKind::kRegex:
      if (fast_ != RegexFastPath::kNone) return fast_match(fast_, fast_text_, s);
      return compiled_ != nullptr &&
             std::regex_search(s.begin(), s.end(), *compiled_);
    case PatternKind::kRange:
      return false;  // a string field is never a number
    case PatternKind::kUse:
      return false;  // needs binding table; resolved by the engine
  }
  return false;
}

bool Pattern::matches_reference(const Value& v) const {
  if (kind_ == PatternKind::kRegex) {
    return v.is_string() && compiled_ != nullptr &&
           std::regex_search(v.as_string(), *compiled_);
  }
  return matches_basic(v);
}

bool operator==(const Pattern& a, const Pattern& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case PatternKind::kAny:
      return true;
    case PatternKind::kLiteral:
      return a.literal_ == b.literal_;
    case PatternKind::kRegex:
      return a.text_ == b.text_;
    case PatternKind::kRange:
      return a.lo_ == b.lo_ && a.hi_ == b.hi_;
    case PatternKind::kBind:
    case PatternKind::kUse:
      return a.text_ == b.text_;
    case PatternKind::kRetrieve:
      return a.slot_ == b.slot_;
  }
  return false;
}

std::string Pattern::to_string() const {
  switch (kind_) {
    case PatternKind::kAny:
      return "?";
    case PatternKind::kLiteral:
      return literal_.to_string();
    case PatternKind::kRegex:
      return "/" + text_ + "/";
    case PatternKind::kRange:
      return "[" + std::to_string(lo_) + ".." + std::to_string(hi_) + "]";
    case PatternKind::kBind:
      return "?" + text_;
    case PatternKind::kUse:
      return "$" + text_;
    case PatternKind::kRetrieve:
      return "->#" + std::to_string(slot_);
  }
  return "?";
}

}  // namespace hyperfile
