// Low-level binary encoding: LEB128 varints, zigzag signed ints,
// length-prefixed byte strings. Hand-rolled (no serialization library),
// matching the paper's spirit of very small messages: the Section 3 example
// query encodes to a few dozen bytes (the paper reports ~40 bytes).
//
// Every wire type lists its fields exactly once, in wire order:
//
//   template <class Ar> void fields(Ar& ar, T& x) { ar(x.a, x.b, x.c); }
//
// Encoder and Decoder both instantiate that one function, so the two
// directions cannot drift apart. Each field type has exactly one encoding:
//
//   std::uint64_t             varint
//   std::uint32_t (SiteId)    varint, range-checked on decode
//   std::int64_t              zigzag varint
//   bool                      one byte, 0 or 1
//   std::uint8_t, enums       one byte (kind-switched types check the kind)
//   std::string, Bytes        varint length, then the raw bytes
//   std::vector<T>            varint count, then the elements
//   std::variant (variant())  one tag byte, then the active alternative
//   struct T                  fields(ar, x), found by argument lookup
//
// Wire bytes are untrusted input (they may come from a TCP peer). Decoding
// is bounds-checked and canonical: counts and lengths never exceed the
// remaining input, varints are minimal and fit their field, and every
// accepted frame re-encodes to itself. The first error sticks — later reads
// yield zeros and consume nothing — and is what read() and decode() report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.hpp"

namespace hyperfile::wire {

using Bytes = std::vector<std::uint8_t>;

class Encoder {
 public:
  static constexpr bool kDecoding = false;

  const Bytes& bytes() const { return out_; }
  Bytes take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

  /// Reset for reuse, keeping the buffer's capacity. Send paths whose bytes
  /// are consumed before returning keep one scratch encoder per thread so
  /// steady-state encoding never allocates (DESIGN.md §14).
  void clear() { out_.clear(); }
  void reserve(std::size_t n) { out_.reserve(n); }

  void u8(std::uint8_t v) { out_.push_back(v); }

  /// Unsigned LEB128.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-encoded signed integer.
  void svarint(std::int64_t v) {
    varint((static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63));
  }

  void string(const std::string& s) {
    varint(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }

  void bytes(std::span<const std::uint8_t> b) {
    varint(b.size());
    out_.insert(out_.end(), b.begin(), b.end());
  }

  // --- field archive (see the table at the top of this file) ---
  void operator()(const std::uint64_t& v) { varint(v); }
  void operator()(const std::uint32_t& v) { varint(v); }
  void operator()(const std::int64_t& v) { svarint(v); }
  void operator()(const std::uint8_t& v) { u8(v); }
  void operator()(const bool& v) { u8(v ? 1 : 0); }
  void operator()(const std::string& s) { string(s); }
  void operator()(const Bytes& b) { bytes(b); }

  template <class E>
    requires std::is_enum_v<E>
  void operator()(const E& e) {
    u8(static_cast<std::uint8_t>(e));
  }

  template <class T>
  void operator()(const std::vector<T>& v) {
    varint(v.size());
    for (const T& x : v) (*this)(x);
  }

  template <class T>
  void operator()(const T& x) {
    // fields() takes a mutable reference so one function serves both
    // directions; the encoder only ever reads through it.
    if constexpr (!std::is_empty_v<T>) fields(*this, const_cast<T&>(x));
  }

  template <class A, class B, class... Rest>
  void operator()(const A& a, const B& b, const Rest&... rest) {
    (*this)(a);
    (*this)(b);
    ((*this)(rest), ...);
  }

  /// Tag byte `first_tag + index`, then the active alternative.
  template <class... Ts>
  void variant(const std::variant<Ts...>& v, std::uint8_t first_tag,
               const char* /*what*/) {
    u8(static_cast<std::uint8_t>(first_tag + v.index()));
    std::visit([this](const auto& alt) { (*this)(alt); }, v);
  }

  /// `body`'s bytes preceded by their varint length. The body is written in
  /// place and its length appended and rotated to the front, so a warm
  /// buffer is never reallocated.
  template <class F>
  void length_prefixed(F&& body) {
    const auto at = static_cast<std::ptrdiff_t>(out_.size());
    body();
    const auto end = static_cast<std::ptrdiff_t>(out_.size());
    varint(static_cast<std::uint64_t>(end - at));
    std::rotate(out_.begin() + at, out_.begin() + end, out_.end());
  }

  /// Decode-side validation hook; an encoder only sees well-formed values.
  void fail(const std::string& /*what*/) {}

 private:
  Bytes out_;
};

class Decoder {
 public:
  static constexpr bool kDecoding = true;

  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  bool ok() const { return !failed_; }
  /// Record a decode error and stop: the first error sticks, and every
  /// later read fails without consuming input.
  void fail(std::string what) {
    if (!failed_) {
      failed_ = true;
      error_ = Error{Errc::kDecode, std::move(what)};
    }
    pos_ = data_.size();
  }

  /// Decode one T from the current position; on failure, the first error
  /// this decoder met.
  template <class T>
  Result<T> read() {
    T x{};
    (*this)(x);
    if (failed_) return error_;
    return x;
  }

  // --- field archive (see the table at the top of this file) ---
  void operator()(std::uint64_t& v) { v = varint(); }
  void operator()(std::uint32_t& v) { v = narrow<std::uint32_t>(varint()); }
  void operator()(std::int64_t& v) {
    const std::uint64_t u = varint();
    v = static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }
  void operator()(std::uint8_t& v) { v = u8(); }
  void operator()(bool& v) {
    const std::uint8_t b = u8();
    if (b > 1) fail("bool byte " + std::to_string(b) + " is not 0 or 1");
    v = b == 1;
  }
  void operator()(std::string& s) {
    const auto b = view("string");
    s.assign(reinterpret_cast<const char*>(b.data()), b.size());
  }
  void operator()(Bytes& b) {
    const auto v = view("bytes");
    b.assign(v.begin(), v.end());
  }

  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& e) {
    e = static_cast<E>(u8());
  }

  template <class T>
  void operator()(std::vector<T>& v) {
    const std::uint64_t n = count();
    v.clear();
    // Every element costs at least one input byte, so n <= remaining(); the
    // cap keeps a lying count from reserving much more than its frame.
    v.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(n, kMaxReserveBytes / sizeof(T) + 1)));
    for (std::uint64_t i = 0; i < n && !failed_; ++i) (*this)(v.emplace_back());
  }

  template <class T>
  void operator()(T& x) {
    if constexpr (!std::is_empty_v<T>) fields(*this, x);
  }

  template <class A, class B, class... Rest>
  void operator()(A& a, B& b, Rest&... rest) {
    (*this)(a);
    (*this)(b);
    ((*this)(rest), ...);
  }

  /// Reads the tag byte, rejects tags outside [first_tag, first_tag + n),
  /// and decodes the selected alternative.
  template <class... Ts>
  void variant(std::variant<Ts...>& v, std::uint8_t first_tag,
               const char* what) {
    const std::uint8_t tag = u8();
    if (failed_) return;
    const std::size_t index = static_cast<std::size_t>(tag - first_tag);
    if (tag < first_tag || index >= sizeof...(Ts)) {
      return fail(std::string("unknown ") + what + " " + std::to_string(tag));
    }
    emplace_alternative(v, index, std::index_sequence_for<Ts...>{});
    std::visit([this](auto& alt) { (*this)(alt); }, v);
  }

  /// Reads a varint length, then runs `body` over exactly that many bytes:
  /// reading past them or leaving any unread is an error.
  template <class F>
  void length_prefixed(F&& body) {
    const auto section = view("length-prefixed section");
    if (failed_) return;
    const auto outer = data_;
    const std::size_t resume = pos_;
    data_ = section;
    pos_ = 0;
    body();
    if (!failed_ && !done()) fail("trailing bytes in length-prefixed section");
    data_ = outer;
    pos_ = failed_ ? outer.size() : resume;
  }

 private:
  static constexpr std::size_t kMaxReserveBytes = 64 * 1024;

  std::uint8_t u8() {
    if (pos_ >= data_.size()) {
      underflow("u8");
      return 0;
    }
    return data_[pos_++];
  }

  /// Unsigned LEB128, minimal form only: at most 64 bits, no redundant
  /// trailing zero groups (so re-encoding reproduces the input).
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (pos_ >= data_.size()) {
        underflow("varint");
        return 0;
      }
      const std::uint8_t byte = data_[pos_++];
      if (shift == 63 && byte > 1) {
        fail("varint too long");
        return 0;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        if (byte == 0 && shift > 0) {
          fail("non-minimal varint");
          return 0;
        }
        return v;
      }
    }
  }

  template <class T>
  T narrow(std::uint64_t v) {
    if (v > std::numeric_limits<T>::max()) {
      fail("varint " + std::to_string(v) + " exceeds its field's range");
      return 0;
    }
    return static_cast<T>(v);
  }

  /// A list count; each element takes at least one byte of what remains.
  std::uint64_t count() {
    const std::uint64_t n = varint();
    if (n > remaining()) fail("list count exceeds input");
    return failed_ ? 0 : n;
  }

  /// A varint length and that many raw bytes, viewed in place.
  std::span<const std::uint8_t> view(const char* what) {
    const std::uint64_t len = varint();
    if (len > remaining()) underflow(what);
    if (failed_) return {};
    const auto out = data_.subspan(pos_, static_cast<std::size_t>(len));
    pos_ += out.size();
    return out;
  }

  void underflow(const char* what) {
    fail(std::string("truncated input reading ") + what);
  }

  template <class V, std::size_t... I>
  static void emplace_alternative(V& v, std::size_t index,
                                  std::index_sequence<I...>) {
    ((index == I ? (v.template emplace<I>(), 0) : 0), ...);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  Error error_{Errc::kDecode, {}};
};

/// One-shot forms: the whole of `data` must decode as one T.
template <class T>
Bytes encode(const T& x) {
  Encoder e;
  e(x);
  return e.take();
}

template <class T>
Result<T> decode(std::span<const std::uint8_t> data) {
  Decoder d(data);
  auto x = d.read<T>();
  if (x.ok() && !d.done()) {
    return make_error(Errc::kDecode, "trailing bytes after message");
  }
  return x;
}

}  // namespace hyperfile::wire
