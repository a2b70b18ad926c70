// Wire field lists of the model and query types (see wire/codec.hpp).
//
// Everything the distributed runtime ships — object ids, values, tuples,
// whole objects (only the baseline comparator and migration ship those),
// patterns, filters, queries — is encoded and decoded by these functions.
// Value, Object, Pattern and Query befriend their fields() so the list can
// name private members directly.
#pragma once

#include "model/object.hpp"
#include "query/query.hpp"
#include "wire/codec.hpp"

namespace hyperfile {

template <class Ar>
void fields(Ar& ar, ObjectId& id) {
  ar(id.birth_site, id.seq, id.presumed_site);
}

/// Tag = ValueKind = index into Value's representation.
template <class Ar>
void fields(Ar& ar, Value& v) {
  ar.variant(v.rep_, 0, "value kind");
}

template <class Ar>
void fields(Ar& ar, Tuple& t) {
  ar(t.type, t.key, t.data);
}

template <class Ar>
void fields(Ar& ar, Object& o) {
  ar(o.id_, o.tuples_);
}

template <class Ar>
void fields(Ar& ar, Pattern& p) {
  ar(p.kind_);
  switch (p.kind_) {
    case PatternKind::kAny:
      return;
    case PatternKind::kLiteral:
      return ar(p.literal_);
    case PatternKind::kRegex:
      ar(p.text_);
      if constexpr (Ar::kDecoding) {
        if (!ar.ok()) return;
        // Compiling also derives the matcher's fast path.
        auto compiled = Pattern::regex(std::move(p.text_));
        if (!compiled.ok()) return ar.fail(compiled.error().message);
        p = std::move(compiled).value();
      }
      return;
    case PatternKind::kRange:
      return ar(p.lo_, p.hi_);
    case PatternKind::kBind:
    case PatternKind::kUse:
      return ar(p.text_);
    case PatternKind::kRetrieve:
      return ar(p.slot_);
  }
  ar.fail("unknown pattern kind " +
          std::to_string(static_cast<unsigned>(p.kind_)));
}

template <class Ar>
void fields(Ar& ar, SelectFilter& f) {
  ar(f.type_pattern, f.key_pattern, f.data_pattern);
}

template <class Ar>
void fields(Ar& ar, DerefFilter& f) {
  ar(f.var, f.keep_source);
}

template <class Ar>
void fields(Ar& ar, IterateFilter& f) {
  ar(f.body_start, f.count);
}

/// Tags 1 (select), 2 (deref), 3 (iterate).
template <class Ar>
void fields(Ar& ar, Filter& f) {
  ar.variant(f, 1, "filter tag");
}

template <class Ar>
void fields(Ar& ar, Query& q) {
  ar(q.filters_, q.initial_ids_, q.initial_set_name_, q.result_set_name_,
     q.retrieve_slots_, q.count_only_);
  // A malformed query must not enter an engine via the network.
  if constexpr (Ar::kDecoding) {
    if (!ar.ok()) return;
    if (auto v = q.validate(); !v.ok()) ar.fail(v.error().message);
  }
}

}  // namespace hyperfile
