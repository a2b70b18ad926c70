// Query: S_i F_1 F_2 ... F_n -> S_o  (paper Section 3).
//
// The initial set S_i is either an explicit list of object ids or the name
// of a stored set (a HyperFile set is itself an object whose pointer tuples
// enumerate the members — see store/site_store.hpp). The result S_o may be
// bound to a name so later queries can start from it.
//
// Queries are immutable once validated; the engine, the wire format, and the
// simulator all consume the same Query value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "query/filter.hpp"

namespace hyperfile {

class Query {
 public:
  Query() = default;

  // --- construction (used by QueryBuilder / Parser / wire decoding) ---
  void set_initial_ids(std::vector<ObjectId> ids) { initial_ids_ = std::move(ids); }
  void set_initial_set_name(std::string name) { initial_set_name_ = std::move(name); }
  void set_result_set_name(std::string name) { result_set_name_ = std::move(name); }
  void add_filter(Filter f) { filters_.push_back(std::move(f)); }
  void set_filters(std::vector<Filter> fs) { filters_ = std::move(fs); }
  std::uint32_t add_retrieve_slot(std::string name) {
    retrieve_slots_.push_back(std::move(name));
    return static_cast<std::uint32_t>(retrieve_slots_.size() - 1);
  }
  void set_retrieve_slots(std::vector<std::string> names) {
    retrieve_slots_ = std::move(names);
  }
  /// Distributed-set optimisation (paper Section 5): sites keep their result
  /// portions locally under the result set name and report only counts.
  void set_count_only(bool v) { count_only_ = v; }

  // --- accessors ---
  /// Number of filters n. Filters are addressed 1-based to match the paper.
  std::uint32_t size() const { return static_cast<std::uint32_t>(filters_.size()); }
  const Filter& filter(std::uint32_t index_1based) const {
    return filters_[index_1based - 1];
  }
  const std::vector<Filter>& filters() const { return filters_; }

  const std::vector<ObjectId>& initial_ids() const { return initial_ids_; }
  const std::string& initial_set_name() const { return initial_set_name_; }
  const std::string& result_set_name() const { return result_set_name_; }
  const std::vector<std::string>& retrieve_slots() const { return retrieve_slots_; }
  bool count_only() const { return count_only_; }

  /// Static nesting depth of a filter position (0 = outside all iterators).
  /// An iterator filter I_j at index i counts as inside its own loop [j, i],
  /// since its termination test consults that loop's chain counter.
  /// Valid indexes are 1..n; index n+1 ("past the end") has depth 0.
  std::uint32_t iterator_depth(std::uint32_t index_1based) const;

  /// Structural and semantic validation:
  ///  * every IterateFilter body_start j satisfies 1 <= j <= own index;
  ///  * iterator intervals are properly nested (no partial overlap);
  ///  * every Deref/Use variable has a Bind at an index not after it;
  ///  * retrieve slots referenced by patterns exist.
  Result<void> validate() const;

  friend bool operator==(const Query& a, const Query& b) {
    return a.filters_ == b.filters_ && a.initial_ids_ == b.initial_ids_ &&
           a.initial_set_name_ == b.initial_set_name_ &&
           a.result_set_name_ == b.result_set_name_ &&
           a.retrieve_slots_ == b.retrieve_slots_ &&
           a.count_only_ == b.count_only_;
  }

  /// Textual rendering in the parser's syntax; parse(to_string(q)) == q for
  /// queries built from parseable patterns.
  std::string to_string() const;

  /// The wire field list (wire/serialize.hpp).
  template <class Ar>
  friend void fields(Ar& ar, Query& q);

 private:
  std::vector<Filter> filters_;
  std::vector<ObjectId> initial_ids_;
  std::string initial_set_name_;
  std::string result_set_name_;
  std::vector<std::string> retrieve_slots_;
  bool count_only_ = false;
};

}  // namespace hyperfile
