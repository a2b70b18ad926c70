// HyperFile objects: sets of tuples (paper Section 2).
//
// An object is deliberately schema-free: it is just a bag of self-describing
// tuples. An application may use several objects for what the end user sees
// as one "document" (e.g. one object per paragraph linked by pointers) — the
// server neither knows nor cares.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "model/tuple.hpp"

namespace hyperfile {

class Object {
 public:
  Object() = default;
  explicit Object(ObjectId id) : id_(id) {}
  Object(ObjectId id, std::vector<Tuple> tuples)
      : id_(id), tuples_(std::move(tuples)) {}

  const ObjectId& id() const { return id_; }
  void set_id(ObjectId id) { id_ = id; }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  bool empty() const { return tuples_.empty(); }
  std::size_t size() const { return tuples_.size(); }

  Object& add(Tuple t) {
    tuples_.push_back(std::move(t));
    return *this;
  }

  /// Remove all tuples matching (type, key). Returns number removed.
  std::size_t remove(const std::string& type, const std::string& key);

  /// First tuple with the given type and key, or nullptr.
  const Tuple* find(const std::string& type, const std::string& key) const;

  /// All tuples with the given type and key.
  std::vector<const Tuple*> find_all(const std::string& type,
                                     const std::string& key) const;

  /// All outgoing pointers, optionally restricted to a key (link category).
  /// Passing an empty key returns pointers of every category — the paper's
  /// wildcard "follow all pointers" case.
  std::vector<ObjectId> pointers(const std::string& key = {}) const;

  /// Total approximate size in bytes, including blob payloads. This is what
  /// a file-interface server would have to ship (baseline comparator).
  std::size_t byte_size() const;

  friend bool operator==(const Object& a, const Object& b) {
    return a.id_ == b.id_ && a.tuples_ == b.tuples_;
  }
  friend bool operator!=(const Object& a, const Object& b) { return !(a == b); }

  std::string to_string() const;

  /// The wire field list (wire/serialize.hpp).
  template <class Ar>
  friend void fields(Ar& ar, Object& o);

 private:
  ObjectId id_;
  std::vector<Tuple> tuples_;
};

}  // namespace hyperfile
