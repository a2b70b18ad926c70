// Shared-memory parallel engine (paper Section 6): result equivalence with
// the serial engine across worker counts, graph shapes, and seeds.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "engine/parallel_engine.hpp"
#include "test_helpers.hpp"

namespace hyperfile {
namespace {

using testing::make_chain;
using testing::parse_or_die;
using testing::sorted;

TEST(ParallelEngine, MatchesSerialOnChain) {
  SiteStore store(0);
  make_chain(store, 50, {0, 5, 10, 15, 20, 49});
  Query q = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "Distributed", ?) -> T)");

  LocalEngine serial(store);
  auto rs = serial.run_readonly(q);
  ASSERT_TRUE(rs.ok());

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    ParallelEngine par(store, workers);
    auto rp = par.run(q);
    ASSERT_TRUE(rp.ok()) << "workers=" << workers;
    EXPECT_EQ(sorted(rp.value().ids), sorted(rs.value().ids))
        << "workers=" << workers;
  }
}

TEST(ParallelEngine, EmptyInitialSet) {
  SiteStore store(0);
  store.create_set("S", std::span<const ObjectId>{});
  ParallelEngine par(store, 4);
  auto r = par.run(parse_or_die(R"(S (?, ?, ?) -> T)"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().ids.empty());
}

TEST(ParallelEngine, RetrievalMatchesSerial) {
  SiteStore store(0);
  auto ids = make_chain(store, 20, {0, 4, 8, 12, 16});
  Query q = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "Distributed", ?) (string, "Name", ->n) -> T)");
  LocalEngine serial(store);
  auto rs = serial.run_readonly(q);
  ParallelEngine par(store, 4);
  auto rp = par.run(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  auto names_s = rs.value().values_for("n");
  auto names_p = rp.value().values_for("n");
  std::sort(names_s.begin(), names_s.end());
  std::sort(names_p.begin(), names_p.end());
  EXPECT_EQ(names_s, names_p);
}

class ParallelRandomGraph : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelRandomGraph, MatchesSerial) {
  // Random dense-ish graphs with cycles: the benign duplicate-processing
  // race must never change the result set.
  Rng rng(GetParam());
  SiteStore store(0);
  constexpr std::size_t kN = 60;
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < kN; ++i) ids.push_back(store.allocate());
  for (std::size_t i = 0; i < kN; ++i) {
    Object obj(ids[i]);
    const int out_degree = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < out_degree; ++e) {
      obj.add(Tuple::pointer("Edge", ids[rng.next_below(kN)]));
    }
    if (rng.next_bool(0.3)) obj.add(Tuple::keyword("hit"));
    store.put(std::move(obj));
  }
  store.create_set("S", std::span<const ObjectId>(ids.data(), 1));

  Query q = parse_or_die(
      R"(S [ (pointer, "Edge", ?X) | ^^X ]* (keyword, "hit", ?) -> T)");
  LocalEngine serial(store);
  auto rs = serial.run_readonly(q);
  ASSERT_TRUE(rs.ok());
  ParallelEngine par(store, 6);
  auto rp = par.run(q);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(sorted(rp.value().ids), sorted(rs.value().ids));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomGraph,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(ParallelEngine, DuplicateSeedsPoppedOnce) {
  // Regression: duplicate ids in the initial set used to become duplicate
  // work items; the pop-time mark guard cannot suppress copies that two
  // workers claim concurrently. Seeds must be deduplicated before the pool
  // starts. workers=1 makes the pop count deterministic.
  SiteStore store(0);
  auto ids = make_chain(store, 1, {0});
  Query q = parse_or_die(R"(S (keyword, "Distributed", ?) -> T)");
  q.set_initial_ids({ids[0], ids[0], ids[0]});
  q.set_initial_set_name("");  // explicit ids only

  ParallelEngine par(store, 1);
  auto r = par.run(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[0]});
  EXPECT_EQ(r.value().stats.pops, 1u);
  EXPECT_EQ(r.value().stats.processed, 1u);
}

TEST(ParallelEngine, SeedsDedupedAcrossExplicitIdsAndNamedSet) {
  // The same object arriving both as an explicit id and as a named-set
  // member is still one seed.
  SiteStore store(0);
  auto ids = make_chain(store, 2, {0, 1});  // creates set "S" = {ids[0]}
  Query q = parse_or_die(R"(S (keyword, "Distributed", ?) -> T)");
  q.set_initial_ids({ids[0]});  // duplicates the set member

  ParallelEngine par(store, 1);
  auto r = par.run(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[0]});
  EXPECT_EQ(r.value().stats.pops, 1u);
}

TEST(ParallelEngine, BoundedIteratorMatchesSerialBreadthFirst) {
  // Under a bounded iterator an arrival's iteration count decides whether
  // it loops back or falls through, and the marks let only the first
  // arrival of an object through. `y` is reachable at depth 1 from `a`
  // (loops back, then dies: no "Ref") and at depth 2 via b -> c (falls
  // through, has the keyword). The serial FIFO drain meets it at depth 1
  // first, so `y` is no result; a worker racing down b -> c while `y` still
  // waits behind `a`'s 400 other children must not make it one.
  SiteStore store(0);
  const ObjectId a = store.allocate(), b = store.allocate(),
                 c = store.allocate(), y = store.allocate();
  Object oa(a);
  oa.add(Tuple::keyword("alpha"));
  for (int i = 0; i < 400; ++i) {
    oa.add(Tuple::pointer("Ref", store.put(Object(store.allocate()))));
  }
  oa.add(Tuple::pointer("Ref", y));
  store.put(std::move(oa));
  store.put(Object(b, {Tuple::pointer("Ref", c)}));
  store.put(Object(c, {Tuple::pointer("Ref", y)}));
  store.put(Object(y, {Tuple::keyword("alpha")}));
  const ObjectId seeds[] = {a, b};
  store.create_set("S", seeds);
  Query q = parse_or_die(
      R"(S [ (pointer, "Ref", ?X) | ^^X ]3 (keyword, "alpha", ?) -> T)");

  auto rs = LocalEngine(store).run_readonly(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().ids, std::vector<ObjectId>{a});
  ParallelEngine par(store, 4);
  for (int run = 0; run < 10; ++run) {
    auto rp = par.run(q);
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(rp.value().ids, std::vector<ObjectId>{a}) << "run " << run;
  }
}

TEST(ParallelEngine, InvalidQueryRejected) {
  SiteStore store(0);
  ParallelEngine par(store, 2);
  Query q;  // no initial set
  EXPECT_FALSE(par.run(q).ok());
}

TEST(ParallelEngine, DefaultWorkerCountPositive) {
  SiteStore store(0);
  ParallelEngine par(store);
  EXPECT_GE(par.workers(), 1u);
}

}  // namespace
}  // namespace hyperfile
