// Direct unit tests of the E function (paper Section 3.1 pseudocode) and
// the iteration-stack normalization — below the engine's Figure 3 loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "engine/efunction.hpp"
#include "query/builder.hpp"
#include "query/parser.hpp"

// Counts every global operator new in this binary, so tests can assert
// that a code path does not allocate.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The replacement operator new above is malloc-based, so free() matches it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hyperfile {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

Query closure_q() {
  return parse_query(
             R"(S [ (pointer, "Ref", ?X) | ^^X ]3 (keyword, "k", ?) -> T)")
      .value();
}

WorkItem item_at(std::uint32_t next, const Query& q) {
  WorkItem item = WorkItem::initial(ObjectId(0, 1));
  item.next = next;
  item.start = next;
  normalize_iter_stack(q, item);
  return item;
}

TEST(EFunction, SelectionPassIncrementsNext) {
  Query q = closure_q();
  Object obj(ObjectId(0, 1));
  obj.add(Tuple::pointer("Ref", ObjectId(0, 2)));
  WorkItem item = item_at(1, q);
  EOutcome out = apply_filter(q, item, &obj);
  EXPECT_TRUE(out.alive);
  EXPECT_EQ(item.next, 2u);
  EXPECT_TRUE(out.derefs.empty());  // selection never dereferences
  // The binding was recorded.
  ASSERT_NE(item.mvars.lookup("X"), nullptr);
  EXPECT_EQ(item.mvars.lookup("X")->size(), 1u);
}

TEST(EFunction, SelectionFailReturnsNullWithoutAdvancing) {
  Query q = closure_q();
  Object obj(ObjectId(0, 1));
  obj.add(Tuple::keyword("unrelated"));
  WorkItem item = item_at(1, q);
  EOutcome out = apply_filter(q, item, &obj);
  EXPECT_FALSE(out.alive);
  EXPECT_EQ(item.next, 1u);  // E returns ({}, null); next untouched
}

TEST(EFunction, SelectionBindsAllMatchingTuples) {
  Query q = closure_q();
  Object obj(ObjectId(0, 1));
  obj.add(Tuple::pointer("Ref", ObjectId(0, 2)));
  obj.add(Tuple::pointer("Ref", ObjectId(0, 3)));
  obj.add(Tuple::pointer("Other", ObjectId(0, 4)));
  WorkItem item = item_at(1, q);
  apply_filter(q, item, &obj);
  ASSERT_NE(item.mvars.lookup("X"), nullptr);
  EXPECT_EQ(item.mvars.lookup("X")->size(), 2u);  // Other not bound
}

TEST(EFunction, BindingDuplicatesCollapse) {
  Query q = closure_q();
  Object obj(ObjectId(0, 1));
  obj.add(Tuple::pointer("Ref", ObjectId(0, 2)));
  obj.add(Tuple::pointer("Ref", ObjectId(0, 2)));  // same target twice
  WorkItem item = item_at(1, q);
  apply_filter(q, item, &obj);
  EXPECT_EQ(item.mvars.lookup("X")->size(), 1u);  // set semantics
}

TEST(EFunction, DerefInitializesChildrenPerPaper) {
  // "P.id = x, P.start = O.next+1, P.next = O.next+1,
  //  P.iter# = O.iter#+1, P.mvars = {}"
  Query q = closure_q();
  Object obj(ObjectId(0, 1));
  obj.add(Tuple::pointer("Ref", ObjectId(0, 2)));
  WorkItem item = item_at(1, q);
  apply_filter(q, item, &obj);  // F1: bind
  ASSERT_EQ(item.next, 2u);
  EOutcome out = apply_filter(q, item, &obj);  // F2: ^^X
  ASSERT_EQ(out.derefs.size(), 1u);
  const WorkItem& child = out.derefs[0];
  EXPECT_EQ(child.id, ObjectId(0, 2));
  EXPECT_EQ(child.start, 3u);
  EXPECT_EQ(child.next, 3u);
  EXPECT_EQ(child.iter_top(), item.iter_top() + 1);
  EXPECT_TRUE(child.mvars.empty());
  // ^^ keeps the source alive and advances it.
  EXPECT_TRUE(out.alive);
  EXPECT_EQ(item.next, 3u);
}

TEST(EFunction, DerefSkipsNonPointerBindings) {
  // "if x is an object id" — a Ref tuple with string data binds a string,
  // which the dereference must skip.
  Query q = closure_q();
  Object obj(ObjectId(0, 1));
  obj.add(Tuple("pointer", "Ref", Value::string("unresolved")));
  obj.add(Tuple::pointer("Ref", ObjectId(0, 2)));
  WorkItem item = item_at(1, q);
  apply_filter(q, item, &obj);
  EXPECT_EQ(item.mvars.lookup("X")->size(), 2u);  // both values bound
  EOutcome out = apply_filter(q, item, &obj);
  EXPECT_EQ(out.derefs.size(), 1u);  // only the object id dereferenced
}

TEST(EFunction, DerefDropSourceKillsObject) {
  Query q = parse_query(R"(S (pointer, "Ref", ?X) ^X -> T)").value();
  Object obj(ObjectId(0, 1));
  obj.add(Tuple::pointer("Ref", ObjectId(0, 2)));
  WorkItem item = item_at(1, q);
  apply_filter(q, item, &obj);
  EOutcome out = apply_filter(q, item, &obj);
  EXPECT_EQ(out.derefs.size(), 1u);
  EXPECT_FALSE(out.alive);  // ↑ returns (set, null)
}

TEST(EFunction, DerefUnboundVariableYieldsNothing) {
  Query q = closure_q();
  Object obj(ObjectId(0, 1));  // no Ref tuples, but force item to F2
  WorkItem item = item_at(2, q);
  EOutcome out = apply_filter(q, item, &obj);
  EXPECT_TRUE(out.derefs.empty());
  EXPECT_TRUE(out.alive);  // ^^ keeps the source even with no bindings
}

TEST(EFunction, IterateFreshEntrantLoopsBack) {
  Query q = closure_q();  // iterator at 3, body_start 1, k 3
  WorkItem item = item_at(3, q);
  item.iter_stack = {1, 2};  // chain depth 2 < k
  EOutcome out = apply_filter(q, item, nullptr);  // no object data needed
  EXPECT_TRUE(out.alive);
  EXPECT_EQ(item.next, 1u);
  EXPECT_EQ(item.start, 1u);  // "so that O will pass next time"
}

TEST(EFunction, IterateDepthBoundExits) {
  Query q = closure_q();
  WorkItem item = item_at(3, q);
  item.iter_stack = {1, 3};  // chain depth 3 >= k
  EOutcome out = apply_filter(q, item, nullptr);
  EXPECT_TRUE(out.alive);
  EXPECT_EQ(item.next, 4u);
  EXPECT_EQ(item.start, 3u);  // start unchanged on exit
}

TEST(EFunction, IterateAlreadyThroughBodyExits) {
  Query q = closure_q();
  WorkItem item = item_at(3, q);
  item.start = 1;  // came through the body
  item.iter_stack = {1, 2};
  EOutcome out = apply_filter(q, item, nullptr);
  EXPECT_TRUE(out.alive);
  EXPECT_EQ(item.next, 4u);
}

TEST(EFunction, RetrieveInKeyPosition) {
  Query q;
  q.set_initial_set_name("S");
  const std::uint32_t slot = q.add_retrieve_slot("word");
  q.add_filter(SelectFilter{Pattern::literal("keyword"), Pattern::retrieve(slot),
                            Pattern::any()});
  ASSERT_TRUE(q.validate().ok());

  Object obj(ObjectId(0, 1));
  obj.add(Tuple::keyword("database"));
  obj.add(Tuple::keyword("systems"));
  WorkItem item = item_at(1, q);
  EOutcome out = apply_filter(q, item, &obj);
  ASSERT_EQ(out.retrieved.size(), 2u);
  EXPECT_EQ(out.retrieved[0].value, Value::string("database"));
  EXPECT_EQ(out.retrieved[1].value, Value::string("systems"));
  EXPECT_EQ(out.retrieved[0].source, obj.id());
}

TEST(EFunction, BindAndUseInSameFilterCannotBootstrap) {
  // Bindings apply only once a tuple matches as a whole, so a filter whose
  // $A use has no *prior* bindings can never match its first tuple: the
  // bind in the same tuple is still pending when the use is evaluated.
  Query q;
  q.set_initial_set_name("S");
  q.add_filter(SelectFilter{Pattern::literal("string"), Pattern::bind("A"),
                            Pattern::use("A")});
  ASSERT_TRUE(q.validate().ok());
  Object obj(ObjectId(0, 1));
  obj.add(Tuple::string("x", "x"));
  WorkItem item = item_at(1, q);
  EOutcome out = apply_filter(q, item, &obj);
  EXPECT_FALSE(out.alive);
}

TEST(EFunction, UseSeesBindingsFromEarlierTupleInSameFilter) {
  // The pseudocode mutates O.mvars tuple-by-tuple: once a tuple of this
  // filter matches (against bindings from an earlier filter), its ?A bind
  // becomes visible to the evaluation of the *next* tuple in the same pass.
  Query q;
  q.set_initial_set_name("S");
  q.add_filter(SelectFilter{Pattern::literal("string"), Pattern::literal("Author"),
                            Pattern::bind("A")});
  q.add_filter(SelectFilter{Pattern::literal("string"), Pattern::bind("A"),
                            Pattern::use("A")});
  ASSERT_TRUE(q.validate().ok());

  Object obj(ObjectId(0, 1));
  obj.add(Tuple::string("Author", "bob"));       // F1: A = {bob}
  obj.add(Tuple::string("alice", "bob"));        // F2 tuple 1: matches via
                                                 // data=bob; binds A += alice
  obj.add(Tuple::string("x", "alice"));          // F2 tuple 2: data=alice
                                                 // matches only thanks to
                                                 // tuple 1's fresh binding
  WorkItem item = item_at(1, q);
  ASSERT_TRUE(apply_filter(q, item, &obj).alive);   // F1
  EOutcome out = apply_filter(q, item, &obj);       // F2
  EXPECT_TRUE(out.alive);
  // F2 matched all three tuples (the Author tuple itself also has data bob),
  // binding their keys: A = {bob, Author, alice, x}.
  EXPECT_EQ(item.mvars.lookup("A")->size(), 4u);
}

TEST(EFunction, WarmSelectionDoesNotAllocate) {
  // The drains' hot loop: selections over a matching and a failing object,
  // through one long-lived EOutcome. Covers an exact regex (fast path), a
  // literal and `?` in every field position.
  Query q = parse_query(
                R"(S (?, "Text", /^needle42$/) (string, "Name", "doc") (keyword, "k", ?) -> T)")
                .value();
  ASSERT_EQ(std::get<SelectFilter>(q.filter(1)).data_pattern.fast_path(),
            RegexFastPath::kExact);
  Object hit(ObjectId(0, 1));
  hit.add(Tuple::string("Text", "haystack"));
  hit.add(Tuple::string("Text", "needle42"));
  hit.add(Tuple::string("Name", "doc"));
  hit.add(Tuple::keyword("k"));
  Object miss(ObjectId(0, 2));
  miss.add(Tuple::string("Text", "needle42 and more"));
  miss.add(Tuple::string("Name", "other"));
  miss.add(Tuple::keyword("j"));

  WorkItem item = item_at(1, q);
  EOutcome out;
  std::size_t passed = 0;
  auto pass_all = [&] {
    for (const Object* obj : {&hit, &miss}) {
      for (std::uint32_t f = 1; f <= q.size(); ++f) {
        item.start = item.next = f;
        apply_filter(q, item, obj, out);
        passed += out.alive ? 1 : 0;
      }
    }
  };
  pass_all();  // warm
  passed = 0;
  const std::size_t before = allocations();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 200; ++i) pass_all();
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(passed, 3u * 200u * 3u);  // `hit` passes all three, `miss` none
}

TEST(NormalizeIterStack, PushesAndPopsToNestingDepth) {
  Query q = QueryBuilder::from_set("S")
                .begin_iterate(2)
                .begin_iterate(2)
                .follow("A")
                .end_iterate()
                .follow("B")
                .end_iterate()
                .select_key("keyword", "k")
                .build();
  // Depths: f1..f3 -> 2, f4..f6 -> 1, f7 -> 0.
  WorkItem item = WorkItem::initial(ObjectId(0, 1));
  item.next = 1;
  normalize_iter_stack(q, item);
  EXPECT_EQ(item.iter_stack.size(), 3u);
  item.next = 4;
  normalize_iter_stack(q, item);
  EXPECT_EQ(item.iter_stack.size(), 2u);
  item.next = 7;
  normalize_iter_stack(q, item);
  EXPECT_EQ(item.iter_stack.size(), 1u);
  item.next = 8;  // past the end
  normalize_iter_stack(q, item);
  EXPECT_EQ(item.iter_stack.size(), 1u);
  // Re-entering pushes fresh counters (value 1).
  item.next = 1;
  normalize_iter_stack(q, item);
  ASSERT_EQ(item.iter_stack.size(), 3u);
  EXPECT_EQ(item.iter_stack[1], 1u);
  EXPECT_EQ(item.iter_stack[2], 1u);
}

TEST(MatchBindings, LookupAndContains) {
  MatchBindings b;
  EXPECT_EQ(b.lookup("X"), nullptr);
  b.bind("X", Value::number(1));
  b.bind("X", Value::number(2));
  b.bind("X", Value::number(1));  // dup
  ASSERT_NE(b.lookup("X"), nullptr);
  EXPECT_EQ(b.lookup("X")->size(), 2u);
  EXPECT_TRUE(b.contains("X", Value::number(2)));
  EXPECT_FALSE(b.contains("X", Value::number(3)));
  EXPECT_FALSE(b.contains("Y", Value::number(1)));
  b.clear();
  EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace hyperfile
