#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "common/rng.hpp"
#include "query/builder.hpp"
#include "query/parser.hpp"
#include "store/wal.hpp"
#include "wire/message.hpp"
#include "wire/serialize.hpp"

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

namespace hyperfile::wire {
namespace {

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(Codec, VarintRoundTrip) {
  Encoder e;
  const std::uint64_t values[] = {0,       1,        127,        128,
                                  16384,   1u << 20, 1ull << 40, UINT64_MAX};
  for (auto v : values) e.varint(v);
  Decoder d(e.bytes());
  for (auto v : values) {
    auto got = d.read<std::uint64_t>();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
  }
  EXPECT_TRUE(d.done());
}

TEST(Codec, SignedVarintRoundTrip) {
  Encoder e;
  const std::int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (auto v : values) e.svarint(v);
  Decoder d(e.bytes());
  for (auto v : values) {
    auto got = d.read<std::int64_t>();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
  }
}

TEST(Codec, StringAndBytes) {
  Encoder e;
  e.string("hello");
  e.string("");
  e.bytes(std::vector<std::uint8_t>{1, 2, 3});
  Decoder d(e.bytes());
  EXPECT_EQ(d.read<std::string>().value(), "hello");
  EXPECT_EQ(d.read<std::string>().value(), "");
  EXPECT_EQ(d.read<Bytes>().value().size(), 3u);
  EXPECT_TRUE(d.done());
}

TEST(Codec, TruncatedInputFailsCleanly) {
  Encoder e;
  e.string("hello world");
  auto bytes = e.take();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder d(std::span(bytes.data(), cut));
    EXPECT_FALSE(d.read<std::string>().ok()) << "cut=" << cut;
  }
}

TEST(Codec, OverlongVarintRejected) {
  // 11 continuation bytes exceed a 64-bit varint.
  Bytes bad(11, 0x80);
  Decoder d(bad);
  EXPECT_FALSE(d.read<std::uint64_t>().ok());
}

TEST(Serialize, ValueRoundTripAllKinds) {
  const Value values[] = {
      Value(),
      Value::string(std::string("embedded\0nul", 12)),
      Value::number(-1234567),
      Value::pointer(ObjectId(3, 99, 7)),
      Value::blob({0, 255, 1, 254}),
  };
  for (const Value& v : values) {
    auto got = decode<Value>(encode(v));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), v);
    if (v.is_pointer()) {
      EXPECT_TRUE(got.value().as_pointer().identical(v.as_pointer()));
    }
  }
}

TEST(Serialize, ObjectRoundTrip) {
  Object obj(ObjectId(2, 5));
  obj.add(Tuple::string("Title", "Main Program for Sort routine"));
  obj.add(Tuple::string("Author", "Joe Programmer"));
  obj.add(Tuple::text("Description", "<Arbitrary text description>"));
  obj.add(Tuple::pointer("Called Routine", ObjectId(1, 3)));
  obj.add(Tuple::pointer("Library", ObjectId(0, 8, 4)));

  auto got = decode<Object>(encode(obj));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), obj);
}

TEST(Serialize, QueryRoundTrip) {
  auto q = parse_query(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "Distributed", ?) (string, "Title", ->t) -> T)");
  ASSERT_TRUE(q.ok());
  auto got = decode<Query>(encode(q.value()));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got.value(), q.value());
}

TEST(Serialize, QueryWithAllPatternKindsRoundTrips) {
  auto q = parse_query(
      R"({1.2} (number, "Y", [10..20]) (/re/, ?, ?B) (string, $B, -42) count -> R)");
  ASSERT_TRUE(q.ok()) << q.error().to_string();
  auto got = decode<Query>(encode(q.value()));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), q.value());
}

TEST(Serialize, PaperQueryIsSmall) {
  // "Our messages send only the query (about 40 bytes for the experiments
  // presented here)". Our encoding of the experiment query should be the
  // same order of magnitude — well under 200 bytes.
  auto q = parse_query(
      R"(Root [ (pointer, "Tree", ?X) | ^X ]* (skey, "Rand10p", 5) -> T)");
  ASSERT_TRUE(q.ok());
  const auto bytes = encode(q.value());
  EXPECT_LT(bytes.size(), 100u);
  EXPECT_GT(bytes.size(), 20u);
}

TEST(Messages, DerefRequestRoundTrip) {
  DerefRequest dr;
  dr.qid = {4, 77};
  dr.query = parse_query(R"(S (?, ?, ?) (?, ?, ?) -> T)").value();
  dr.oid = ObjectId(1, 9, 2);
  dr.start = 3;
  dr.iter_stack = {1, 4, 2};
  dr.weight = {0, 5, 9};
  dr.msg_seq = 0xDEADBEEFull;
  dr.hop = 3;
  dr.path = {0, 4, 1};
  auto got = decode_message(encode_message(dr));
  ASSERT_TRUE(got.ok());
  const auto& back = std::get<DerefRequest>(got.value());
  EXPECT_EQ(back.qid, dr.qid);
  EXPECT_EQ(back.query, dr.query);
  EXPECT_TRUE(back.oid.identical(dr.oid));
  EXPECT_EQ(back.start, dr.start);
  EXPECT_EQ(back.iter_stack, dr.iter_stack);
  EXPECT_EQ(back.weight, dr.weight);
  EXPECT_EQ(back.msg_seq, dr.msg_seq);
  EXPECT_EQ(back.hop, 3u);
  EXPECT_EQ(back.path, dr.path);
}

TEST(Messages, StartQueryRoundTrip) {
  StartQuery sq;
  sq.qid = {0, 1};
  sq.query = parse_query(R"(S (?, ?, ?) count -> T)").value();
  sq.ids = {ObjectId(0, 1), ObjectId(2, 3)};
  sq.local_set_name = "T";
  sq.weight = {2};
  sq.msg_seq = 41;
  sq.hop = 1;
  sq.path = {6};
  auto got = decode_message(encode_message(sq));
  ASSERT_TRUE(got.ok());
  const auto& back = std::get<StartQuery>(got.value());
  EXPECT_EQ(back.ids, sq.ids);
  EXPECT_EQ(back.local_set_name, "T");
  EXPECT_EQ(back.msg_seq, 41u);
  EXPECT_EQ(back.hop, 1u);
  EXPECT_EQ(back.path, sq.path);
}

TraceSpan wire_test_span() {
  TraceSpan s;
  s.site = 1;
  s.first_hop = 2;
  s.path = {0, 2, 1};
  s.messages = 11;
  s.duplicates = 3;
  s.items = 40;
  s.forwarded = 9;
  s.results = 6;
  s.drains = 4;
  s.drain_us = 12345;
  s.retries = 2;
  s.suspicions = 1;
  s.pruned = 5;
  s.failovers = 2;
  s.replica_lag = 1;
  return s;
}

TEST(Messages, ResultMessageRoundTrip) {
  ResultMessage rm;
  rm.qid = {1, 2};
  rm.ids = {ObjectId(3, 4)};
  rm.values = {{0, ObjectId(3, 4), Value::string("A Title")},
               {1, ObjectId(3, 4), Value::number(7)}};
  rm.local_count = 12;
  rm.count_only = true;
  rm.weight = {1, 3};
  rm.msg_seq = 99;
  rm.dropped_items = 4;
  rm.spans = {wire_test_span()};
  auto got = decode_message(encode_message(rm));
  ASSERT_TRUE(got.ok());
  const auto& back = std::get<ResultMessage>(got.value());
  EXPECT_EQ(back.ids, rm.ids);
  EXPECT_EQ(back.values, rm.values);
  EXPECT_EQ(back.local_count, 12u);
  EXPECT_TRUE(back.count_only);
  EXPECT_EQ(back.weight, rm.weight);
  EXPECT_EQ(back.msg_seq, 99u);
  EXPECT_EQ(back.dropped_items, 4u);
  EXPECT_EQ(back.spans, rm.spans);
}

TEST(Messages, BatchDerefRoundTrip) {
  BatchDerefRequest bd;
  bd.qid = {2, 9};
  bd.query = parse_query(R"(S (?, ?, ?) (?, ?, ?) -> T)").value();
  bd.items = {{ObjectId(0, 1), 3, {1, 2}}, {ObjectId(1, 7, 2), 1, {4}}};
  bd.weight = {3, 5};
  bd.msg_seq = 17;
  bd.hop = 2;
  bd.path = {0, 1};
  auto got = decode_message(encode_message(bd));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  const auto& back = std::get<BatchDerefRequest>(got.value());
  EXPECT_EQ(back.qid, bd.qid);
  EXPECT_EQ(back.items, bd.items);
  EXPECT_EQ(back.hop, 2u);
  EXPECT_EQ(back.path, bd.path);
  EXPECT_EQ(back.weight, bd.weight);
  EXPECT_EQ(back.msg_seq, 17u);
  EXPECT_TRUE(back.items[1].oid.identical(bd.items[1].oid));
}

TEST(Messages, PingRoundTrip) {
  for (bool want_reply : {true, false}) {
    PingMessage ping{want_reply};
    auto got = decode_message(encode_message(ping));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    const auto& back = std::get<PingMessage>(got.value());
    EXPECT_EQ(back.want_reply, want_reply);
  }
}

TEST(Messages, TermAckRoundTrip) {
  TermAck ta{{3, 8}, 512};
  auto got = decode_message(encode_message(ta));
  ASSERT_TRUE(got.ok());
  const auto& back = std::get<TermAck>(got.value());
  EXPECT_EQ(back.qid, (QueryId{3, 8}));
  EXPECT_EQ(back.msg_seq, 512u);
}

TEST(Messages, ClientMessagesRoundTrip) {
  ClientRequest cr;
  cr.client_seq = 5;
  cr.query = parse_query(R"(S (?, ?, ?) -> T)").value();
  auto got = decode_message(encode_message(cr));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::get<ClientRequest>(got.value()).client_seq, 5u);

  ClientReply rp;
  rp.client_seq = 5;
  rp.ok = false;
  rp.error = "not_found: no set named 'S'";
  rp.total_count = 3;
  rp.partial = true;
  rp.dropped_items = 2;
  rp.qid = {5, 44};
  rp.elapsed_us = 987654;
  rp.spans = {wire_test_span(), wire_test_span()};
  rp.spans[1].site = 0;
  rp.spans[1].path.clear();  // empty paths must survive the wire too
  auto got2 = decode_message(encode_message(rp));
  ASSERT_TRUE(got2.ok());
  const auto& back = std::get<ClientReply>(got2.value());
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, rp.error);
  EXPECT_EQ(back.qid, rp.qid);
  EXPECT_EQ(back.elapsed_us, 987654u);
  EXPECT_EQ(back.spans, rp.spans);
  EXPECT_EQ(back.total_count, 3u);
  EXPECT_TRUE(back.partial);
  EXPECT_EQ(back.dropped_items, 2u);
}

TEST(Messages, SummaryMessageRoundTripFuzz) {
  // Summaries carry raw Bloom bitmaps; fuzz the shapes (empty record list,
  // empty bitmap, multi-record gossip) through the codec.
  Rng rng(0x5157);
  for (int trial = 0; trial < 200; ++trial) {
    SummaryMessage sm;
    const std::size_t nrecords = rng.next_below(4);
    for (std::size_t r = 0; r < nrecords; ++r) {
      SummaryRecord rec;
      rec.origin = static_cast<SiteId>(rng.next_below(8));
      rec.epoch = rng.next_u64() % 1000;
      rec.version = rng.next_u64() % 100000;
      rec.hash_count = static_cast<std::uint32_t>(rng.next_below(16));
      rec.entries = rng.next_u64() % 5000;
      rec.age_us = rng.next_u64();  // full range: ages are unvalidated here
      rec.bits.resize(rng.next_below(512));
      for (auto& b : rec.bits) b = static_cast<std::uint8_t>(rng.next_u64());
      sm.records.push_back(std::move(rec));
    }
    sm.msg_seq = rng.next_u64() % 100000;
    auto got = decode_message(encode_message(sm));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    const auto& back = std::get<SummaryMessage>(got.value());
    EXPECT_EQ(back.records, sm.records);
    EXPECT_EQ(back.msg_seq, sm.msg_seq);
  }
}

TEST(Messages, TruncatedSummaryRejected) {
  SummaryMessage sm;
  SummaryRecord rec;
  rec.origin = 3;
  rec.epoch = 2;
  rec.version = 41;
  rec.hash_count = 7;
  rec.entries = 12;
  rec.age_us = 123456;
  rec.bits = {0xde, 0xad, 0xbe, 0xef};
  sm.records = {rec, rec};
  sm.msg_seq = 9;
  auto bytes = encode_message(sm);
  for (std::size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_message(std::span(bytes.data(), cut)).ok());
  }
}

TEST(Messages, WalSubscribeRoundTrip) {
  WalSubscribe ws;
  ws.follower = 3;
  ws.ship_epoch = 17;
  ws.wal_offset = 123456789;
  ws.msg_seq = 0;  // subscribes ride unsequenced (idempotent, DESIGN.md §18)
  auto got = decode_message(encode_message(ws));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  const auto& back = std::get<WalSubscribe>(got.value());
  EXPECT_EQ(back.follower, ws.follower);
  EXPECT_EQ(back.ship_epoch, ws.ship_epoch);
  EXPECT_EQ(back.wal_offset, ws.wal_offset);
  EXPECT_EQ(back.msg_seq, ws.msg_seq);
}

TEST(Messages, WalSegmentRoundTripFuzz) {
  // Segments carry raw redo-record payloads; fuzz the shapes (empty record
  // list, empty payloads, multi-record batches, offset extremes).
  Rng rng(0x9A17);
  for (int trial = 0; trial < 200; ++trial) {
    WalSegment wg;
    wg.primary = static_cast<SiteId>(rng.next_below(8));
    wg.ship_epoch = rng.next_u64() % 1000;
    wg.from_offset = rng.next_u64();
    wg.end_offset = wg.from_offset + rng.next_u64() % 100000;
    const std::size_t nrecords = rng.next_below(6);
    for (std::size_t r = 0; r < nrecords; ++r) {
      Bytes payload(rng.next_below(128));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      wg.records.push_back(std::move(payload));
    }
    wg.msg_seq = rng.next_u64() % 100000;
    auto got = decode_message(encode_message(wg));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    const auto& back = std::get<WalSegment>(got.value());
    EXPECT_EQ(back.primary, wg.primary);
    EXPECT_EQ(back.ship_epoch, wg.ship_epoch);
    EXPECT_EQ(back.from_offset, wg.from_offset);
    EXPECT_EQ(back.end_offset, wg.end_offset);
    EXPECT_EQ(back.records, wg.records);
    EXPECT_EQ(back.msg_seq, wg.msg_seq);
  }
}

TEST(Messages, WalCatchupRoundTrip) {
  WalCatchup wc;
  wc.primary = 5;
  wc.ship_epoch = 3;
  wc.wal_offset = 0;
  wc.snapshot = {0x01, 0x00, 0xff, 0x7e, 0x00, 0x42};
  wc.msg_seq = 77;
  auto got = decode_message(encode_message(wc));
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  const auto& back = std::get<WalCatchup>(got.value());
  EXPECT_EQ(back.primary, wc.primary);
  EXPECT_EQ(back.ship_epoch, wc.ship_epoch);
  EXPECT_EQ(back.wal_offset, wc.wal_offset);
  EXPECT_EQ(back.snapshot, wc.snapshot);
  EXPECT_EQ(back.msg_seq, wc.msg_seq);
}

TEST(Messages, TruncatedReplicationMessagesRejected) {
  // Every strict prefix of each replication message must fail cleanly:
  // a torn frame must never decode into a shorter-but-valid segment.
  WalSegment wg;
  wg.primary = 2;
  wg.ship_epoch = 4;
  wg.from_offset = 1000;
  wg.end_offset = 1064;
  wg.records = {{0xde, 0xad}, {}, {0xbe, 0xef, 0x00}};
  wg.msg_seq = 31;
  WalCatchup wc;
  wc.primary = 2;
  wc.ship_epoch = 5;
  wc.wal_offset = 64;
  wc.snapshot = {0x10, 0x20, 0x30};
  wc.msg_seq = 32;
  WalSubscribe ws;
  ws.follower = 1;
  ws.ship_epoch = 4;
  ws.wal_offset = 1000;
  for (const Message m : {Message(wg), Message(wc), Message(ws)}) {
    auto bytes = encode_message(m);
    for (std::size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
      EXPECT_FALSE(decode_message(std::span(bytes.data(), cut)).ok());
    }
  }
}

TEST(Messages, QueryDoneAndEnvelopeRoundTrip) {
  Envelope env{7, 2, QueryDone{{7, 123}}};
  auto got = decode_envelope(encode_envelope(env));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().src, 7u);
  EXPECT_EQ(got.value().dst, 2u);
  EXPECT_EQ(std::get<QueryDone>(got.value().message).qid, (QueryId{7, 123}));
}

TEST(Messages, FuzzDecodeNeverCrashes) {
  // Random bytes must be rejected gracefully, never crash or hang.
  Rng rng(0xFEED);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    (void)decode_message(junk);
    (void)decode_envelope(junk);
  }
  SUCCEED();
}

TEST(Messages, TruncatedRealMessageRejected) {
  DerefRequest dr;
  dr.qid = {4, 77};
  dr.query = parse_query(R"(S (?, ?, ?) -> T)").value();
  dr.oid = ObjectId(1, 9);
  auto bytes = encode_message(dr);
  for (std::size_t cut = 0; cut + 1 < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_message(std::span(bytes.data(), cut)).ok());
  }
}

// ---------------------------------------------------------------------------
// Golden frames: the exact bytes of every message tag, every Value kind,
// Pattern kind and Filter tag, every WAL op and one envelope. WAL files,
// snapshots and peers running older builds all hold these bytes, so any
// codec change that alters one of them is a format break. Fields are set to
// non-default values and integers to >= 128 so multi-byte varints appear.
// ---------------------------------------------------------------------------

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

const ObjectId kGoldenId(300, 70000, 301);

/// One select filter per pattern kind, plus deref and iterate filters: the
/// query every golden computation message carries.
Query golden_query() {
  Query q;
  q.add_filter(SelectFilter{Pattern::literal("pointer"),
                            Pattern::literal("Reference"),
                            Pattern::bind("X")});
  q.add_filter(DerefFilter{"X", false});
  q.add_filter(IterateFilter{1, 200});
  q.add_filter(SelectFilter{Pattern::regex("^Dist").value(),
                            Pattern::range(-300, 70000), Pattern::use("X")});
  q.add_filter(SelectFilter{Pattern::any(),
                            Pattern::literal(Value::pointer(kGoldenId)),
                            Pattern::retrieve(1)});
  q.set_initial_ids({ObjectId(129, 200, 130)});
  q.set_initial_set_name("Start");
  q.set_result_set_name("Result");
  q.set_retrieve_slots({"title", "author"});
  q.set_count_only(true);
  return q;
}

/// A query whose only filter carries `p` in its data position, preceded by
/// the binding a kUse pattern needs and the slot a kRetrieve pattern needs.
Query golden_pattern_query(Pattern p) {
  Query q;
  if (p.uses()) {
    q.add_filter(SelectFilter{Pattern::bind(p.var()), Pattern::any(),
                              Pattern::any()});
  }
  q.add_filter(SelectFilter{Pattern::any(), Pattern::any(), std::move(p)});
  q.set_initial_set_name("S");
  q.set_retrieve_slots({"a", "b", "c"});
  return q;
}

Query golden_filter_query(Filter f) {
  Query q;
  q.add_filter(SelectFilter{Pattern::any(), Pattern::any(),
                            Pattern::bind("V")});
  q.add_filter(std::move(f));
  q.set_initial_set_name("S");
  return q;
}

TraceSpan golden_span() {
  TraceSpan s;
  s.site = 300;
  s.first_hop = 129;
  s.path = {0, 300, 129};
  s.messages = 1000;
  s.duplicates = 200;
  s.items = 70000;
  s.forwarded = 300;
  s.results = 400;
  s.drains = 500;
  s.drain_us = 1234567;
  s.retries = 130;
  s.suspicions = 131;
  s.pruned = 132;
  s.failovers = 133;
  s.replica_lag = 134;
  return s;
}

std::vector<RetrievedValue> golden_values() {
  return {{130, kGoldenId, Value::string("A Title")},
          {131, ObjectId(1, 2, 3), Value::number(-70000)}};
}

Object golden_object() {
  Object obj(kGoldenId);
  obj.add(Tuple::string("Title", "Sort"));
  obj.add(Tuple::number("Size", 70000));
  obj.add(Tuple::pointer("Called Routine", ObjectId(129, 200, 131)));
  obj.add(Tuple::blob("Code", Bytes(130, 0xab)));
  obj.add(Tuple::keyword("sorting"));
  return obj;
}

Message golden_message(std::uint8_t tag) {
  const QueryId qid{300, 70000};
  switch (tag) {
    case 1:
      return DerefRequest{qid,  golden_query(), kGoldenId, 4,   {1, 200},
                          {3, 130}, 1ull << 40, 129, {0, 300}};
    case 2:
      return StartQuery{qid,        golden_query(), {kGoldenId, ObjectId(1, 2)},
                        "Portion",  {7, 140},       1ull << 33,
                        130,        {300, 1}};
    case 3:
      return ResultMessage{qid,  {kGoldenId}, golden_values(), 70000, true,
                           {9, 150}, 1ull << 35, 131,
                           {golden_span(), golden_span()}};
    case 4:
      return QueryDone{qid};
    case 5:
      return ClientRequest{1ull << 36, golden_query()};
    case 6:
      return ClientReply{1ull << 37, false,      "not_found: no set named 'S'",
                         {kGoldenId}, golden_values(), 80000,
                         true,        true,       132,
                         qid,         987654,     {golden_span()}};
    case 7:
      return BatchDerefRequest{qid,
                               golden_query(),
                               {{kGoldenId, 4, {1, 200}},
                                {ObjectId(1, 2, 3), 6, {}}},
                               {11, 160},
                               1ull << 38,
                               133,
                               {0, 300, 2}};
    case 8:
      return TermAck{qid, 1ull << 39};
    case 9:
      return MoveCommand{1ull << 41, kGoldenId, 129, 302, 200};
    case 10:
      return MoveData{golden_object(), 303, 1ull << 42};
    case 11:
      return LocationUpdate{kGoldenId, 304};
    case 12:
      return MoveReply{1ull << 43, false, "no such object", 305};
    case 13:
      return PingMessage{true};
    case 14:
      return SummaryMessage{{{306, 140, 70000, 7, 90000, 1ull << 44,
                              Bytes(130, 0x5a)},
                             {2, 141, 3, 5, 6, 0, {0x01, 0x80}}},
                            1ull << 45};
    case 15:
      return WalSubscribe{307, 142, 1ull << 46, 1ull << 47};
    case 16:
      return WalSegment{308, 143, 1ull << 48, (1ull << 48) + 200,
                        {Bytes(129, 0x11), {}, {0xfe}}, 1ull << 49};
    case 17:
      return WalCatchup{309, 144, 1ull << 50, Bytes(140, 0x22), 1ull << 51};
  }
  ADD_FAILURE() << "no golden message for tag " << int(tag);
  return QueryDone{};
}

struct GoldenFrame {
  std::string name;
  enum class Kind { kMessage, kWal, kEnvelope } kind;
  Bytes bytes;  // encoded by the current codec
  const char* hex;  // the pinned bytes
};

std::vector<GoldenFrame> golden_frames() {
  std::vector<GoldenFrame> frames;
  auto message = [&](std::string name, const Message& m, const char* hex) {
    frames.push_back({std::move(name), GoldenFrame::Kind::kMessage,
                      encode_message(m), hex});
  };
  auto pattern = [&](std::string name, Pattern p, const char* hex) {
    message("pattern." + name,
            ClientRequest{200, golden_pattern_query(std::move(p))}, hex);
  };
  auto filter = [&](std::string name, Filter f, const char* hex) {
    message("filter." + name,
            ClientRequest{201, golden_filter_query(std::move(f))}, hex);
  };
  auto value = [&](std::string name, Value v, const char* hex) {
    message("value." + name,
            ResultMessage{{300, 129}, {}, {{140, kGoldenId, std::move(v)}},
                          0, false, {}, 0, 0, {}},
            hex);
  };
  auto wal = [&](std::string name, const WalRecord& rec, const char* hex) {
    frames.push_back({"wal." + std::move(name), GoldenFrame::Kind::kWal,
                      encode_wal_record(rec), hex});
  };

  static const char* const kTagHex[17] = {
      // tag 1
      "01ac02f0a2040501010107706f696e7465720101095265666572656e63650401"
      "58020158000301c8010102055e4469737403d704e0c50805015801000103ac02"
      "f0a204ad020601018101c801820105537461727406526573756c740205746974"
      "6c6506617574686f7201ac02f0a204ad02040201c80102038201808080808020"
      "81010200ac02",
      // tag 2
      "02ac02f0a2040501010107706f696e7465720101095265666572656e63650401"
      "58020158000301c8010102055e4469737403d704e0c50805015801000103ac02"
      "f0a204ad020601018101c801820105537461727406526573756c740205746974"
      "6c6506617574686f720102ac02f0a204ad0201020107506f7274696f6e02078c"
      "018080808020820102ac0201",
      // tag 3
      "03ac02f0a20401ac02f0a204ad02028201ac02f0a204ad02010741205469746c"
      "65830101020302dfc508f0a2040102099601808080808001830102ac02810103"
      "00ac028101e807c801f0a204ac029003f40387ad4b82018301840185018601ac"
      "0281010300ac028101e807c801f0a204ac029003f40387ad4b82018301840185"
      "018601",
      // tag 4
      "04ac02f0a204",
      // tag 5
      "058080808080020501010107706f696e7465720101095265666572656e636504"
      "0158020158000301c8010102055e4469737403d704e0c50805015801000103ac"
      "02f0a204ad020601018101c801820105537461727406526573756c7402057469"
      "746c6506617574686f7201",
      // tag 6
      "06808080808004001b6e6f745f666f756e643a206e6f20736574206e616d6564"
      "2027532701ac02f0a204ad02028201ac02f0a204ad02010741205469746c6583"
      "0101020302dfc50880f10401018401ac02f0a20486a43c01ac0281010300ac02"
      "8101e807c801f0a204ac029003f40387ad4b82018301840185018601",
      // tag 7
      "07ac02f0a2040501010107706f696e7465720101095265666572656e63650401"
      "58020158000301c8010102055e4469737403d704e0c50805015801000103ac02"
      "f0a204ad020601018101c801820105537461727406526573756c740205746974"
      "6c6506617574686f720102ac02f0a204ad02040201c8010102030600020ba001"
      "80808080800885010300ac0202",
      // tag 8
      "08ac02f0a204808080808010",
      // tag 9
      "09808080808040ac02f0a204ad028101ae02c8",
      // tag 10
      "0aac02f0a204ad020506737472696e67055469746c650104536f7274066e756d"
      "6265720453697a6502e0c50807706f696e7465720e43616c6c656420526f7574"
      "696e65038101c801830104626c6f6204436f6465048201ababababababababab"
      "abababababababababababababababababababababababababababababababab"
      "abababababababababababababababababababababababababababababababab"
      "abababababababababababababababababababababababababababababababab"
      "ababababababababababababababababababababababababab076b6579776f72"
      "6407736f7274696e6700af0280808080808001",
      // tag 11
      "0bac02f0a204ad02b002",
      // tag 12
      "0c80808080808002000e6e6f2073756368206f626a656374b102",
      // tag 13
      "0d01",
      // tag 14
      "0e02b2028c01f0a2040790bf058080808080800482015a5a5a5a5a5a5a5a5a5a"
      "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"
      "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"
      "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"
      "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a028d010305060002"
      "018080808080808008",
      // tag 15
      "0fb3028e018080808080801080808080808020",
      // tag 16
      "10b4028f0180808080808040c881808080804003810111111111111111111111"
      "1111111111111111111111111111111111111111111111111111111111111111"
      "1111111111111111111111111111111111111111111111111111111111111111"
      "1111111111111111111111111111111111111111111111111111111111111111"
      "11111111111111111111111111111111111111111111110001fe808080808080"
      "8001",
      // tag 17
      "11b502900180808080808080028c012222222222222222222222222222222222"
      "2222222222222222222222222222222222222222222222222222222222222222"
      "2222222222222222222222222222222222222222222222222222222222222222"
      "2222222222222222222222222222222222222222222222222222222222222222"
      "2222222222222222222222222222222222222222222222222222228080808080"
      "808004"
  };
  for (std::uint8_t tag = 1; tag <= 17; ++tag) {
    message("tag." + std::to_string(tag), golden_message(tag),
            kTagHex[tag - 1]);
  }

  value("null", Value(),
          "03ac02810100018c01ac02f0a204ad0200000000000000");
  value("string", Value::string(std::string(130, 's')),
          "03ac02810100018c01ac02f0a204ad0201820173737373737373737373737373"
          "7373737373737373737373737373737373737373737373737373737373737373"
          "7373737373737373737373737373737373737373737373737373737373737373"
          "7373737373737373737373737373737373737373737373737373737373737373"
          "737373737373737373737373737373737373737373000000000000");
  value("number", Value::number(-(1ll << 40)),
          "03ac02810100018c01ac02f0a204ad0202ffffffffff3f000000000000");
  value("pointer", Value::pointer(kGoldenId),
          "03ac02810100018c01ac02f0a204ad0203ac02f0a204ad02000000000000");
  value("blob", Value::blob(Bytes(129, 0xcd)),
          "03ac02810100018c01ac02f0a204ad02048101cdcdcdcdcdcdcdcdcdcdcdcdcd"
          "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
          "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
          "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
          "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd000000000000");

  pattern("any", Pattern::any(),
          "05c8010101000000000153000301610162016300");
  pattern("literal", Pattern::literal(Value::number(70000)),
          "05c801010100000102e0c508000153000301610162016300");
  pattern("regex", Pattern::regex("^Dist.*ed$").value(),
          "05c80101010000020a5e446973742e2a656424000153000301610162016300");
  pattern("range", Pattern::range(-200, 1ll << 40),
          "05c80101010000038f03808080808040000153000301610162016300");
  pattern("bind", Pattern::bind("Var"),
          "05c801010100000403566172000153000301610162016300");
  pattern("use", Pattern::use("Var"),
          "05c8010201040356617200000100000503566172000153000301610162016300");
  pattern("retrieve", Pattern::retrieve(2),
          "05c801010100000602000153000301610162016300");

  filter("select",
         SelectFilter{Pattern::literal("number"), Pattern::literal("Y"),
                      Pattern::range(128, 70000)},
          "05c90102010000040156010101066e756d62657201010159038002e0c5080001"
          "53000000");
  filter("deref", DerefFilter{"V", false},
          "05c9010201000004015602015600000153000000");
  filter("iterate", IterateFilter{1, 300},
          "05c901020100000401560301ac02000153000000");

  wal("put", WalRecord::put(golden_object(), 70000),
          "01f0a204ac02f0a204ad020506737472696e67055469746c650104536f727406"
          "6e756d6265720453697a6502e0c50807706f696e7465720e43616c6c65642052"
          "6f7574696e65038101c801830104626c6f6204436f6465048201abababababab"
          "abababababababababababababababababababababababababababababababab"
          "abababababababababababababababababababababababababababababababab"
          "abababababababababababababababababababababababababababababababab"
          "abababababababababababababababababababababababababababab076b6579"
          "776f726407736f7274696e6700");
  wal("erase", WalRecord::erase(kGoldenId, 1ull << 35),
          "02808080808001ac02f0a204ad02");
  wal("bind_set", WalRecord::bind_set("Result", kGoldenId, 129),
          "03810106526573756c74ac02f0a204ad02");

  frames.push_back({"envelope", GoldenFrame::Kind::kEnvelope,
                    encode_envelope(Envelope{300, 129, golden_message(8)}),
          "ac0281010c08ac02f0a204808080808010"});
  return frames;
}

TEST(Golden, FramesMatchByteForByte) {
  for (const GoldenFrame& g : golden_frames()) {
    EXPECT_EQ(to_hex(g.bytes), g.hex) << g.name;
  }
}

TEST(Golden, FramesDecodeAndReencodeIdentically) {
  for (const GoldenFrame& g : golden_frames()) {
    const Bytes pinned = from_hex(g.hex);
    switch (g.kind) {
      case GoldenFrame::Kind::kMessage: {
        auto m = decode_message(pinned);
        ASSERT_TRUE(m.ok()) << g.name << ": " << m.error().to_string();
        EXPECT_EQ(encode_message(m.value()), pinned) << g.name;
        break;
      }
      case GoldenFrame::Kind::kWal: {
        auto rec = decode_wal_record(pinned);
        ASSERT_TRUE(rec.ok()) << g.name << ": " << rec.error().to_string();
        EXPECT_EQ(encode_wal_record(rec.value()), pinned) << g.name;
        break;
      }
      case GoldenFrame::Kind::kEnvelope: {
        auto env = decode_envelope(pinned);
        ASSERT_TRUE(env.ok()) << g.name << ": " << env.error().to_string();
        EXPECT_EQ(encode_envelope(env.value()), pinned) << g.name;
        break;
      }
    }
  }
}

TEST(Golden, DecodedMessagesEqualTheirSources) {
  // Byte equality alone would pass a codec that drops a field on both
  // sides; compare decoded values against the structs they came from.
  auto check = [](const Message& m) -> Message {
    auto back = decode_message(encode_message(m));
    if (!back.ok() || back.value().index() != m.index()) {
      ADD_FAILURE() << message_type_name(m) << " did not round-trip";
      return m;
    }
    return std::move(back).value();
  };
  {
    const auto src = std::get<DerefRequest>(golden_message(1));
    const auto got = std::get<DerefRequest>(check(src));
    EXPECT_EQ(got.qid, src.qid);
    EXPECT_EQ(got.query, src.query);
    EXPECT_TRUE(got.oid.identical(src.oid));
    EXPECT_EQ(got.start, src.start);
    EXPECT_EQ(got.iter_stack, src.iter_stack);
    EXPECT_EQ(got.weight, src.weight);
    EXPECT_EQ(got.msg_seq, src.msg_seq);
    EXPECT_EQ(got.hop, src.hop);
    EXPECT_EQ(got.path, src.path);
  }
  {
    const auto src = std::get<ClientReply>(golden_message(6));
    const auto got = std::get<ClientReply>(check(src));
    EXPECT_EQ(got.client_seq, src.client_seq);
    EXPECT_EQ(got.ok, src.ok);
    EXPECT_EQ(got.error, src.error);
    EXPECT_EQ(got.ids, src.ids);
    EXPECT_EQ(got.values, src.values);
    EXPECT_EQ(got.total_count, src.total_count);
    EXPECT_EQ(got.count_only, src.count_only);
    EXPECT_EQ(got.partial, src.partial);
    EXPECT_EQ(got.dropped_items, src.dropped_items);
    EXPECT_EQ(got.qid, src.qid);
    EXPECT_EQ(got.elapsed_us, src.elapsed_us);
    EXPECT_EQ(got.spans, src.spans);
  }
  {
    const auto src = std::get<MoveCommand>(golden_message(9));
    const auto got = std::get<MoveCommand>(check(src));
    EXPECT_EQ(got.client_seq, src.client_seq);
    EXPECT_TRUE(got.id.identical(src.id));
    EXPECT_EQ(got.to, src.to);
    EXPECT_EQ(got.reply_to, src.reply_to);
    EXPECT_EQ(got.hops_left, src.hops_left);
  }
  {
    const auto src = std::get<MoveData>(golden_message(10));
    const auto got = std::get<MoveData>(check(src));
    EXPECT_EQ(got.object, src.object);
    EXPECT_EQ(got.reply_to, src.reply_to);
    EXPECT_EQ(got.client_seq, src.client_seq);
  }
}

TEST(Golden, MutatedFramesDecodeCanonicallyOrFail) {
  // Every single-bit flip, every whole-byte complement and every truncation
  // of every golden frame must either be rejected or decode to a value that
  // re-encodes to exactly the mutated bytes: decoding is canonical, so no
  // two accepted frames mean the same thing.
  auto roundtrip = [](GoldenFrame::Kind kind,
                      std::span<const std::uint8_t> b) -> std::optional<Bytes> {
    switch (kind) {
      case GoldenFrame::Kind::kMessage:
        if (auto m = decode_message(b); m.ok()) return encode_message(m.value());
        break;
      case GoldenFrame::Kind::kWal:
        if (auto r = decode_wal_record(b); r.ok()) {
          return encode_wal_record(r.value());
        }
        break;
      case GoldenFrame::Kind::kEnvelope:
        if (auto e = decode_envelope(b); e.ok()) return encode_envelope(e.value());
        break;
    }
    return std::nullopt;
  };
  std::size_t mutants = 0;
  std::size_t accepted = 0;
  for (const GoldenFrame& g : golden_frames()) {
    const Bytes pinned = from_hex(g.hex);
    for (std::size_t cut = 0; cut < pinned.size(); ++cut) {
      ++mutants;
      EXPECT_FALSE(roundtrip(g.kind, std::span(pinned.data(), cut)))
          << g.name << " truncated to " << cut << " bytes decoded";
    }
    Bytes mutant = pinned;
    for (std::size_t i = 0; i < pinned.size(); ++i) {
      for (int flip = 0; flip <= 8; ++flip) {
        mutant[i] = static_cast<std::uint8_t>(
            pinned[i] ^ (flip == 8 ? 0xff : 1u << flip));
        ++mutants;
        if (auto again = roundtrip(g.kind, mutant)) {
          ++accepted;
          EXPECT_EQ(to_hex(*again), to_hex(mutant))
              << g.name << " byte " << i << " flip " << flip;
        }
      }
      mutant[i] = pinned[i];
    }
  }
  // Most flips land in ids, counters and text, which stay well-formed.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, mutants);
}

TEST(Golden, TrailingBytesRejected) {
  Bytes done = encode_message(QueryDone{{300, 70000}});
  done.push_back(0);
  EXPECT_FALSE(decode_message(done).ok());

  Bytes env = encode_envelope(Envelope{300, 129, QueryDone{{300, 70000}}});
  env.push_back(0);
  EXPECT_FALSE(decode_envelope(env).ok());
}

TEST(Golden, DerefEntryFilterOutOfRangeRejected) {
  // A dereference enters the query at filter 1..n, or n + 1 once it has
  // passed them all. start 0 indexed filters_[-1] at the receiving site;
  // start n + 2 skipped every filter and returned the object as a result.
  DerefRequest dr;
  dr.qid = {1, 1};
  dr.query = parse_query(R"(S (keyword, "hit", ?) -> T)").value();
  dr.oid = ObjectId(0, 1);
  for (std::uint32_t start : {0u, 3u, 7u}) {
    dr.start = start;
    EXPECT_FALSE(decode_message(encode_message(dr)).ok()) << "start " << start;
  }
  for (std::uint32_t start : {1u, 2u}) {
    dr.start = start;
    EXPECT_TRUE(decode_message(encode_message(dr)).ok()) << "start " << start;
  }

  BatchDerefRequest bd;
  bd.qid = {1, 2};
  bd.query = dr.query;
  bd.items = {{ObjectId(0, 1), 1, {}}, {ObjectId(0, 2), 0, {}}};
  EXPECT_FALSE(decode_message(encode_message(bd)).ok());
  bd.items[1].start = 3;
  EXPECT_FALSE(decode_message(encode_message(bd)).ok());
  bd.items[1].start = 2;
  EXPECT_TRUE(decode_message(encode_message(bd)).ok());
}

TEST(Golden, NarrowFieldOverflowRejected) {
  // A varint decoded into a 32-bit field must fit it: 2^32 + 1 used to wrap
  // silently to 1.
  const std::uint64_t too_big = (1ull << 32) + 1;

  // LocationUpdate ends with its SiteId field.
  Bytes lu = encode_message(LocationUpdate{ObjectId(1, 2, 3), 5});
  ASSERT_EQ(lu.back(), 5);
  lu.pop_back();
  Encoder site;
  site.varint(too_big);
  lu.insert(lu.end(), site.bytes().begin(), site.bytes().end());
  EXPECT_FALSE(decode_message(lu).ok());

  // A DerefRequest whose trailing fields are all empty ends with
  // start, then five zero bytes (iter_stack, weight, msg_seq, hop, path).
  DerefRequest dr;
  dr.qid = {1, 1};
  dr.query = parse_query(R"(S (keyword, "hit", ?) -> T)").value();
  dr.oid = ObjectId(0, 1);
  dr.start = 1;
  Bytes frame = encode_message(dr);
  ASSERT_EQ(frame[frame.size() - 6], 1);
  Bytes wrapped(frame.begin(), frame.end() - 6);
  Encoder start;
  start.varint(too_big);
  wrapped.insert(wrapped.end(), start.bytes().begin(), start.bytes().end());
  wrapped.insert(wrapped.end(), frame.end() - 5, frame.end());
  EXPECT_FALSE(decode_message(wrapped).ok());
}

TEST(Golden, EnvelopeReusePathDoesNotAllocate) {
  const Envelope env{300, 129, golden_message(1)};
  Encoder scratch;
  encode_envelope(env, scratch);  // warm the buffer
  encode_envelope(env, scratch);
  const std::size_t before = allocations();
  for (int i = 0; i < 100; ++i) encode_envelope(env, scratch);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(scratch.bytes(), encode_envelope(env));

  // Decoding an envelope allocates exactly what decoding its message does:
  // the payload is decoded in place, not copied out first.
  const Bytes payload = encode_message(env.message);
  std::size_t mark = allocations();
  ASSERT_TRUE(decode_message(payload).ok());
  const std::size_t message_allocs = allocations() - mark;
  mark = allocations();
  ASSERT_TRUE(decode_envelope(scratch.bytes()).ok());
  EXPECT_EQ(allocations() - mark, message_allocs);
}

}  // namespace
}  // namespace hyperfile::wire
