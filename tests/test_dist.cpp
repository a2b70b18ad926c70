// Integration tests for the threaded distributed runtime: the Section 3.2
// algorithm end-to-end over real (in-process, wire-serialized) messages,
// with weighted-message termination detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <thread>
#include <tuple>
#include <variant>

#include "common/metrics.hpp"
#include "dist/cluster.hpp"
#include "dist/site_server.hpp"
#include "engine/local_engine.hpp"
#include "net/inproc.hpp"
#include "test_helpers.hpp"
#include "wire/message.hpp"

namespace hyperfile {
namespace {

using testing::parse_or_die;
using testing::sorted;

/// Distribute a ring/chain of `n` objects round-robin over the cluster's
/// sites, linked by "Reference" pointers (always crossing sites when
/// sites > 1), each holding keyword "hit" if index % 3 == 0. Set "S" at
/// site 0 holds the head. Returns ids in chain order.
std::vector<ObjectId> populate_cross_site_chain(Cluster& cluster, std::size_t n) {
  const std::size_t sites = cluster.size();
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(cluster.store(i % sites).allocate());
  }
  for (std::size_t i = 0; i < n; ++i) {
    Object obj(ids[i]);
    obj.add(Tuple::string("Name", "obj" + std::to_string(i)));
    obj.add(Tuple::pointer("Reference", i + 1 < n ? ids[i + 1] : ids[i]));
    if (i % 3 == 0) obj.add(Tuple::keyword("hit"));
    cluster.store(i % sites).put(std::move(obj));
  }
  cluster.store(0).create_set("S", std::span<const ObjectId>(ids.data(), 1));
  return ids;
}

/// Expected result computed on a merged single-site replica.
QueryResult expected_on_merged(Cluster& cluster, const Query& q) {
  SiteStore merged(0);
  for (SiteId s = 0; s < cluster.size(); ++s) {
    cluster.store(s).for_each([&](const Object& obj) { merged.put(obj); });
    for (const auto& name : cluster.store(s).set_names()) {
      merged.bind_set(name, *cluster.store(s).find_set(name));
    }
  }
  LocalEngine engine(merged);
  auto r = engine.run_readonly(q);
  EXPECT_TRUE(r.ok());
  return r.value_or(QueryResult{});
}

const char* kClosure =
    R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) -> T)";

TEST(Cluster, SingleSiteMatchesLocalEngine) {
  Cluster cluster(1);
  populate_cross_site_chain(cluster, 20);
  Query q = parse_or_die(kClosure);
  QueryResult expected = expected_on_merged(cluster, q);

  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  cluster.stop();
}

TEST(Cluster, ThreeSiteChainMatchesMergedRun) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  Query q = parse_or_die(kClosure);
  QueryResult expected = expected_on_merged(cluster, q);

  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  EXPECT_EQ(r.value().ids.size(), 10u);  // indices 0,3,...,27

  // Every hop crossed a site boundary: 29 forward derefs at minimum.
  auto net = cluster.network_stats();
  EXPECT_GE(net.deref_messages, 29u);
  cluster.stop();
}

TEST(Cluster, RetrievalValuesFlowBackToOriginator) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 12);
  Query q = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) (string, "Name", ->name) -> T)");

  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  auto names = r.value().values_for("name");
  ASSERT_EQ(names.size(), 4u);  // obj0, obj3, obj6, obj9
  std::vector<std::string> strs;
  for (const auto& v : names) strs.push_back(v.as_string());
  std::sort(strs.begin(), strs.end());
  EXPECT_EQ(strs, (std::vector<std::string>{"obj0", "obj3", "obj6", "obj9"}));
  cluster.stop();
}

TEST(Cluster, ContextsDiscardedAfterGlobalTermination) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();
  auto r = cluster.client().run(parse_or_die(kClosure));
  ASSERT_TRUE(r.ok());

  // QueryDone messages race with the reply; poll briefly.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    std::size_t live = 0;
    for (SiteId s = 0; s < cluster.size(); ++s) {
      live += cluster.server(s).context_count();
    }
    if (live == 0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << live << " contexts still alive";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  cluster.stop();
}

TEST(Cluster, SequentialQueriesAndChainedSets) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();

  auto r1 = cluster.client().run(parse_or_die(kClosure));
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1.value().ids.size(), 10u);

  // T is bound at the originator; a follow-up query can start from it.
  auto r2 = cluster.client().run(parse_or_die(R"(T (string, "Name", /obj(3|9)$/) -> U)"));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2.value().ids.size(), 2u);
  cluster.stop();
}

TEST(Cluster, CountOnlyDistributedSetAndContinuation) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();

  Query q1 = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) count -> D)");
  auto r1 = cluster.client().run(q1);
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  EXPECT_TRUE(r1.value().count_only);
  EXPECT_EQ(r1.value().total_count, 10u);
  EXPECT_TRUE(r1.value().ids.empty());  // members stayed distributed

  // Continuation: restrict the distributed set; the originator fans
  // StartQuery to the sites holding portions.
  auto r2 = cluster.client().run(parse_or_die(R"(D (string, "Name", /obj[0-9]$/) -> U)"));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2.value().ids.size(), 4u);  // obj0, obj3, obj6, obj9
  cluster.stop();
}

TEST(Cluster, SiteFailureYieldsPartialResults) {
  Cluster cluster(3);
  auto ids = populate_cross_site_chain(cluster, 30);
  cluster.start();
  cluster.stop_site(2);  // kill one site before querying

  auto r = cluster.client().run(parse_or_die(kClosure), Duration(10'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  // The chain dies at the first pointer into site 2 (index 2), so only
  // index 0 survives the filter — a partial but correct subset.
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[0]});
  cluster.stop();
}

TEST(Cluster, ExplicitInitialIdsAcrossSites) {
  Cluster cluster(3);
  auto ids = populate_cross_site_chain(cluster, 9);
  cluster.start();

  Query q = QueryBuilder::from_ids({ids[1], ids[4], ids[6]})
                .select(Pattern::literal("keyword"), Pattern::literal("hit"),
                        Pattern::any())
                .into("T");
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[6]});  // only 6 % 3 == 0
  cluster.stop();
}

TEST(Cluster, UnknownInitialSetIsReportedError) {
  Cluster cluster(2);
  cluster.start();
  auto r = cluster.client().run(parse_or_die(R"(Nope (?, ?, ?) -> T)"));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("Nope"), std::string::npos);
  cluster.stop();
}

TEST(Cluster, QueryOriginatedAtNonDefaultServer) {
  Cluster cluster(3);
  auto ids = populate_cross_site_chain(cluster, 9);
  // Bind a set at site 1 as well.
  cluster.store(1).create_set("Mine", std::span<const ObjectId>(&ids[1], 1));
  cluster.start();

  auto r = cluster.client().run_at(1, parse_or_die(R"(Mine (?, ?, ?) -> T)"));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[1]});
  cluster.stop();
}

TEST(Cluster, MovedObjectFoundViaBirthSiteForwarding) {
  Cluster cluster(3);
  auto ids = populate_cross_site_chain(cluster, 6);
  // Move object 1 (site 1) to site 2. Pointers still presume site 1.
  ASSERT_TRUE(cluster.move_object(ids[1], 1, 2).ok());
  cluster.start();

  auto r = cluster.client().run(parse_or_die(kClosure));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted({ids[0], ids[3]}));
  cluster.stop();
}

TEST(Cluster, ManySequentialQueriesStayStable) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();
  Query q = parse_or_die(kClosure);
  for (int i = 0; i < 25; ++i) {
    auto r = cluster.client().run(q);
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": " << r.error().to_string();
    EXPECT_EQ(r.value().ids.size(), 10u) << "iteration " << i;
  }
  cluster.stop();
}

TEST(Cluster, RewriteOnByDefaultPreservesResults) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 18);
  // A query with removable fluff: duplicate select + redundant wildcard.
  Query q = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) (keyword, "hit", ?) (?, ?, ?) -> T)");
  QueryResult expected = expected_on_merged(cluster, q);
  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  cluster.stop();
}

class TerminationAlgos
    : public ::testing::TestWithParam<TerminationAlgorithm> {};

TEST_P(TerminationAlgos, ClosureMatchesUnderBothDetectors) {
  SiteServerOptions options;
  options.termination = GetParam();
  Cluster cluster(3, options);
  populate_cross_site_chain(cluster, 30);
  Query q = parse_or_die(kClosure);
  QueryResult expected = expected_on_merged(cluster, q);
  cluster.start();
  for (int i = 0; i < 5; ++i) {
    auto r = cluster.client().run(q, Duration(20'000'000));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    EXPECT_EQ(sorted(r.value().ids), sorted(expected.ids));
  }
  cluster.stop();
}

TEST_P(TerminationAlgos, PartialResultsOnFailure) {
  SiteServerOptions options;
  options.termination = GetParam();
  Cluster cluster(3, options);
  auto ids = populate_cross_site_chain(cluster, 30);
  cluster.start();
  cluster.stop_site(2);
  auto r = cluster.client().run(parse_or_die(kClosure), Duration(10'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().ids, std::vector<ObjectId>{ids[0]});
  cluster.stop();
}

TEST_P(TerminationAlgos, CountOnlyContinuationWorks) {
  SiteServerOptions options;
  options.termination = GetParam();
  Cluster cluster(3, options);
  populate_cross_site_chain(cluster, 30);
  cluster.start();
  auto r1 = cluster.client().run(parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) count -> D)"));
  ASSERT_TRUE(r1.ok()) << r1.error().to_string();
  EXPECT_EQ(r1.value().total_count, 10u);
  auto r2 = cluster.client().run(parse_or_die(R"(D (?, ?, ?) -> U)"));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(r2.value().ids.size(), 10u);
  cluster.stop();
}

INSTANTIATE_TEST_SUITE_P(Algos, TerminationAlgos,
                         ::testing::Values(
                             TerminationAlgorithm::kWeightedMessages,
                             TerminationAlgorithm::kDijkstraScholten));

TEST(Cluster, DijkstraScholtenSendsAcksWeightedDoesNot) {
  auto run_with = [](TerminationAlgorithm algo) {
    SiteServerOptions options;
    options.termination = algo;
    Cluster cluster(3, options);
    populate_cross_site_chain(cluster, 12);
    cluster.start();
    auto r = cluster.client().run(parse_or_die(kClosure));
    EXPECT_TRUE(r.ok());
    cluster.stop();
    return cluster.network_stats();
  };
  auto weighted = run_with(TerminationAlgorithm::kWeightedMessages);
  auto ds = run_with(TerminationAlgorithm::kDijkstraScholten);
  // Same query traffic; only D-S adds acknowledgement messages.
  EXPECT_EQ(weighted.deref_messages, ds.deref_messages);
  EXPECT_GT(ds.messages_sent, weighted.messages_sent);
}

TEST(Cluster, ConcurrentClientsInterleaveSafely) {
  // Two clients hammer the cluster simultaneously with different queries;
  // per-query contexts at each site must not interfere.
  Cluster cluster(3, SiteServerOptions{}, /*clients=*/2);
  auto ids = populate_cross_site_chain(cluster, 30);
  cluster.start();

  Query q_hits = parse_or_die(kClosure);
  Query q_names = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (string, "Name", /obj1/) -> N)");

  std::atomic<int> failures{0};
  auto worker = [&](Client& client, const Query& q, std::size_t expect) {
    for (int i = 0; i < 10; ++i) {
      auto r = client.run(q, Duration(20'000'000));
      if (!r.ok() || r.value().ids.size() != expect) {
        ++failures;
        return;
      }
    }
  };
  // obj1, obj10..obj19 -> 11 matches for the name query.
  std::thread t1([&] { worker(cluster.client(0), q_hits, 10); });
  std::thread t2([&] { worker(cluster.client(1), q_names, 11); });
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  cluster.stop();
}

TEST(Cluster, SnapshotRestartAnswersIdentically) {
  const std::string dir = ::testing::TempDir() + "/hf_dist_snap";
  std::filesystem::create_directories(dir);
  Query q = parse_or_die(kClosure);
  std::vector<ObjectId> want;
  {
    Cluster original(3);
    populate_cross_site_chain(original, 24);
    original.start();
    auto r = original.client().run(q);
    ASSERT_TRUE(r.ok());
    want = sorted(r.value().ids);
    original.stop();
    ASSERT_TRUE(original.save_snapshots(dir).ok());
  }
  // A brand-new deployment restored from disk.
  Cluster restored(3);
  auto lr = restored.load_snapshots(dir);
  ASSERT_TRUE(lr.ok()) << lr.error().to_string();
  restored.start();
  auto r2 = restored.client().run(q);
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(sorted(r2.value().ids), want);
  restored.stop();
}

TEST(Cluster, OnlineSnapshotWhileServing) {
  // save_snapshots no longer demands a stopped cluster: each running site
  // serializes its store from inside its own event loop (run_exclusive), so
  // the image is consistent even while queries are in flight. load_snapshots
  // stays stopped-only — swapping a store under a live loop would tear.
  const std::string dir = ::testing::TempDir() + "/hf_dist_online_snap";
  std::filesystem::create_directories(dir);
  Query q = parse_or_die(kClosure);
  std::vector<ObjectId> want;
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 24);
  cluster.start();
  auto r = cluster.client().run(q);
  ASSERT_TRUE(r.ok());
  want = sorted(r.value().ids);
  ASSERT_TRUE(cluster.save_snapshots(dir).ok());  // still running
  EXPECT_FALSE(cluster.load_snapshots(dir).ok());  // load stays stopped-only
  cluster.stop();

  Cluster restored(3);
  auto lr = restored.load_snapshots(dir);
  ASSERT_TRUE(lr.ok()) << lr.error().to_string();
  restored.start();
  auto r2 = restored.client().run(q);
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(sorted(r2.value().ids), want);
  restored.stop();
}

// --- Protocol-driver regressions: a raw endpoint plays client and remote
// participant against a single SiteServer, so malformed/duplicated traffic
// can be injected byte-for-byte. ---------------------------------------

TEST(SiteServerProtocol, DuplicateResultMessagesCountedOnce) {
  // Regression: a wire-duplicated ResultMessage must be suppressed by
  // (src, msg_seq), not merged twice. Without suppression the duplicate
  // double-counts local_count (count_only hides the ids_seen dedup that
  // masks the bug for id results).
  InProcNetwork net(2);
  SiteStore store(0);
  const ObjectId local = store.allocate();
  const ObjectId remote(1, 1);  // presumed at site 1 — the driver below
  Object obj(local);
  obj.add(Tuple::pointer("Reference", remote));
  obj.add(Tuple::keyword("hit"));
  store.put(std::move(obj));
  store.create_set("S", std::span<const ObjectId>(&local, 1));

  SiteServer server(net.endpoint(0), std::move(store));
  server.start();
  auto driver = net.endpoint(1);

  wire::ClientRequest cr;
  cr.client_seq = 1;
  cr.query = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) count -> D)");
  ASSERT_TRUE(driver->send(0, cr).ok());

  // The server counts its local hit and chases the remote pointer to us.
  auto env = driver->recv(Duration(5'000'000));
  ASSERT_TRUE(env.has_value());
  auto* dr = std::get_if<wire::DerefRequest>(&env->message);
  ASSERT_NE(dr, nullptr);

  // Our site's count, delivered twice (the network duplicated the frame).
  wire::ResultMessage rm;
  rm.qid = dr->qid;
  rm.count_only = true;
  rm.local_count = 5;
  rm.msg_seq = 7;
  ASSERT_TRUE(driver->send(0, wire::Message(rm)).ok());
  ASSERT_TRUE(driver->send(0, wire::Message(rm)).ok());

  // A later drain returns the borrowed weight: the query can now terminate.
  wire::ResultMessage fin;
  fin.qid = dr->qid;
  fin.count_only = true;
  fin.weight = dr->weight;
  fin.msg_seq = 8;
  ASSERT_TRUE(driver->send(0, wire::Message(fin)).ok());

  bool got_reply = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto e = driver->recv(Duration(500'000));
    if (!e.has_value()) continue;
    if (auto* reply = std::get_if<wire::ClientReply>(&e->message)) {
      EXPECT_TRUE(reply->ok) << reply->error;
      EXPECT_EQ(reply->total_count, 6u);  // 1 local + 5 ours, NOT 11
      EXPECT_FALSE(reply->partial);
      EXPECT_EQ(reply->dropped_items, 0u);
      got_reply = true;
      break;
    }
  }
  EXPECT_TRUE(got_reply) << "no ClientReply within deadline";
  server.stop();
}

/// The next message the driver receives within `timeout`, if any.
std::optional<wire::Message> next_message(MessageEndpoint& driver,
                                          Duration timeout) {
  auto env = driver.recv(timeout);
  if (!env.has_value()) return std::nullopt;
  return std::move(env->message);
}

TEST(SiteServerProtocol, BatchDerefRequestIsIgnored) {
  // Batched dereferences exist only in the simulator (ablation A5): a site
  // that receives one creates no context and answers nothing.
  InProcNetwork net(2);
  SiteStore store(0);
  const ObjectId id = store.allocate();
  store.put(Object(id, {Tuple::keyword("hit")}));
  SiteServer server(net.endpoint(0), std::move(store));
  server.start();
  auto driver = net.endpoint(1);
  const Query q = parse_or_die(R"(S (keyword, "hit", ?) -> T)");

  wire::BatchDerefRequest bd;
  bd.qid = {1, 1};
  bd.query = q;
  wire::DerefEntry entry;
  entry.oid = id;
  bd.items.push_back(entry);
  bd.weight = {1};
  bd.msg_seq = 1;
  ASSERT_TRUE(driver->send(0, wire::Message(bd)).ok());

  // A deref behind it on the same link: once its answer is back, the batch
  // has been handled.
  wire::DerefRequest dr;
  dr.qid = {1, 2};
  dr.query = q;
  dr.oid = id;
  dr.weight = {1};
  dr.msg_seq = 2;
  ASSERT_TRUE(driver->send(0, dr).ok());
  auto reply = next_message(*driver, Duration(5'000'000));
  ASSERT_TRUE(reply.has_value());
  const auto* rm = std::get_if<wire::ResultMessage>(&*reply);
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->qid, (wire::QueryId{1, 2})) << "the batch was answered";

  // The deref's context is the only one: its QueryDone leaves none.
  ASSERT_TRUE(driver->send(0, wire::QueryDone{{1, 2}}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.context_count() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the batch left a context behind";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(next_message(*driver, Duration(100'000)).has_value());
  server.stop();
}

TEST(SiteServerProtocol, SpuriousTermAckNeitherUnderflowsNorDetaches) {
  // Dijkstra-Scholten: an ack that reaches a participant at zero deficit
  // (a stray frame with a fresh msg_seq) is ignored. Wrapping the deficit
  // around would let the next result message bring it back to zero and
  // detach the site before that result is acknowledged.
  InProcNetwork net(2);
  SiteStore store(0);
  const ObjectId id = store.allocate();
  store.put(Object(id, {Tuple::keyword("hit")}));
  SiteServerOptions options;
  options.termination = TerminationAlgorithm::kDijkstraScholten;
  SiteServer server(net.endpoint(0), std::move(store), options);
  server.start();
  auto driver = net.endpoint(1);  // plays the originator, site 1
  const wire::QueryId qid{1, 1};

  auto expect_next = [&](std::size_t variant, const char* what) {
    auto m = next_message(*driver, Duration(5'000'000));
    ASSERT_TRUE(m.has_value()) << "no " << what;
    EXPECT_EQ(m->index(), variant) << "expected " << what;
  };
  const std::size_t kResult = wire::Message(wire::ResultMessage{}).index();
  const std::size_t kAck = wire::Message(wire::TermAck{}).index();

  wire::DerefRequest dr;
  dr.qid = qid;
  dr.query = parse_or_die(R"(S (keyword, "hit", ?) -> T)");
  dr.oid = id;
  dr.msg_seq = 1;
  ASSERT_TRUE(driver->send(0, dr).ok());
  expect_next(kResult, "result for the engaging deref");
  ASSERT_TRUE(driver->send(0, wire::TermAck{qid, 2}).ok());
  expect_next(kAck, "detach ack once the result is acknowledged");

  ASSERT_TRUE(driver->send(0, wire::TermAck{qid, 3}).ok());  // spurious
  EXPECT_FALSE(next_message(*driver, Duration(200'000)).has_value())
      << "a spurious ack was answered";

  dr.msg_seq = 4;
  ASSERT_TRUE(driver->send(0, dr).ok());
  expect_next(kResult, "result for the re-engaging deref");
  EXPECT_FALSE(next_message(*driver, Duration(300'000)).has_value())
      << "detached before its result was acknowledged";
  ASSERT_TRUE(driver->send(0, wire::TermAck{qid, 5}).ok());
  expect_next(kAck, "detach ack after the second result");
  server.stop();
}

/// A site-0 store of `n` objects carrying keyword "hit", plus their ids.
std::pair<SiteStore, std::vector<ObjectId>> hit_store(std::size_t n) {
  SiteStore store(0);
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(store.allocate());
    store.put(Object(ids.back(), {Tuple::keyword("hit")}));
  }
  return {std::move(store), std::move(ids)};
}

/// One DerefRequest per id for query `qid`, sent by `from` to site 0
/// with msg_seq first_seq, first_seq + 1, ... and weight 2^-(i+2) each;
/// returns the weight sent in total.
Weight send_derefs(MessageEndpoint& from, const wire::QueryId& qid,
                   const std::vector<ObjectId>& ids, std::uint64_t first_seq) {
  Weight sent = Weight::zero();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    wire::DerefRequest dr;
    dr.qid = qid;
    dr.query = parse_or_die(R"(S (keyword, "hit", ?) -> T)");
    dr.oid = ids[i];
    dr.weight = {static_cast<std::uint32_t>(i + 2)};
    sent.add(Weight::from_exponents(dr.weight));
    dr.msg_seq = first_seq + i;
    EXPECT_TRUE(from.send(0, dr).ok());
  }
  return sent;
}

TEST(SiteServerProtocol, QueuedDerefsAnswerWithOneResultMessage) {
  // Derefs already queued when the loop turns are one inbox burst: the
  // participant drains once and answers with one ResultMessage carrying
  // every id and the sum of the derefs' weights.
  InProcNetwork net(2);
  auto [store, ids] = hit_store(8);
  SiteServer server(net.endpoint(0), std::move(store));
  auto peer = net.endpoint(1);
  const wire::QueryId qid{1, 1};
  const Weight sent = send_derefs(*peer, qid, ids, 1);
  server.start();

  auto m = next_message(*peer, Duration(5'000'000));
  ASSERT_TRUE(m.has_value());
  const auto* rm = std::get_if<wire::ResultMessage>(&*m);
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->qid, qid);
  EXPECT_EQ(sorted(rm->ids), sorted(ids));
  EXPECT_TRUE(Weight::from_exponents(rm->weight) == sent)
      << "the result did not carry every deref's weight";
  EXPECT_FALSE(next_message(*peer, Duration(300'000)).has_value())
      << "more than one message for one burst";
  server.stop();
}

TEST(SiteServerProtocol, QueuedDerefsUnderDijkstraScholtenBalanceAcks) {
  // The same burst under Dijkstra-Scholten: the first deref engages the
  // site, the others are acked at once, and the one ResultMessage is the
  // site's only tree message. Once it is acked, the detach ack makes the
  // acks the peer received equal the derefs it sent.
  InProcNetwork net(2);
  auto [store, ids] = hit_store(6);
  SiteServerOptions options;
  options.termination = TerminationAlgorithm::kDijkstraScholten;
  SiteServer server(net.endpoint(0), std::move(store), options);
  auto peer = net.endpoint(1);
  const wire::QueryId qid{1, 1};
  send_derefs(*peer, qid, ids, 1);
  server.start();

  std::size_t acks = 0;
  std::optional<wire::Message> m;
  for (;;) {
    m = next_message(*peer, Duration(5'000'000));
    ASSERT_TRUE(m.has_value()) << "no ResultMessage";
    if (!std::holds_alternative<wire::TermAck>(*m)) break;
    ++acks;
  }
  const auto* rm = std::get_if<wire::ResultMessage>(&*m);
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(sorted(rm->ids), sorted(ids));
  EXPECT_EQ(acks, ids.size() - 1) << "non-engaging derefs are acked at once";
  ASSERT_TRUE(peer->send(0, wire::TermAck{qid, ids.size() + 1}).ok());
  auto detach = next_message(*peer, Duration(5'000'000));
  ASSERT_TRUE(detach.has_value());
  EXPECT_TRUE(std::holds_alternative<wire::TermAck>(*detach));
  ++acks;
  EXPECT_EQ(acks, ids.size()) << "acks must balance the derefs sent";
  EXPECT_FALSE(next_message(*peer, Duration(300'000)).has_value())
      << "a second result or a stray ack";
  server.stop();
}

TEST(SiteServerProtocol, QueryDoneMidBurstDiscardsWithoutFlushing) {
  // A QueryDone that lands after a context's derefs but within the same
  // burst discards the context before it drains: no result goes out for
  // it. A later query in the burst is answered as usual.
  InProcNetwork net(2);
  auto [store, ids] = hit_store(3);
  SiteServer server(net.endpoint(0), std::move(store));
  auto peer = net.endpoint(1);
  const wire::QueryId done{1, 1};
  const wire::QueryId live{1, 2};
  send_derefs(*peer, done, ids, 1);
  ASSERT_TRUE(peer->send(0, wire::QueryDone{done}).ok());
  send_derefs(*peer, live, {ids[0]}, 10);
  server.start();

  auto m = next_message(*peer, Duration(5'000'000));
  ASSERT_TRUE(m.has_value());
  const auto* rm = std::get_if<wire::ResultMessage>(&*m);
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->qid, live) << "the discarded context flushed a result";
  EXPECT_FALSE(next_message(*peer, Duration(300'000)).has_value())
      << "a stray message after the live query's result";
  server.stop();
}

TEST(SiteServerProtocol, OriginatorDoesNotFinishWithItemsUndrained) {
  // At the originator, a ResultMessage handled in the same burst as the
  // ClientRequest finds the seeded items admitted but undrained, and all
  // weight still home. The query must not finish there: the reply has to
  // carry the local hit, found only once the burst's drain runs.
  InProcNetwork net(3);  // site 0 server, site 1 participant, site 2 client
  SiteStore store(0);
  const ObjectId local = store.allocate();
  Object obj(local);
  obj.add(Tuple::pointer("Reference", ObjectId(1, 1)));
  obj.add(Tuple::keyword("hit"));
  store.put(std::move(obj));
  store.create_set("S", std::span<const ObjectId>(&local, 1));
  SiteServer server(net.endpoint(0), std::move(store));
  auto peer = net.endpoint(1);
  auto client = net.endpoint(2);

  wire::ClientRequest cr;
  cr.client_seq = 1;
  cr.query = parse_or_die(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) -> T)");
  ASSERT_TRUE(client->send(0, cr).ok());
  const wire::QueryId qid{0, 1};  // the server's first query
  wire::ResultMessage early;
  early.qid = qid;
  early.msg_seq = 1;
  ASSERT_TRUE(peer->send(0, wire::Message(early)).ok());
  server.start();

  // The drain chases the remote pointer to us, so the query is still open.
  auto m = next_message(*peer, Duration(5'000'000));
  ASSERT_TRUE(m.has_value());
  const auto* dr = std::get_if<wire::DerefRequest>(&*m);
  ASSERT_NE(dr, nullptr);
  EXPECT_FALSE(next_message(*client, Duration(100'000)).has_value())
      << "the originator replied before its own items drained";

  wire::ResultMessage fin;
  fin.qid = qid;
  fin.weight = dr->weight;
  fin.msg_seq = 2;
  ASSERT_TRUE(peer->send(0, wire::Message(fin)).ok());
  auto reply = next_message(*client, Duration(5'000'000));
  ASSERT_TRUE(reply.has_value());
  const auto* cre = std::get_if<wire::ClientReply>(&*reply);
  ASSERT_NE(cre, nullptr);
  EXPECT_TRUE(cre->ok) << cre->error;
  EXPECT_EQ(cre->ids, std::vector<ObjectId>{local});
  EXPECT_FALSE(cre->partial);
  server.stop();
}

/// Passes every frame through, recording when its site pings `watch`.
class PingRecorder : public MessageEndpoint {
 public:
  PingRecorder(std::unique_ptr<MessageEndpoint> inner, SiteId watch)
      : inner_(std::move(inner)), watch_(watch) {}

  SiteId self() const override { return inner_->self(); }
  Result<void> send(SiteId to, wire::Message message) override {
    if (to == watch_ && std::holds_alternative<wire::PingMessage>(message)) {
      MutexLock lock(mu_);
      pings_.push_back(std::chrono::steady_clock::now());
    }
    return inner_->send(to, std::move(message));
  }
  std::optional<wire::Envelope> recv(Duration timeout) override {
    return inner_->recv(timeout);
  }
  void wake_recv() override { inner_->wake_recv(); }

  std::vector<std::chrono::steady_clock::time_point> pings() const {
    MutexLock lock(mu_);
    return pings_;
  }

 private:
  std::unique_ptr<MessageEndpoint> inner_;
  const SiteId watch_;
  mutable Mutex mu_;
  std::vector<std::chrono::steady_clock::time_point> pings_
      HF_GUARDED_BY(mu_);
};

TEST(SiteServerProtocol, SuspectPingedEveryProbePeriod) {
  // A suspect is re-pinged every probe period (suspect_after / 3): its
  // reply is what revives it when the transport cannot report it
  // reachable. A pass cadence of suspect_after / 4 rounded the period up
  // to two passes — 150 ms here instead of 100 ms.
  InProcNetwork net(3);
  SiteStore store(0);
  const ObjectId local = store.allocate();
  Object obj(local);
  obj.add(Tuple::pointer("Reference", ObjectId(2, 1)));
  store.put(std::move(obj));
  store.create_set("S", std::span<const ObjectId>(&local, 1));

  SiteServerOptions options;
  options.suspect_after = Duration(300'000);
  auto recorder = std::make_unique<PingRecorder>(net.endpoint(0), 2);
  const PingRecorder& recorded = *recorder;
  SiteServer server(std::move(recorder), std::move(store), options);
  net.close_endpoint(2);  // site 2 is dead: sends to it fail loudly
  server.start();

  // The query's deref to site 2 fails, which makes site 2 a suspect.
  auto client = net.endpoint(1);
  wire::ClientRequest cr;
  cr.client_seq = 1;
  cr.query = parse_or_die(R"(S [ (pointer, "Reference", ?X) | ^^X ]* -> T)");
  ASSERT_TRUE(client->send(0, cr).ok());
  auto reply = next_message(*client, Duration(5'000'000));
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(std::holds_alternative<wire::ClientReply>(*reply));

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto from = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  const auto to = std::chrono::steady_clock::now();
  server.stop();

  std::vector<double> gaps_ms;
  std::optional<std::chrono::steady_clock::time_point> last;
  for (const auto& t : recorded.pings()) {
    if (t < from || t > to) continue;
    if (last.has_value()) {
      gaps_ms.push_back(
          std::chrono::duration<double, std::milli>(t - *last).count());
    }
    last = t;
  }
  ASSERT_GE(gaps_ms.size(), 5u) << "the suspect was not pinged";
  std::sort(gaps_ms.begin(), gaps_ms.end());
  const double median = gaps_ms[gaps_ms.size() / 2];
  EXPECT_GE(median, 95.0) << "pinged more often than the probe period";
  EXPECT_LE(median, 125.0) << "probe period 100 ms, measured " << median;
}

TEST(SiteServerProtocol, StrandedParticipantContextExpiresViaTtl) {
  // Regression: a participant context whose QueryDone is lost must not live
  // forever — the TTL sweep discards it ("self-healing", DESIGN.md §11).
  InProcNetwork net(2);
  SiteStore store(0);
  const ObjectId id = store.allocate();
  store.put(Object(id, {Tuple::keyword("hit")}));

  SiteServerOptions options;
  options.context_ttl = Duration(500'000);  // 500ms: fast expiry for the test
  SiteServer server(net.endpoint(0), std::move(store), options);
  server.start();
  auto driver = net.endpoint(1);

  // A deref from a pretend originator at site 1 installs a context.
  wire::DerefRequest dr;
  dr.qid = {1, 1};
  dr.query = parse_or_die(R"(S (keyword, "hit", ?) -> T)");
  dr.oid = id;
  dr.weight = {1};  // half the originator's weight
  dr.msg_seq = 1;
  ASSERT_TRUE(driver->send(0, dr).ok());

  // The drain answers with results + weight...
  auto env = driver->recv(Duration(5'000'000));
  ASSERT_TRUE(env.has_value());
  ASSERT_NE(std::get_if<wire::ResultMessage>(&env->message), nullptr);
  // The reply is observable before the loop tick that refreshes the
  // context_count() cache finishes, so poll for the context to appear.
  const auto seen =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.context_count() != 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), seen)
        << "participant context never installed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...but we never send QueryDone. The sweep must reap the context anyway.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.context_count() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stranded context never expired";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.stop();
}

TEST(SiteServerProtocol, OutOfRangeEntryFilterNeverReachesTheEngine) {
  // Regression: a deref entering at filter 0 indexed filters_[-1] and
  // crashed the receiving site; one entering past n + 1 skipped every
  // filter and returned a non-matching object as a result. Both frames are
  // rejected at decode, and the site keeps answering valid derefs.
  InProcNetwork net(2);
  SiteStore store(0);
  const ObjectId hit = store.allocate();
  const ObjectId miss = store.allocate();
  store.put(Object(hit, {Tuple::keyword("hit")}));
  store.put(Object(miss, {Tuple::keyword("other")}));

  SiteServer server(net.endpoint(0), std::move(store));
  server.start();
  auto driver = net.endpoint(1);

  wire::DerefRequest dr;
  dr.query = parse_or_die(R"(S (keyword, "hit", ?) -> T)");
  dr.weight = {1};
  for (const auto& [seq, oid, start] :
       {std::tuple{1u, hit, 0u}, std::tuple{2u, miss, 7u}}) {
    dr.qid = {1, seq};
    dr.oid = oid;
    dr.start = start;
    dr.msg_seq = seq;
    EXPECT_FALSE(driver->send(0, dr).ok()) << "start " << start;
  }

  dr.qid = {1, 3};
  dr.oid = hit;
  dr.start = 1;
  dr.msg_seq = 3;
  ASSERT_TRUE(driver->send(0, dr).ok());

  bool answered = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!answered && std::chrono::steady_clock::now() < deadline) {
    auto env = driver->recv(Duration(500'000));
    if (!env.has_value()) continue;
    const auto* rm = std::get_if<wire::ResultMessage>(&env->message);
    if (rm == nullptr) continue;
    EXPECT_EQ(rm->qid, (wire::QueryId{1, 3})) << "rejected deref answered";
    EXPECT_EQ(rm->ids, std::vector<ObjectId>{hit});
    answered = rm->qid == wire::QueryId{1, 3};
  }
  EXPECT_TRUE(answered) << "valid deref not answered";
  server.stop();
}

TEST(SiteServerProtocol, SummaryAdvertDedupAndMalformedRecordRejection) {
  // Three REVIEW-driven contracts of the advert path, driven byte-for-byte:
  //  1. the (epoch, seq) high-water dedup suppresses duplicated and
  //     reordered adverts but passes a restarted sender's fresh adverts
  //     (seq counter back at 1, epoch higher) immediately;
  //  2. a malformed record (absurd hash_count would turn every Bloom probe
  //     on the route_remote hot path into a multi-billion-iteration loop)
  //     is rejected at install and revokes the origin's cached authority;
  //  3. installs are counted so both behaviors are observable.
  InProcNetwork net(2);
  SiteStore store(0);
  SiteServerOptions options;
  options.summary_interval = Duration(50'000);  // exchange enabled, no peers
  SiteServer server(net.endpoint(0), std::move(store), options);
  server.start();
  auto driver = net.endpoint(1);

  auto advert = [](std::uint64_t epoch, std::uint64_t version,
                   std::uint64_t seq) {
    wire::SummaryRecord rec;
    rec.origin = 1;
    rec.epoch = epoch;
    rec.version = version;
    rec.hash_count = 7;
    rec.entries = 3;
    rec.bits.assign(32, 0xff);
    wire::SummaryMessage sm;
    sm.records.push_back(std::move(rec));
    sm.msg_seq = seq;
    return sm;
  };
  auto installs = [] {
    return metrics().counter("dist.summary_installs").value();
  };
  auto wait_count = [&](std::size_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.summary_count() != want) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "summary_count never reached " << want;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // A first advert installs.
  const std::uint64_t base_installs = installs();
  ASSERT_TRUE(driver->send(0, wire::Message(advert(1, 1, 5))).ok());
  wait_count(1);
  EXPECT_EQ(installs(), base_installs + 1);

  // A duplicate (same seq) and a reordered older advert (lower seq, higher
  // version) are both suppressed before any install side effect.
  ASSERT_TRUE(driver->send(0, wire::Message(advert(1, 1, 5))).ok());
  ASSERT_TRUE(driver->send(0, wire::Message(advert(1, 2, 4))).ok());
  // A fresh advert behind them proves the suppressed ones were processed.
  ASSERT_TRUE(driver->send(0, wire::Message(advert(1, 2, 6))).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (installs() != base_installs + 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "follow-up advert never installed";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Restart simulation: epoch up, seq back at 1. Must NOT be suppressed —
  // a restarted site whose adverts were deduped against its pre-crash seq
  // range would leave stale gossiped records of it in authority.
  ASSERT_TRUE(driver->send(0, wire::Message(advert(3, 1, 1))).ok());
  while (installs() != base_installs + 3) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "post-restart advert was suppressed by the pre-crash high water";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Malformed record: hostile hash_count. Rejected, and the origin's
  // cached summary is revoked (conservative never-prune fallback).
  wire::SummaryMessage evil = advert(3, 9, 2);
  evil.records[0].hash_count = 0xFFFFFFFFu;
  const std::uint64_t rejects_before =
      metrics().counter("dist.summary_rejects").value();
  ASSERT_TRUE(driver->send(0, wire::Message(std::move(evil))).ok());
  wait_count(0);
  EXPECT_EQ(metrics().counter("dist.summary_rejects").value(),
            rejects_before + 1);
  EXPECT_EQ(installs(), base_installs + 3);
  server.stop();
}

TEST(Cluster, EngineStatsAggregateAcrossSites) {
  Cluster cluster(3);
  populate_cross_site_chain(cluster, 30);
  cluster.start();
  ASSERT_TRUE(cluster.client().run(parse_or_die(kClosure)).ok());
  cluster.stop();  // folds remaining stats
  auto stats = cluster.engine_stats();
  EXPECT_EQ(stats.processed, 30u);
  EXPECT_EQ(stats.results, 10u);
}

}  // namespace
}  // namespace hyperfile
