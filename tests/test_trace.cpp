// Per-query distributed tracing (common/trace.hpp): span merge semantics,
// and the end-to-end contract — a query over a >=3-site pointer chain comes
// back with one span per engaged site whose first_hop/path reconstruct the
// fan-out, on both transports, and duplicate-suppressed redeliveries never
// double-record (span counters are cumulative + merged by max, so the
// whole pipeline is idempotent).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/trace.hpp"
#include "dist/client.hpp"
#include "dist/cluster.hpp"
#include "dist/site_server.hpp"
#include "net/faulty.hpp"
#include "net/epoll.hpp"
#include "test_helpers.hpp"

namespace hyperfile {
namespace {

using testing::parse_or_die;
using testing::sorted;

const char* kClosure =
    R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) -> T)";

// --- merge semantics ----------------------------------------------------

TraceSpan sample_span() {
  TraceSpan s;
  s.site = 2;
  s.first_hop = 3;
  s.path = {0, 1, 2};
  s.messages = 4;
  s.duplicates = 1;
  s.items = 7;
  s.forwarded = 5;
  s.results = 2;
  s.drains = 3;
  s.drain_us = 1500;
  s.retries = 1;
  return s;
}

TEST(TraceMerge, IsIdempotent) {
  const TraceSpan s = sample_span();
  TraceSpan once;
  merge_into(once, s);
  TraceSpan twice = once;
  merge_into(twice, s);  // a redelivered summary must change nothing
  EXPECT_EQ(once, s);
  EXPECT_EQ(twice, s);
}

TEST(TraceMerge, KeepsEarliestEngagementAndMaxCounters) {
  TraceSpan late = sample_span();
  TraceSpan early = sample_span();
  early.first_hop = 1;
  early.path = {0, 2};
  early.items = 2;  // an older, smaller snapshot of the cumulative counters

  TraceSpan merged;
  merge_into(merged, late);
  merge_into(merged, early);
  EXPECT_EQ(merged.first_hop, 1u);            // min wins
  EXPECT_EQ(merged.path, early.path);         // path follows the first hop
  EXPECT_EQ(merged.items, late.items);        // counters: max (newest) wins
  EXPECT_EQ(merged.messages, late.messages);
}

TEST(TraceText, RendersOneLinePerSpan) {
  QueryTrace t;
  t.query_id = "0:7";
  t.elapsed_us = 1234;
  t.spans = {sample_span()};
  const std::string text = t.to_text();
  EXPECT_NE(text.find("trace 0:7 elapsed 1234us"), std::string::npos);
  EXPECT_NE(text.find("site 2 hop 3 path [0->1->2]"), std::string::npos);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"path\": [0, 1, 2]"), std::string::npos);
  EXPECT_NE(json.find("\"items\": 7"), std::string::npos);
}

// --- end to end ---------------------------------------------------------

/// obj0(site0) -> obj1(site1) -> obj2(site2, self-loop), "hit" on all
/// three: the query engages the sites strictly in chain order, so the
/// expected hop path of each span is exact.
std::vector<ObjectId> populate_linear(std::vector<SiteStore*> stores) {
  std::vector<ObjectId> ids;
  for (auto* s : stores) ids.push_back(s->allocate());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Object obj(ids[i]);
    obj.add(Tuple::pointer("Reference",
                           i + 1 < ids.size() ? ids[i + 1] : ids[i]));
    obj.add(Tuple::keyword("hit"));
    stores[i]->put(std::move(obj));
  }
  stores[0]->create_set("S", std::span<const ObjectId>(ids.data(), 1));
  return ids;
}

void check_linear_trace(const QueryTrace& trace) {
  EXPECT_FALSE(trace.query_id.empty());
  EXPECT_GT(trace.elapsed_us, 0u);
  ASSERT_EQ(trace.spans.size(), 3u) << trace.to_text();
  for (SiteId s = 0; s < 3; ++s) {
    const TraceSpan& span = trace.spans[s];  // maybe_finish sorts by site
    EXPECT_EQ(span.site, s);
    EXPECT_EQ(span.first_hop, s) << trace.to_text();
    std::vector<SiteId> want_path(s + 1);
    std::iota(want_path.begin(), want_path.end(), SiteId{0});
    EXPECT_EQ(span.path, want_path) << trace.to_text();
    EXPECT_GE(span.messages, 1u);
    EXPECT_GE(span.drains, 1u);
    EXPECT_EQ(span.results, 1u);  // each site holds exactly one "hit"
  }
  // Sites 1 and 2 each received their one object as a computation message;
  // site 0's object was seeded locally by the client request.
  EXPECT_EQ(trace.spans[0].items, 0u);
  EXPECT_EQ(trace.spans[1].items, 1u);
  EXPECT_EQ(trace.spans[2].items, 1u);
  EXPECT_GE(trace.spans[0].forwarded, 1u);
  EXPECT_GE(trace.spans[1].forwarded, 1u);
}

TEST(TraceEndToEnd, InProcChainReportsHopPathPerSite) {
  Cluster cluster(3);
  populate_linear({&cluster.store(0), &cluster.store(1), &cluster.store(2)});
  cluster.start();
  auto r = cluster.client().run(parse_or_die(kClosure), Duration(30'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().ids.size(), 3u);
  check_linear_trace(r.value().trace);
  cluster.stop();
}

std::uint64_t total(const QueryTrace& t, std::uint64_t TraceSpan::*field) {
  std::uint64_t sum = 0;
  for (const TraceSpan& s : t.spans) sum += s.*field;
  return sum;
}

/// 30-object chain round-robin over 3 sites, once on a clean network and
/// once under dup_p = 0.5: the span item counts must be identical — the
/// msg_seq dedup layer swallows every duplicated frame before it reaches
/// the engine, and the duplicates land in `span.duplicates` instead.
TEST(TraceEndToEnd, DuplicateRedeliveryNeverDoubleRecords) {
  auto run_chain = [](double dup_p) {
    Cluster cluster(
        3, SiteServerOptions{}, /*clients=*/1,
        [dup_p](SiteId site, std::unique_ptr<MessageEndpoint> inner)
            -> std::unique_ptr<MessageEndpoint> {
          if (dup_p == 0) return inner;
          FaultOptions o;
          o.dup_p = dup_p;
          o.seed = 500 + site;
          o.exempt.push_back(3);  // client link stays reliable
          return std::make_unique<FaultInjectingEndpoint>(std::move(inner), o);
        });
    std::vector<ObjectId> ids;
    for (std::size_t i = 0; i < 30; ++i) {
      ids.push_back(cluster.store(i % 3).allocate());
    }
    for (std::size_t i = 0; i < 30; ++i) {
      Object obj(ids[i]);
      obj.add(Tuple::pointer("Reference", i + 1 < 30 ? ids[i + 1] : ids[i]));
      if (i % 3 == 0) obj.add(Tuple::keyword("hit"));
      cluster.store(i % 3).put(std::move(obj));
    }
    cluster.store(0).create_set("S", std::span<const ObjectId>(ids.data(), 1));
    cluster.start();
    auto r = cluster.client().run(parse_or_die(kClosure), Duration(30'000'000));
    cluster.stop();
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value() : QueryResult{};
  };

  const QueryResult clean = run_chain(0);
  const QueryResult noisy = run_chain(0.5);
  EXPECT_EQ(sorted(noisy.ids), sorted(clean.ids));
  EXPECT_FALSE(noisy.partial);
  // Same work reached the engines despite every frame risking duplication.
  EXPECT_EQ(total(noisy.trace, &TraceSpan::items),
            total(clean.trace, &TraceSpan::items));
  EXPECT_EQ(total(clean.trace, &TraceSpan::duplicates), 0u);
  EXPECT_GT(total(noisy.trace, &TraceSpan::duplicates), 0u)
      << "dup_p=0.5 injected no duplicates: fault wiring broken";
}

TEST(TraceEndToEnd, TcpChainReportsHopPathPerSite) {
  constexpr SiteId kSites = 3;
  std::vector<TcpPeer> zeros(kSites + 1, TcpPeer{"127.0.0.1", 0});
  std::vector<std::unique_ptr<EpollNetwork>> nets;
  for (SiteId s = 0; s <= kSites; ++s) {
    auto net = EpollNetwork::create(s, zeros);
    if (!net.ok()) GTEST_SKIP() << "no localhost sockets";
    nets.push_back(std::move(net).value());
  }
  for (auto& net : nets) {
    for (SiteId peer = 0; peer <= kSites; ++peer) {
      net->update_peer(peer, {"127.0.0.1", nets[peer]->bound_port()});
    }
  }

  std::vector<SiteStore> stores;
  for (SiteId s = 0; s < kSites; ++s) stores.emplace_back(s);
  populate_linear({&stores[0], &stores[1], &stores[2]});

  std::vector<std::unique_ptr<SiteServer>> servers;
  for (SiteId s = 0; s < kSites; ++s) {
    servers.push_back(std::make_unique<SiteServer>(
        std::move(nets[s]), std::move(stores[s]), SiteServerOptions{}));
    servers.back()->start();
  }
  Client client(std::move(nets[kSites]), 0);
  auto r = client.run(parse_or_die(kClosure), Duration(30'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().ids.size(), 3u);
  check_linear_trace(r.value().trace);
  for (auto& s : servers) s->stop();
}

}  // namespace
}  // namespace hyperfile
