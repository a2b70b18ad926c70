// End-to-end distributed queries over real TCP sockets on localhost: the
// same SiteServer as the in-process cluster, different transport. Skipped
// gracefully where localhost sockets are unavailable.
#include <gtest/gtest.h>

#include <memory>

#include "dist/client.hpp"
#include "dist/site_server.hpp"
#include "net/epoll.hpp"
#include "test_helpers.hpp"

namespace hyperfile {
namespace {

using testing::parse_or_die;
using testing::sorted;

struct TcpDeployment {
  std::vector<std::unique_ptr<SiteServer>> servers;
  std::unique_ptr<Client> client;
  bool ok = false;

  explicit TcpDeployment(SiteId sites) {
    std::vector<TcpPeer> zeros(sites + 1, TcpPeer{"127.0.0.1", 0});
    std::vector<std::unique_ptr<EpollNetwork>> nets;
    for (SiteId s = 0; s <= sites; ++s) {
      auto net = EpollNetwork::create(s, zeros);
      if (!net.ok()) return;  // no sockets in this environment
      nets.push_back(std::move(net).value());
    }
    for (auto& net : nets) {
      for (SiteId peer = 0; peer <= sites; ++peer) {
        net->update_peer(peer, {"127.0.0.1", nets[peer]->bound_port()});
      }
    }

    std::vector<SiteStore> stores;
    for (SiteId s = 0; s < sites; ++s) stores.emplace_back(s);
    // Cross-site chain with keywords at every third object.
    std::vector<ObjectId> ids;
    for (std::size_t i = 0; i < 12; ++i) {
      ids.push_back(stores[i % sites].allocate());
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Object obj(ids[i]);
      obj.add(Tuple::pointer("Next", i + 1 < ids.size() ? ids[i + 1] : ids[i]));
      if (i % 3 == 0) obj.add(Tuple::keyword("hit"));
      stores[i % sites].put(std::move(obj));
    }
    stores[0].create_set("S", std::span<const ObjectId>(ids.data(), 1));
    expected = {ids[0], ids[3], ids[6], ids[9]};

    for (SiteId s = 0; s < sites; ++s) {
      servers.push_back(std::make_unique<SiteServer>(std::move(nets[s]),
                                                     std::move(stores[s])));
      servers.back()->start();
    }
    client = std::make_unique<Client>(std::move(nets[sites]), 0);
    ok = true;
  }

  ~TcpDeployment() {
    for (auto& s : servers) s->stop();
  }

  std::vector<ObjectId> expected;
};

TEST(TcpDist, ClosureOverSockets) {
  TcpDeployment d(3);
  if (!d.ok) GTEST_SKIP() << "no localhost sockets";
  auto r = d.client->run(
      parse_or_die(
          R"(S [ (pointer, "Next", ?X) | ^^X ]* (keyword, "hit", ?) -> T)"),
      Duration(15'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(sorted(r.value().ids), sorted(d.expected));
}

TEST(TcpDist, SequentialQueriesReuseConnections) {
  TcpDeployment d(3);
  if (!d.ok) GTEST_SKIP() << "no localhost sockets";
  Query q = parse_or_die(
      R"(S [ (pointer, "Next", ?X) | ^^X ]* (keyword, "hit", ?) -> T)");
  for (int i = 0; i < 5; ++i) {
    auto r = d.client->run(q, Duration(15'000'000));
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": " << r.error().to_string();
    EXPECT_EQ(r.value().ids.size(), 4u);
  }
}

TEST(TcpDist, RetrievalAndCountOnlyOverSockets) {
  TcpDeployment d(3);
  if (!d.ok) GTEST_SKIP() << "no localhost sockets";
  auto r = d.client->run(
      parse_or_die(
          R"(S [ (pointer, "Next", ?X) | ^^X ]* (keyword, "hit", ?) count -> D)"),
      Duration(15'000'000));
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(r.value().count_only);
  EXPECT_EQ(r.value().total_count, 4u);

  auto r2 = d.client->run(parse_or_die(R"(D (keyword, "hit", ?) -> U)"),
                          Duration(15'000'000));
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(sorted(r2.value().ids), sorted(d.expected));
}

}  // namespace
}  // namespace hyperfile
