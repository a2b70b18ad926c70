// A real multi-process-shaped deployment: three HyperFile SiteServers and a
// client, each on its own TCP endpoint on localhost (the 1991 prototype ran
// "distributed over a network of IBM PC/RTs connected by an ethernet;
// UDP and TCP/IP are used for inter-process communication").
//
// Everything crosses genuine sockets with length-prefixed wire frames — the
// same SiteServer code as the in-process cluster, different transport.
#include <cstdio>
#include <cstring>
#include <memory>

#include "dist/client.hpp"
#include "dist/site_server.hpp"
#include "net/epoll.hpp"
#include "query/parser.hpp"
#include "workload/paper_workload.hpp"

using namespace hyperfile;

int main() {
  constexpr std::size_t kSites = 3;
  constexpr SiteId kClient = kSites;

  // Bind everyone on ephemeral ports, then exchange the real addresses
  // (in a real deployment this is the static site configuration).
  std::vector<TcpPeer> zeros(kSites + 1, TcpPeer{"127.0.0.1", 0});
  std::vector<std::unique_ptr<EpollNetwork>> nets;
  for (SiteId s = 0; s <= kSites; ++s) {
    auto net = EpollNetwork::create(s, zeros);
    if (!net.ok()) {
      std::printf("cannot create TCP endpoint: %s\n",
                  net.error().to_string().c_str());
      return 1;
    }
    nets.push_back(std::move(net).value());
  }
  for (auto& net : nets) {
    for (SiteId peer = 0; peer <= kSites; ++peer) {
      net->update_peer(peer, {"127.0.0.1", nets[peer]->bound_port()});
    }
  }
  std::printf("TCP endpoints: ");
  for (SiteId s = 0; s <= kSites; ++s) {
    std::printf("%s%u@127.0.0.1:%u", s != 0 ? ", " : "", s,
                nets[s]->bound_port());
  }
  std::printf("\n");

  // Populate the paper workload across the three server stores.
  std::vector<std::unique_ptr<SiteServer>> servers;
  {
    std::vector<SiteStore> stores;
    for (SiteId s = 0; s < kSites; ++s) stores.emplace_back(s);
    std::vector<SiteStore*> ptrs;
    for (auto& st : stores) ptrs.push_back(&st);
    workload::populate_paper_workload(ptrs, workload::WorkloadConfig{});
    // Each site drains on two shared-memory workers (paper Section 6 inside
    // the distributed runtime); set to 0 for the serial event-loop drain.
    SiteServerOptions options;
    options.drain_workers = 2;
    for (SiteId s = 0; s < kSites; ++s) {
      servers.push_back(std::make_unique<SiteServer>(
          std::move(nets[s]), std::move(stores[s]), options));
    }
    std::printf("parallel drain: %zu workers per site\n",
                options.drain_workers);
  }
  for (auto& server : servers) server->start();

  Client client(std::move(nets[kClient]), /*default_server=*/0);

  auto run = [&](const char* label, const char* text) {
    auto q = parse_query(text);
    if (!q.ok()) return;
    auto r = client.run(q.value(), Duration(15'000'000));
    if (!r.ok()) {
      std::printf("%-58s -> error: %s\n", label, r.error().to_string().c_str());
      return;
    }
    std::printf("%-58s -> %zu results\n", label, r.value().ids.size());
  };

  run("tree closure + Rand10p=5, over real sockets",
      R"(Root [ (pointer, "Tree", ?X) | ^^X ]* (skey, "Rand10p", 5) -> T)");
  run("chain closure (every hop is a TCP message)",
      R"(Root [ (pointer, "Chain", ?X) | ^^X ]* (skey, "Rand10p", 5) -> T2)");
  run("random-pointer closure, 95% local",
      R"(Root [ (pointer, "Rand95", ?X) | ^^X ]* (skey, "Rand100p", [1..20]) -> T3)");

  for (auto& server : servers) server->stop();
  std::printf("servers stopped cleanly.\n");
  return 0;
}
