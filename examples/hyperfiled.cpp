// hyperfiled — a standalone HyperFile site server over TCP.
//
// Together with `hfq` (the query client) this is the deployment shape the
// paper describes: one server per machine, clients anywhere, queries
// chasing pointers between servers.
//
//   usage:
//     hyperfiled init CONFIG DIR [objects]
//         Generate the paper's synthetic workload as per-site snapshots
//         (DIR/site_<i>.hfs), partitioned for the CONFIG's site count
//         (1, 3, or 9 sites).
//     hyperfiled serve SITE_ID CONFIG [SNAPSHOT]
//         Run site SITE_ID, listening on its CONFIG address, serving the
//         snapshot (or an empty store).
//
//   CONFIG: text file, one "host port" line per site (line i = site i).
//
//   demo (three shells + one for the client):
//     $ hyperfiled init cluster.conf /tmp/hf
//     $ hyperfiled serve 0 cluster.conf /tmp/hf/site_0.hfs
//     $ hyperfiled serve 1 cluster.conf /tmp/hf/site_1.hfs
//     $ hyperfiled serve 2 cluster.conf /tmp/hf/site_2.hfs
//     $ hfq cluster.conf 'Root [ (pointer, "Tree", ?X) | ^^X ]* (skey, "Rand10p", 5) -> T'
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "dist/site_server.hpp"
#include "net/epoll.hpp"
#include "store/snapshot.hpp"
#include "workload/paper_workload.hpp"

using namespace hyperfile;

namespace {

Result<std::vector<TcpPeer>> read_config(const std::string& path) {
  std::ifstream file(path);
  if (!file) return make_error(Errc::kIo, "cannot open config " + path);
  std::vector<TcpPeer> peers;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    TcpPeer peer;
    int port = 0;
    if (!(is >> peer.host >> port)) {
      return make_error(Errc::kInvalidArgument, "bad config line: " + line);
    }
    peer.port = static_cast<std::uint16_t>(port);
    peers.push_back(std::move(peer));
  }
  if (peers.empty()) return make_error(Errc::kInvalidArgument, "empty config");
  return peers;
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

int cmd_init(const std::string& config_path, const std::string& dir,
             std::size_t objects) {
  auto peers = read_config(config_path);
  if (!peers.ok()) {
    std::fprintf(stderr, "%s\n", peers.error().to_string().c_str());
    return 1;
  }
  const std::size_t sites = peers.value().size();
  std::vector<SiteStore> stores;
  std::vector<SiteStore*> ptrs;
  for (std::size_t i = 0; i < sites; ++i) stores.emplace_back(static_cast<SiteId>(i));
  for (auto& s : stores) ptrs.push_back(&s);
  workload::WorkloadConfig cfg;
  cfg.num_objects = objects;
  workload::populate_paper_workload(ptrs, cfg);
  for (std::size_t i = 0; i < sites; ++i) {
    const std::string path = dir + "/site_" + std::to_string(i) + ".hfs";
    if (auto r = save_snapshot(stores[i], path); !r.ok()) {
      std::fprintf(stderr, "%s\n", r.error().to_string().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu objects)\n", path.c_str(), stores[i].size());
  }
  return 0;
}

int cmd_serve(SiteId site, const std::string& config_path,
              const std::string& snapshot_path, std::size_t workers,
              const std::string& metrics_json_path, const std::string& wal_dir,
              long checkpoint_secs, long replicate_ring_ms) {
  auto peers = read_config(config_path);
  if (!peers.ok()) {
    std::fprintf(stderr, "%s\n", peers.error().to_string().c_str());
    return 1;
  }
  if (site >= peers.value().size()) {
    std::fprintf(stderr, "site %u not in config (%zu sites)\n", site,
                 peers.value().size());
    return 1;
  }

  SiteStore store(site);
  if (!snapshot_path.empty()) {
    auto loaded = load_snapshot(snapshot_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.error().to_string().c_str());
      return 1;
    }
    if (loaded.value().site() != site) {
      std::fprintf(stderr, "snapshot belongs to site %u, serving as %u\n",
                   loaded.value().site(), site);
      return 1;
    }
    store = std::move(loaded).value();
  }

  auto net = EpollNetwork::create(site, peers.value());
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.error().to_string().c_str());
    return 1;
  }
  std::printf("hyperfiled: site %u on %s:%u, %zu objects, sets:", site,
              peers.value()[site].host.c_str(), net.value()->bound_port(),
              store.size());
  for (const auto& name : store.set_names()) std::printf(" %s", name.c_str());
  std::printf("\n");

  SiteServerOptions options;
  options.drain_workers = workers;
  if (workers > 0) std::printf("parallel drain: %zu workers\n", workers);
  // Durability (DESIGN.md §13): with --wal-dir every acknowledged mutation
  // is logged before the site answers for it, and the server recovers
  // checkpoint + WAL on startup — the snapshot argument only seeds a brand
  // new site.
  options.wal_dir = wal_dir;
  if (checkpoint_secs > 0) {
    options.checkpoint_interval = Duration(checkpoint_secs * 1'000'000);
  }
  if (!wal_dir.empty()) {
    std::printf("durable: wal-dir %s, checkpoint every %lds\n",
                wal_dir.c_str(), checkpoint_secs > 0 ? checkpoint_secs : 0);
  }
  // Hot-standby replication (DESIGN.md §18): every site ships its WAL to
  // the next site in the config's ring, so the same flag on all servers
  // yields one follower per primary and failover routing when one dies.
  if (replicate_ring_ms > 0) {
    if (wal_dir.empty()) {
      std::fprintf(stderr, "--replicate-ring needs --wal-dir (it ships the WAL)\n");
      return 1;
    }
    options.replication_interval = Duration(replicate_ring_ms * 1'000);
    const auto sites = static_cast<SiteId>(peers.value().size());
    for (SiteId s = 0; s < sites; ++s) {
      options.replica_assignment[s] = static_cast<SiteId>((s + 1) % sites);
    }
    std::printf("replicating: WAL to site %u every %ldms\n",
                static_cast<SiteId>((site + 1) % sites), replicate_ring_ms);
  }
  SiteServer server(std::move(net).value(), std::move(store), options);
  server.start();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    ::usleep(200'000);
  }
  std::printf("\nshutting down...\n");
  server.stop();
  auto stats = server.engine_stats();
  std::printf("served: %llu objects processed, %llu results\n",
              static_cast<unsigned long long>(stats.processed),
              static_cast<unsigned long long>(stats.results));
  // Observability dump (DESIGN.md §12): every registry instrument this
  // process touched — drain latencies, retries, TTL events, net counters.
  std::printf("--- metrics ---\n%s", metrics().to_text().c_str());
  if (!metrics_json_path.empty()) {
    std::ofstream mout(metrics_json_path);
    if (mout) {
      mout << metrics().to_json() << "\n";
      std::printf("wrote metrics to %s\n", metrics_json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_json_path.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::string(argv[1]) == "init") {
    const std::size_t objects =
        argc >= 5 ? static_cast<std::size_t>(std::stoul(argv[4])) : 270;
    return cmd_init(argv[2], argv[3], objects);
  }
  if (argc >= 4 && std::string(argv[1]) == "serve") {
    // Trailing options: --workers N enables the parallel site drain;
    // --metrics-json PATH writes the registry dump as JSON at shutdown.
    std::size_t workers = 0;
    std::string snapshot;
    std::string metrics_json;
    std::string wal_dir;
    long checkpoint_secs = 0;
    long replicate_ring_ms = 0;
    for (int i = 4; i < argc; ++i) {
      if (std::string(argv[i]) == "--workers" && i + 1 < argc) {
        char* end = nullptr;
        const char* value = argv[++i];
        workers = static_cast<std::size_t>(std::strtoul(value, &end, 10));
        if (end == value || *end != '\0') {
          std::fprintf(stderr, "--workers expects a number, got '%s'\n", value);
          return 1;
        }
      } else if (std::string(argv[i]) == "--metrics-json" && i + 1 < argc) {
        metrics_json = argv[++i];
      } else if (std::string(argv[i]) == "--wal-dir" && i + 1 < argc) {
        wal_dir = argv[++i];
      } else if (std::string(argv[i]) == "--checkpoint-interval" &&
                 i + 1 < argc) {
        char* end = nullptr;
        const char* value = argv[++i];
        checkpoint_secs = std::strtol(value, &end, 10);
        if (end == value || *end != '\0' || checkpoint_secs < 0) {
          std::fprintf(stderr,
                       "--checkpoint-interval expects seconds, got '%s'\n",
                       value);
          return 1;
        }
      } else if (std::string(argv[i]) == "--replicate-ring" && i + 1 < argc) {
        char* end = nullptr;
        const char* value = argv[++i];
        replicate_ring_ms = std::strtol(value, &end, 10);
        if (end == value || *end != '\0' || replicate_ring_ms <= 0) {
          std::fprintf(stderr,
                       "--replicate-ring expects milliseconds, got '%s'\n",
                       value);
          return 1;
        }
      } else if (snapshot.empty()) {
        snapshot = argv[i];
      }
    }
    return cmd_serve(static_cast<SiteId>(std::stoul(argv[2])), argv[3],
                     snapshot, workers, metrics_json, wal_dir,
                     checkpoint_secs, replicate_ring_ms);
  }
  std::printf(
      "hyperfiled — standalone HyperFile TCP site server\n"
      "  hyperfiled init CONFIG DIR [objects]     generate workload snapshots\n"
      "  hyperfiled serve SITE_ID CONFIG [SNAP] [--workers N]\n"
      "                  [--metrics-json PATH] [--wal-dir DIR]\n"
      "                  [--checkpoint-interval SECS] [--replicate-ring MS]\n"
      "                                           run one site; --workers N\n"
      "                                           drains queries on N threads;\n"
      "                                           --metrics-json dumps the\n"
      "                                           metrics registry at shutdown;\n"
      "                                           --wal-dir makes the site\n"
      "                                           durable (WAL + recovery);\n"
      "                                           --checkpoint-interval takes\n"
      "                                           online checkpoints;\n"
      "                                           --replicate-ring MS ships\n"
      "                                           each site's WAL to the next\n"
      "                                           site every MS milliseconds\n"
      "                                           (hot standby, needs\n"
      "                                           --wal-dir)\n"
      "CONFIG: one \"host port\" line per site. Query with hfq.\n");
  return 0;
}
