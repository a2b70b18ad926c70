// Availability bench: what does WAL-shipped hot-standby replication
// (DESIGN.md §18) buy when a site dies mid-workload? Each cell deploys
// three sites over a real socket transport, streams every site's WAL to
// its ring follower, drives a steady closure-query workload, kills one
// primary with no goodbye, and keeps the workload running through
// suspicion, failover, and revival.
//
// Cells are termination detector × {replicated, control}. The
// control rows (replication off) show the baseline this PR replaces:
// every post-kill query is permanently partial until the primary comes
// back. The replicated rows are the gated product: queries keep
// completing, each one either exact (served from the follower's shadow
// once the failure detector fires) or honestly flagged partial during
// the suspicion window — never wrong, never hung.
//
// Per-cell outcome classes, checked against the true answer:
//   * exact    — ids == truth, unflagged;
//   * partial  — flagged partial AND a duplicate-free subset of truth;
//   * wrong    — anything else that "succeeded": duplicates, foreign
//                ids, or an unflagged shortfall. Must stay 0 forever.
//   * failed   — client error or timeout (a hang). Must stay 0.
//
// Headline number per record is failover_ms (mean = min = max: one kill
// per cell): kill → first exact answer served while the primary is still
// dead (-1 when none was, which is the expected shape of the control
// rows). revived_ms is restart → first exact answer with no failover hop
// in its trace (routing reclaimed). Query latencies sit in the counters
// (p50_ms, p95_ms, max_ms), next to the suspect_after_ms and
// context_ttl_ms windows they are judged against.
//
// tools/check_bench_availability.py gates the artifact in CI: zero
// wrong results in every cell, ≥99% of queries in every replicated
// cell completing exact-or-partial, failover faster than the silence
// window, and no query waiting out the context TTL.
//
// Emits BENCH_availability.json (override with --json <path>).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dist/client.hpp"
#include "dist/site_server.hpp"
#include "net/epoll.hpp"
#include "query/parser.hpp"

using namespace hyperfile;
using namespace hyperfile::bench;

namespace {

constexpr SiteId kSites = 3;
constexpr SiteId kVictim = 1;
// Wall-clock budget for each phase of the workload (alive / dead /
// revived). Long enough to see hundreds of queries per phase; the
// suspicion window below is 300ms, so the dead phase dwarfs it.
constexpr auto kPhase = std::chrono::milliseconds(1500);

Query bench_query() {
  auto q = parse_query(
      R"(S [ (pointer, "Reference", ?X) | ^^X ]* (keyword, "hit", ?) -> T)");
  if (!q.ok()) {
    std::fprintf(stderr, "query parse failed: %s\n",
                 q.error().to_string().c_str());
    std::abort();
  }
  return std::move(q).value();
}

struct Tally {
  long attempted = 0;
  long exact = 0;
  long partial = 0;
  long wrong = 0;
  long failed = 0;
  std::vector<double> latencies_ms;
};

/// Classify one client result against the sorted true answer.
void classify(const Result<QueryResult>& r, const std::vector<ObjectId>& want,
              Tally& t) {
  ++t.attempted;
  if (!r.ok()) {
    ++t.failed;
    return;
  }
  std::vector<ObjectId> got = r.value().ids;
  std::sort(got.begin(), got.end());
  const bool dup = std::adjacent_find(got.begin(), got.end()) != got.end();
  const bool subset =
      std::includes(want.begin(), want.end(), got.begin(), got.end());
  if (!dup && subset && got == want && !r.value().partial) {
    ++t.exact;
  } else if (!dup && subset && r.value().partial) {
    ++t.partial;
  } else {
    ++t.wrong;  // duplicates, foreign ids, or an unflagged shortfall
  }
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

/// Three sites and a client over real localhost sockets — the bench twin
/// of tests/test_chaos.cpp's deployment, minus the fault injection.
struct Deployment {
  std::vector<std::unique_ptr<SiteServer>> servers;
  std::unique_ptr<Client> client;
  std::vector<ObjectId> want;
  std::vector<TcpPeer> peers;
  SiteServerOptions options;
  bool ok = false;

  Deployment(TerminationAlgorithm algo, const std::string& wal_dir,
             bool replicated) {
    options.termination = algo;
    options.context_ttl = Duration(400'000);
    options.retry_backoff = Duration(100);
    options.suspect_after = Duration(300'000);
    options.wal_dir = wal_dir;
    if (replicated) {
      options.replication_interval = Duration(5'000);
      for (SiteId s = 0; s < kSites; ++s) {
        options.replica_assignment[s] = static_cast<SiteId>((s + 1) % kSites);
      }
    }

    std::vector<TcpPeer> zeros(kSites + 1, TcpPeer{"127.0.0.1", 0});
    std::vector<std::unique_ptr<EpollNetwork>> nets;
    for (SiteId s = 0; s <= kSites; ++s) {
      auto net = EpollNetwork::create(s, zeros);
      if (!net.ok()) return;  // no sockets in this environment
      nets.push_back(std::move(net).value());
    }
    for (SiteId peer = 0; peer <= kSites; ++peer) {
      peers.push_back({"127.0.0.1", nets[peer]->bound_port()});
    }
    for (auto& net : nets) {
      for (SiteId peer = 0; peer <= kSites; ++peer) {
        net->update_peer(peer, peers[peer]);
      }
    }
    for (SiteId s = 0; s < kSites; ++s) {
      servers.push_back(std::make_unique<SiteServer>(
          std::move(nets[s]), SiteStore(s), options));
    }

    // The paper's cross-site closure chain: 12 objects round-robin over
    // the sites, every third a hit. Populated pre-start so the WAL holds
    // everything the follower must mirror.
    std::vector<ObjectId> ids;
    for (std::size_t i = 0; i < 12; ++i) {
      ids.push_back(servers[i % kSites]->store().allocate());
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Object obj(ids[i]);
      obj.add(Tuple::pointer("Reference",
                             i + 1 < ids.size() ? ids[i + 1] : ids[i]));
      if (i % 3 == 0) obj.add(Tuple::keyword("hit"));
      servers[i % kSites]->store().put(std::move(obj));
    }
    servers[0]->store().create_set("S",
                                   std::span<const ObjectId>(ids.data(), 1));
    want = {ids[0], ids[3], ids[6], ids[9]};
    std::sort(want.begin(), want.end());

    for (auto& s : servers) s->start();
    client = std::make_unique<Client>(std::move(nets[kSites]), 0);
    ok = true;
  }

  /// Crash-stop: dead fds, no goodbye.
  void kill(SiteId site) {
    servers[site]->stop();
    servers[site].reset();
  }

  /// Rebind the site's port; the fresh server recovers from its WAL.
  Result<void> restart(SiteId site) {
    auto net = EpollNetwork::create(site, peers);
    if (!net.ok()) return net.error();
    servers[site] = std::make_unique<SiteServer>(std::move(net).value(),
                                                 SiteStore(site), options);
    servers[site]->start();
    return {};
  }

  ~Deployment() {
    for (auto& s : servers) {
      if (s) s->stop();
    }
  }
};

const char* algo_name(TerminationAlgorithm a) {
  return a == TerminationAlgorithm::kWeightedMessages ? "weighted"
                                                      : "dijkstra_scholten";
}

bool run_cell(JsonSink& sink, TerminationAlgorithm algo, bool replicated,
              const Query& q) {
  const std::string label = std::string("epoll,") + algo_name(algo) + "," +
                            (replicated ? "interval=5ms" : "no_replica");
  std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() /
      ("hf_avail_" + std::to_string(static_cast<int>(algo)) +
       (replicated ? "_r" : "_n"));
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);

  const double failovers_before =
      metrics().counter("dist.failovers").value();
  bool cell_ok = true;
  Tally t;
  double failover_ms = 0;
  double revived_ms = 0;
  double suspect_after_ms = 0;
  double context_ttl_ms = 0;
  {
    Deployment d(algo, wal_dir.string(), replicated);
    if (!d.ok) {
      std::fprintf(stderr, "%s: no localhost sockets, skipping\n",
                   label.c_str());
      std::filesystem::remove_all(wal_dir);
      return true;
    }
    const auto to_ms = [](Duration d) {
      return std::chrono::duration<double, std::milli>(d).count();
    };
    suspect_after_ms = to_ms(d.options.suspect_after);
    context_ttl_ms = to_ms(d.options.context_ttl);

    auto phase = [&](const char* why, auto&& until) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto deadline = t0 + kPhase;
      double first_hit_ms = -1;
      for (;;) {
        const auto q0 = std::chrono::steady_clock::now();
        auto r = d.client->run(q, Duration(30'000'000));
        const auto q1 = std::chrono::steady_clock::now();
        classify(r, d.want, t);
        t.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(q1 - q0).count());
        if (first_hit_ms < 0 && until(r)) {
          first_hit_ms =
              std::chrono::duration<double, std::milli>(q1 - t0).count();
        }
        if (q1 >= deadline) break;
      }
      // -1 marks a phase that never reached its target state. Expected for
      // the control cells' dead window (why == nullptr): with no replica
      // there is nothing to serve an exact answer from.
      if (first_hit_ms < 0 && why != nullptr) {
        std::fprintf(stderr, "%s: %s never reached its target state\n",
                     label.c_str(), why);
      }
      return first_hit_ms;
    };
    auto exact = [&](const Result<QueryResult>& r) {
      return r.ok() && !r.value().partial && [&] {
        std::vector<ObjectId> got = r.value().ids;
        std::sort(got.begin(), got.end());
        return got == d.want;
      }();
    };

    // Phase 1 — healthy steady state (and, when replicated, wait for the
    // victim's follower to mirror it so the kill is a fair fight).
    phase("steady state", exact);
    if (replicated) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      for (;;) {
        auto probe = d.servers[(kVictim + 1) % kSites]->replica_probe(kVictim);
        if (probe.exists && probe.covers_tail) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          std::fprintf(stderr, "%s: replica never synced\n", label.c_str());
          cell_ok = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }

    // Phase 2 — kill the victim mid-workload, keep querying through the
    // suspicion window. Replicated cells must return to exact answers
    // while the site is still dead; control cells stay partial throughout
    // and report the whole dead window as their "failover" time.
    d.kill(kVictim);
    failover_ms = phase(replicated ? "failover" : nullptr, exact);

    // Phase 3 — revive. The restarted primary recovers from its WAL and
    // must reclaim routing: exact answer, no failover hop in the trace.
    if (auto r = d.restart(kVictim); !r.ok()) {
      std::fprintf(stderr, "%s: restart failed: %s\n", label.c_str(),
                   r.error().to_string().c_str());
      cell_ok = false;
    } else {
      revived_ms = phase("revival", [&](const Result<QueryResult>& r2) {
        if (!exact(r2)) return false;
        for (const auto& s : r2.value().trace.spans) {
          if (s.failovers > 0) return false;
        }
        return true;
      });
    }
  }
  std::filesystem::remove_all(wal_dir);

  const double completed_ok = static_cast<double>(t.exact + t.partial);
  const double attempted = static_cast<double>(t.attempted);
  BenchRecord rec;
  rec.config = label;
  rec.mean = failover_ms;
  rec.min = failover_ms;
  rec.max = failover_ms;
  rec.unit = "failover_ms";
  rec.counters = {
      {"replicated", replicated ? 1.0 : 0.0},
      {"attempted", attempted},
      {"exact", static_cast<double>(t.exact)},
      {"partial", static_cast<double>(t.partial)},
      {"wrong", static_cast<double>(t.wrong)},
      {"failed", static_cast<double>(t.failed)},
      {"success_rate", attempted > 0 ? completed_ok / attempted : 0.0},
      {"failover_ms", failover_ms},
      {"revived_ms", revived_ms},
      {"p50_ms", percentile(t.latencies_ms, 0.50)},
      {"p95_ms", percentile(t.latencies_ms, 0.95)},
      {"max_ms", percentile(t.latencies_ms, 1.0)},
      {"suspect_after_ms", suspect_after_ms},
      {"context_ttl_ms", context_ttl_ms},
      {"failovers",
       metrics().counter("dist.failovers").value() - failovers_before},
  };
  sink.add(rec);
  std::printf(
      "%-36s failover=%7.1fms revived=%7.1fms  exact=%ld partial=%ld "
      "wrong=%ld failed=%ld  p50=%.2fms p95=%.2fms max=%.2fms\n",
      label.c_str(), failover_ms, revived_ms, t.exact, t.partial, t.wrong,
      t.failed, percentile(t.latencies_ms, 0.50),
      percentile(t.latencies_ms, 0.95), percentile(t.latencies_ms, 1.0));

  // The bench itself refuses to bless a wrong or hung answer; the JSON
  // gate in tools/check_bench_availability.py re-checks the artifact.
  return cell_ok && t.wrong == 0 && t.failed == 0;
}

}  // namespace

int main(int argc, char** argv) {
  JsonSink sink("availability", &argc, argv);
  header("availability under a primary kill (hot-standby replication)",
         "queries keep flowing while a site is dead — exact from the "
         "follower's shadow, or honestly partial; never wrong, never hung");

  const Query q = bench_query();
  bool ok = true;
  for (TerminationAlgorithm algo : {TerminationAlgorithm::kWeightedMessages,
                                     TerminationAlgorithm::kDijkstraScholten}) {
    for (bool replicated : {false, true}) {
      ok = run_cell(sink, algo, replicated, q) && ok;
    }
  }
  if (!sink.write()) return 1;
  if (!ok) {
    std::fprintf(stderr, "bench_availability: invariant violated\n");
    return 1;
  }
  return 0;
}
