// End-to-end benchmark of the live HyperFile runtime (perfbench/README.md).
//
// One process hosts a 3-site deployment — SiteServer event loops over the
// in-process network or epoll sockets — and closed-loop clients that all
// originate their queries at site 0, as the paper's client did. Every answer
// is compared with an oracle computed before timing, outside the live
// runtime. Layers are measured from outside only: the benchmark times calls
// into each module's public functions and reads the counters the public API
// already returns (QueryTrace, SiteServer::engine_stats(), NetworkStats).
//
//   hf_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          --work-dir <dir> [--git-sha <sha>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is the result object; the lines before it are a
// readable table and a provenance record.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/client.hpp"
#include "dist/site_server.hpp"
#include "engine/local_engine.hpp"
#include "index/site_summary.hpp"
#include "net/inproc.hpp"
#include "net/transport.hpp"
#include "query/parser.hpp"
#include "query/rewrite.hpp"
#include "sim/simulation.hpp"
#include "store/wal.hpp"
#include "wire/message.hpp"
#include "workload/paper_workload.hpp"

using namespace hyperfile;

namespace {

using Clock = std::chrono::steady_clock;

constexpr SiteId kSites = 3;
/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// The window is cut into this many slices by completion time; the spread
/// of a metric across slices is reported in the provenance record.
constexpr int kSlices = 5;
/// Mean think time between two move pairs of rand95-moves-wal's mover.
constexpr double kMoverThinkMs = 1.0;
/// A query slower than this counts as stalled (dist.stalled_per_1k).
constexpr double kStallMs = 150.0;
constexpr Duration kOpTimeout = Duration(20'000'000);

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "hf_e2e: %s\n", what.c_str());
  std::exit(2);
}

// --- statistics --------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Inter-quartile distance over the median, quartiles computed like
/// Python's statistics.quantiles(v, n=4) (the 'exclusive' method).
double relative_iqr(std::vector<double> v) {
  if (v.size() < 2) return 0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  auto quartile = [&](long i) {
    const long m = n + 1;
    long j = i * m / 4;
    const long delta = i * m - j * 4;
    j = std::clamp(j, 1L, n - 1);
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) / 4.0;
  };
  const double mid = quartile(2);
  return mid == 0 ? 0 : (quartile(3) - quartile(1)) / mid;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- workloads ---------------------------------------------------------

enum class Transport { kInProc, kEpoll };

struct WorkloadSpec {
  const char* name;
  Transport transport;
  /// Portal/fan-out text graph instead of the paper's synthetic workload.
  bool text_graph;
  std::size_t objects;      // paper workload size
  const char* pointer_key;  // closure pointer class (paper workload)
  std::size_t drain_workers;
  std::size_t query_clients;
  /// WAL, periodic checkpoints, summary exchange and failure detection.
  bool durable;
  /// A further client moves objects away and back home during the window.
  bool mover;
};

// Why each workload exists is recorded in perfbench/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"chain-epoll", Transport::kEpoll, false, 270, "Chain", 0, 1, false,
     false},
    {"rand05-inproc", Transport::kInProc, false, 2700, "Rand05", 0, 2, false,
     false},
    {"text-pool", Transport::kInProc, true, 0, nullptr, 1, 1, false, false},
    {"rand95-wal", Transport::kInProc, false, 2700, "Rand95", 0, 2, true,
     false},
    {"rand95-moves-wal", Transport::kInProc, false, 2700, "Rand95", 0, 2,
     true, true},
};

// The text graph of bench_parallel_site --heavy.
constexpr std::size_t kTextNodesPerSite = 400;
constexpr std::size_t kTextTuplesPerNode = 32;
constexpr std::size_t kTextCharsPerTuple = 384;
constexpr double kTextHitRate = 0.1;
constexpr const char* kTextQuery =
    R"(S [ (pointer, "Link", ?X) | ^^X ]* (string, "Text", /needle42/) -> T)";

struct Population {
  std::vector<SiteStore> stores;
  /// Objects the mover relocates; each one's birth site is its home.
  std::vector<ObjectId> movable;
  /// text graph only: the generator's own hit set (the oracle).
  std::vector<ObjectId> text_hits;
};

/// Root -> one portal per site -> that site's text objects; each text
/// object holds kTextTuplesPerNode random strings, one of them carrying the
/// needle with probability kTextHitRate.
void populate_text_graph(Population& pop, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ObjectId> portals;
  for (SiteId s = 0; s < kSites; ++s) {
    portals.push_back(pop.stores[s].allocate());
  }
  for (SiteId s = 0; s < kSites; ++s) {
    SiteStore& store = pop.stores[s];
    std::vector<ObjectId> locals;
    for (std::size_t i = 0; i < kTextNodesPerSite; ++i) {
      locals.push_back(store.allocate());
    }
    for (const ObjectId& id : locals) {
      Object obj(id);
      obj.add(Tuple::pointer("Link", id));
      const bool hit = rng.next_bool(kTextHitRate);
      if (hit) pop.text_hits.push_back(id);
      for (std::size_t t = 0; t < kTextTuplesPerNode; ++t) {
        std::string text;
        text.reserve(kTextCharsPerTuple);
        while (text.size() < kTextCharsPerTuple) {
          text.push_back(static_cast<char>('a' + rng.next_below(26)));
        }
        if (hit && t == 0) text.replace(text.size() / 2, 8, "needle42");
        obj.add(Tuple::string("Text", text));
      }
      store.put(std::move(obj));
      pop.movable.push_back(id);
    }
    Object portal(portals[s]);
    portal.add(Tuple::pointer("Link", portals[s]));
    for (const ObjectId& id : locals) portal.add(Tuple::pointer("Link", id));
    store.put(std::move(portal));
  }
  const ObjectId root = pop.stores[0].allocate();
  Object obj(root);
  for (const ObjectId& p : portals) obj.add(Tuple::pointer("Link", p));
  pop.stores[0].put(std::move(obj));
  pop.stores[0].create_set("S", std::span<const ObjectId>(&root, 1));
  std::sort(pop.text_hits.begin(), pop.text_hits.end());
}

Population populate(const WorkloadSpec& w, std::uint64_t seed) {
  Population pop;
  for (SiteId s = 0; s < kSites; ++s) pop.stores.emplace_back(s);
  if (w.text_graph) {
    populate_text_graph(pop, seed);
  } else {
    std::vector<SiteStore*> ptrs;
    for (auto& st : pop.stores) ptrs.push_back(&st);
    auto populated = workload::populate_paper_workload(
        ptrs, workload::WorkloadConfig{w.objects, seed, 0});
    pop.movable = std::move(populated.ids);
  }
  return pop;
}

/// The distinct queries a workload draws from. Paper workloads vary the
/// searched key as the paper did: (skey, Rand10p, k) for k in 1..10.
std::vector<Query> distinct_queries(const WorkloadSpec& w) {
  std::vector<Query> out;
  if (w.text_graph) {
    auto q = parse_query(kTextQuery);
    if (!q.ok()) die("query parse failed: " + q.error().to_string());
    out.push_back(std::move(q).value());
  } else {
    for (std::int64_t k = 1; k <= 10; ++k) {
      out.push_back(workload::closure_query(w.pointer_key,
                                            workload::kRand10pKey, k));
    }
  }
  return out;
}

/// Every distinct query's true answer (sorted ids), computed before timing
/// and outside the live runtime: the discrete-event simulator on an
/// identically seeded 3-site population (it shares no protocol code with
/// SiteServer), or the text generator's own hit set.
std::vector<std::vector<ObjectId>> oracle_answers(
    const WorkloadSpec& w, std::uint64_t seed,
    const std::vector<Query>& queries) {
  std::vector<std::vector<ObjectId>> out;
  if (w.text_graph) {
    out.push_back(populate(w, seed).text_hits);
    return out;
  }
  sim::Simulation sim(sim::CostModel::paper_1991(), kSites);
  std::vector<SiteStore*> ptrs;
  for (SiteId s = 0; s < kSites; ++s) ptrs.push_back(&sim.store(s));
  workload::populate_paper_workload(
      ptrs, workload::WorkloadConfig{w.objects, seed, 0});
  for (const Query& q : queries) {
    auto r = sim.run(q);
    if (!r.ok() || r.value().result.partial) die("oracle simulation failed");
    auto ids = r.value().result.ids;
    std::sort(ids.begin(), ids.end());
    out.push_back(std::move(ids));
  }
  return out;
}

// --- deployment --------------------------------------------------------

/// `n` endpoints with ids 0..n-1 on one transport. In-proc endpoints borrow
/// `inproc`, which must outlive them; epoll endpoints are also listed,
/// non-owning, in `sockets` so their NetworkStats can be read.
std::vector<std::unique_ptr<MessageEndpoint>> make_endpoints(
    Transport transport, std::size_t n,
    std::unique_ptr<InProcNetwork>& inproc,
    std::vector<SocketTransport*>& sockets) {
  std::vector<std::unique_ptr<MessageEndpoint>> eps;
  if (transport == Transport::kInProc) {
    inproc = std::make_unique<InProcNetwork>(n);
    for (SiteId id = 0; id < n; ++id) eps.push_back(inproc->endpoint(id));
    return eps;
  }
  const std::vector<TcpPeer> zeros(n, TcpPeer{"127.0.0.1", 0});
  std::vector<std::unique_ptr<SocketTransport>> nets;
  for (SiteId id = 0; id < n; ++id) {
    auto net = make_socket_transport(TcpBackend::kEpoll, id, zeros);
    if (!net.ok()) die("cannot create endpoint: " + net.error().to_string());
    nets.push_back(std::move(net).value());
  }
  for (auto& net : nets) {
    for (SiteId peer = 0; peer < n; ++peer) {
      net->update_peer(peer, {"127.0.0.1", nets[peer]->bound_port()});
    }
  }
  for (auto& net : nets) {
    sockets.push_back(net.get());
    eps.push_back(std::move(net));
  }
  return eps;
}

/// kSites SiteServers plus client endpoints over one transport. Client i
/// has endpoint id kSites + i; every client's default server is site 0.
class Deployment {
 public:
  Deployment(Transport transport, std::vector<SiteStore> stores,
             const SiteServerOptions& options, std::size_t clients) {
    auto eps = make_endpoints(transport, kSites + clients, inproc_, sockets_);
    for (SiteId s = 0; s < kSites; ++s) {
      servers_.push_back(std::make_unique<SiteServer>(
          std::move(eps[s]), std::move(stores[s]), options));
    }
    for (std::size_t c = 0; c < clients; ++c) {
      clients_.push_back(
          std::make_unique<Client>(std::move(eps[kSites + c]), 0));
    }
  }

  ~Deployment() {
    for (auto& s : servers_) s->stop();
    if (inproc_) inproc_->shutdown();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void start() {
    for (auto& s : servers_) s->start();
  }

  Client& client(std::size_t i) { return *clients_[i]; }
  SiteServer& server(SiteId s) { return *servers_[s]; }

  NetworkStats network_stats() const {
    if (inproc_) return inproc_->stats();
    NetworkStats total;
    for (const SocketTransport* t : sockets_) total += t->stats();
    return total;
  }

  EngineStats engine_stats() const {
    EngineStats total;
    for (const auto& s : servers_) total += s->engine_stats();
    return total;
  }

  /// Wait (bounded) until every site has discarded its query contexts, so
  /// engine counters include the tail of the last queries.
  void wait_quiescent() {
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    while (Clock::now() < deadline) {
      bool idle = true;
      for (const auto& s : servers_) idle = idle && s->context_count() == 0;
      if (idle) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  // Declared first, destroyed last: endpoints borrow the in-proc network.
  std::unique_ptr<InProcNetwork> inproc_;
  std::vector<SocketTransport*> sockets_;  // owned by servers_ / clients_
  std::vector<std::unique_ptr<SiteServer>> servers_;
  std::vector<std::unique_ptr<Client>> clients_;
};

SiteServerOptions server_options(const WorkloadSpec& w,
                                 const std::string& wal_dir) {
  SiteServerOptions o;
  o.drain_workers = w.drain_workers;
  if (w.durable) {
    o.wal_dir = wal_dir;
    o.checkpoint_interval = Duration(5'000'000);
    o.summary_interval = Duration(100'000);
    o.suspect_after = Duration(2'000'000);
    for (SiteId s = 0; s < kSites; ++s) o.summary_peers.push_back(s);
  }
  return o;
}

// --- operations and their accounting ---------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t partial = 0;
  std::uint64_t mismatched = 0;

  std::uint64_t failed() const {
    return errors + timeouts + partial + mismatched;
  }
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    errors += o.errors;
    timeouts += o.timeouts;
    partial += o.partial;
    mismatched += o.mismatched;
    return *this;
  }
};

/// Sums over a window's completed queries of what QueryTrace reports.
struct TraceSums {
  double client_us = 0;
  double elapsed_us = 0;
  double drain_us = 0;
  double sites = 0;
  double forwarded = 0;
  double duplicates = 0;
  double retries = 0;
  double pruned = 0;

  void add(double client, const QueryTrace& t) {
    client_us += client;
    elapsed_us += static_cast<double>(t.elapsed_us);
    sites += static_cast<double>(t.spans.size());
    for (const TraceSpan& s : t.spans) {
      drain_us += static_cast<double>(s.drain_us);
      forwarded += static_cast<double>(s.forwarded);
      duplicates += static_cast<double>(s.duplicates);
      retries += static_cast<double>(s.retries);
      pruned += static_cast<double>(s.pruned);
    }
  }
  TraceSums& operator+=(const TraceSums& o) {
    client_us += o.client_us;
    elapsed_us += o.elapsed_us;
    drain_us += o.drain_us;
    sites += o.sites;
    forwarded += o.forwarded;
    duplicates += o.duplicates;
    retries += o.retries;
    pruned += o.pruned;
    return *this;
  }
};

struct Sample {
  double end_s;  // completion time, from the window's start
  double ms;     // latency
};

std::vector<double> latencies(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const auto& s : samples) v.push_back(s.ms);
  return v;
}

/// What one client thread saw.
struct ClientLog {
  Tally tally;
  std::vector<Sample> queries;
  std::vector<Sample> moves;
  TraceSums trace;
};

struct Work {
  const WorkloadSpec* spec;
  std::vector<Query> queries;
  std::vector<std::vector<ObjectId>> oracle;
  std::vector<ObjectId> movable;
};

void count_error(const Error& e, Tally& tally) {
  ++(e.code == Errc::kTimeout ? tally.timeouts : tally.errors);
}

/// Run one query and account for it; only an exact answer equal to the
/// oracle's is timed.
void run_query(Client& client, const Work& work, std::size_t qi,
               Clock::time_point origin, ClientLog& log, bool traced) {
  ++log.tally.attempted;
  const auto t0 = Clock::now();
  auto r = client.run(work.queries[qi], kOpTimeout);
  const auto t1 = Clock::now();
  if (!r.ok()) return count_error(r.error(), log.tally);
  QueryResult& res = r.value();
  if (res.partial) {
    ++log.tally.partial;
    return;
  }
  std::sort(res.ids.begin(), res.ids.end());
  if (res.ids != work.oracle[qi]) {
    ++log.tally.mismatched;
    return;
  }
  log.queries.push_back({seconds_between(origin, t1), ms_between(t0, t1)});
  if (traced) log.trace.add(ms_between(t0, t1) * 1000.0, res.trace);
}

/// One timed move of `id` to `to`; the reply must name `to` as the new
/// home. Returns whether it succeeded.
bool run_move(Client& client, const ObjectId& id, SiteId to,
              Clock::time_point origin, ClientLog& log) {
  ++log.tally.attempted;
  const auto t0 = Clock::now();
  auto r = client.move(id, to, kOpTimeout);
  const auto t1 = Clock::now();
  if (!r.ok()) {
    count_error(r.error(), log.tally);
    return false;
  }
  if (r.value() != to) {
    ++log.tally.mismatched;
    return false;
  }
  log.moves.push_back({seconds_between(origin, t1), ms_between(t0, t1)});
  return true;
}

/// Moves in pairs — a random object to another site, then back home — so
/// locality, and with it every query figure, does not decay with run
/// length. Pairs are separated by an exponential think time of `think_ms`
/// mean, so a paced mover's moves land at random instants instead of
/// locking onto the query clients' rhythm.
void move_pairs(Client& client, const Work& work, Rng& rng,
                Clock::time_point origin, Clock::time_point deadline,
                int max_pairs, double think_ms, ClientLog& log) {
  for (int pair = 0; pair < max_pairs && Clock::now() < deadline; ++pair) {
    const ObjectId& id = work.movable[rng.next_below(work.movable.size())];
    const SiteId home = id.birth_site;
    const auto away = static_cast<SiteId>(
        (home + 1 + rng.next_below(kSites - 1)) % kSites);
    if (run_move(client, id, away, origin, log)) {
      run_move(client, ObjectId(id.birth_site, id.seq, away), home, origin,
               log);
    }
    if (think_ms > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          -think_ms * std::log(1.0 - rng.next_double())));
    }
  }
}

// --- set-up ------------------------------------------------------------

struct Deployed {
  std::unique_ptr<Deployment> dep;
  double setup_s = 0;
};

/// Populate, start, and warm up: durable sites first wait for the first
/// summary exchange, then every query client runs every distinct query once
/// (lazy connects and index caches land here, not in the window) and the
/// mover makes one pair.
Deployed set_up(const Work& work, std::uint64_t seed,
                const std::string& wal_dir, Tally& warmup) {
  const WorkloadSpec& w = *work.spec;
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);

  const auto t0 = Clock::now();
  Population pop = populate(w, seed);
  Deployed out;
  out.dep = std::make_unique<Deployment>(w.transport, std::move(pop.stores),
                                         server_options(w, wal_dir),
                                         w.query_clients + 1);
  out.dep->start();
  if (w.durable) {
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (SiteId s = 0; s < kSites; ++s) {
      while (out.dep->server(s).summary_count() < kSites - 1 &&
             Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  std::vector<ClientLog> logs(w.query_clients + 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.query_clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t qi = 0; qi < work.queries.size(); ++qi) {
        run_query(out.dep->client(c), work, qi, t0, logs[c], false);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (w.mover) {
    Rng rng(seed);
    move_pairs(out.dep->client(w.query_clients), work, rng, t0,
               Clock::time_point::max(), 1, 0, logs.back());
  }
  out.setup_s = seconds_between(t0, Clock::now());
  for (const auto& log : logs) warmup += log.tally;
  return out;
}

// --- the timed window --------------------------------------------------

struct Window {
  double seconds = 0;
  double cpu_s = 0;
  Tally tally;
  std::vector<Sample> queries;
  std::vector<Sample> moves;
  TraceSums trace;
  EngineStats engine_before, engine_after;
  NetworkStats net_before, net_after;
};

/// Closed loop for `seconds`: each query client sends its next query only
/// after the previous reply. With `mover_think_ms` set, a further client
/// moves objects in pairs throughout, that far apart on average.
Window run_window(Deployment& dep, const Work& work, double seconds,
                  bool traced, std::optional<double> mover_think_ms,
                  std::uint64_t seed) {
  const WorkloadSpec& w = *work.spec;
  Window out;
  dep.wait_quiescent();
  out.engine_before = dep.engine_stats();
  out.net_before = dep.network_stats();
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  std::vector<ClientLog> logs(w.query_clients + 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.query_clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 1'000'003 + c);
      while (Clock::now() < deadline) {
        run_query(dep.client(c), work, rng.next_below(work.queries.size()),
                  start, logs[c], traced);
      }
    });
  }
  if (mover_think_ms) {
    threads.emplace_back([&] {
      Rng rng(seed * 1'000'003 + 999);
      move_pairs(dep.client(w.query_clients), work, rng, start, deadline,
                 std::numeric_limits<int>::max(), *mover_think_ms,
                 logs.back());
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = seconds_between(start, Clock::now());
  out.cpu_s = cpu_seconds() - cpu0;
  dep.wait_quiescent();
  out.engine_after = dep.engine_stats();
  out.net_after = dep.network_stats();
  for (const auto& log : logs) {
    out.tally += log.tally;
    out.queries.insert(out.queries.end(), log.queries.begin(),
                       log.queries.end());
    out.moves.insert(out.moves.end(), log.moves.begin(), log.moves.end());
    out.trace += log.trace;
  }
  return out;
}

std::size_t slice_of(const Sample& s, double seconds) {
  return std::min<std::size_t>(
      kSlices - 1, static_cast<std::size_t>(s.end_s / seconds * kSlices));
}

/// Per-slice values of a latency percentile, for the in-run spread.
std::vector<double> slice_percentiles(const std::vector<Sample>& samples,
                                      double seconds, double q) {
  std::vector<std::vector<double>> slices(kSlices);
  for (const auto& s : samples) slices[slice_of(s, seconds)].push_back(s.ms);
  std::vector<double> out;
  for (auto& sl : slices) {
    if (!sl.empty()) out.push_back(percentile(std::move(sl), q));
  }
  return out;
}

std::vector<double> slice_rates(const std::vector<Sample>& samples,
                                double seconds) {
  std::vector<double> rates(kSlices, 0);
  for (const auto& s : samples) rates[slice_of(s, seconds)] += 1;
  for (double& r : rates) r /= seconds / kSlices;
  return rates;
}

// --- metrics -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void put(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// Median over `batches` of the mean per-call time of `fn`, in ns.
double time_ns(int batches, int calls, const std::function<void()>& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    const std::chrono::duration<double, std::nano> spent = Clock::now() - t0;
    per_call.push_back(spent.count() / calls);
  }
  return median(per_call);
}

/// Median of `reps` timings of `fn`, in ms.
double time_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

/// Round trip of a PingMessage over two endpoints of the workload's
/// transport, one of them echoing; median in µs.
double transport_rtt_us(Transport transport) {
  std::unique_ptr<InProcNetwork> inproc;
  std::vector<SocketTransport*> sockets;
  auto eps = make_endpoints(transport, 2, inproc, sockets);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    while (!stop.load()) {
      if (auto env = eps[1]->recv(Duration(10'000))) {
        (void)eps[1]->send(env->src, wire::PingMessage{});
      }
    }
  });
  constexpr int kWarmup = 200;
  std::vector<double> rtts;
  for (int i = 0; i < kWarmup + 2000; ++i) {
    const auto t0 = Clock::now();
    if (!eps[0]->send(1, wire::PingMessage{true}).ok()) {
      die("rtt probe send failed");
    }
    if (!eps[0]->recv(Duration(5'000'000)).has_value()) {
      die("rtt probe lost a reply");
    }
    if (i >= kWarmup) rtts.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }
  stop.store(true);
  echo.join();
  if (inproc) inproc->shutdown();
  return median(rtts);
}

/// One site store holding every object of the population (set bindings
/// from site 0), for LocalEngine.
SiteStore merged_store(const Population& pop) {
  SiteStore merged(0);
  for (const SiteStore& st : pop.stores) {
    st.for_each([&](const Object& obj) { merged.put(obj); });
  }
  for (const std::string& name : pop.stores[0].set_names()) {
    merged.bind_set(name, *pop.stores[0].find_set(name));
  }
  return merged;
}

WriteAheadLog open_wal(const std::string& path) {
  auto wal = WriteAheadLog::open(path, WalReplay{});  // starts empty
  if (!wal.ok()) die("cannot open WAL: " + wal.error().to_string());
  return std::move(wal).value();
}

/// Per-layer probes that need no live deployment, on a fresh copy of the
/// population. A LocalEngine answer that disagrees with the oracle counts
/// as a mismatch.
void layer_probes(const Work& work, std::uint64_t seed,
                  const std::string& dir, Metrics& m, Tally& tally) {
  const Population pop = populate(*work.spec, seed);

  // query: rewrite_query on the workload's queries.
  std::size_t qi = 0;
  m.put("query.rewrite_us", time_ns(11, 200, [&] {
          const Query& q = work.queries[qi++ % work.queries.size()];
          if (rewrite_query(q).size() == 0) die("rewrite emptied a query");
        }) / 1000.0,
        "us");

  // wire: the two messages that dominate query traffic.
  wire::DerefRequest d;
  d.qid = {0, 7};
  d.query = work.queries[0];
  d.oid = work.movable[0];
  d.weight = {0x40000000u};
  d.msg_seq = 42;
  const wire::Envelope deref{1, 2, std::move(d)};
  wire::ResultMessage rm;
  rm.qid = {0, 7};
  rm.ids = {work.movable[0]};
  rm.weight = {0x40000000u};
  rm.msg_seq = 43;
  const wire::Envelope result{2, 0, std::move(rm)};
  std::size_t bytes = 0;
  m.put("wire.encode_ns_per_msg", time_ns(11, 2000, [&] {
          bytes += wire::encode_envelope(deref).size();
          bytes += wire::encode_envelope(result).size();
        }) / 2.0,
        "ns");
  if (bytes == 0) die("encoder produced no bytes");
  const wire::Bytes deref_bytes = wire::encode_envelope(deref);
  const wire::Bytes result_bytes = wire::encode_envelope(result);
  m.put("wire.decode_ns_per_msg", time_ns(11, 2000, [&] {
          if (!wire::decode_envelope(deref_bytes).ok() ||
              !wire::decode_envelope(result_bytes).ok()) {
            die("decode of a freshly encoded envelope failed");
          }
        }) / 2.0,
        "ns");

  // net: ping-pong over the workload's transport.
  m.put("net.rtt_us", transport_rtt_us(work.spec->transport), "us");

  // engine: the whole population on one store, no messages at all.
  SiteStore merged = merged_store(pop);
  const LocalEngine engine(merged);
  std::size_t next = 0;
  m.put("engine.local_drain_ms", time_ms(30, [&] {
          const std::size_t k = next++ % work.queries.size();
          auto r = engine.run_readonly(work.queries[k]);
          ++tally.attempted;
          if (!r.ok()) return count_error(r.error(), tally);
          auto ids = r.value().ids;
          std::sort(ids.begin(), ids.end());
          if (ids != work.oracle[k]) ++tally.mismatched;
        }),
        "ms");

  // store: WAL appends, what a move logs, and a checkpoint.
  {
    std::vector<Object> objs;
    pop.stores[0].for_each([&](const Object& o) { objs.push_back(o); });
    WriteAheadLog wal = open_wal(dir + "/append.wal");
    SiteStore st(0);
    st.attach_wal(&wal);
    std::size_t i = 0;
    m.put("store.wal_append_us", time_ns(11, 100, [&] {
            st.put(objs[i++ % objs.size()]);
          }) / 1000.0,
          "us");
    st.attach_wal(nullptr);
  }
  {
    // A move takes the object out of one store and puts it into another.
    SiteStore from = pop.stores[1];
    SiteStore to(2);
    WriteAheadLog from_wal = open_wal(dir + "/from.wal");
    WriteAheadLog to_wal = open_wal(dir + "/to.wal");
    from.attach_wal(&from_wal);
    to.attach_wal(&to_wal);
    std::size_t moved = 0;
    for (const ObjectId& id : work.movable) {
      if (id.birth_site != 1 || moved == 200) continue;
      if (auto obj = from.take(id)) {
        to.put(std::move(*obj));
        ++moved;
      }
    }
    m.put("store.wal_bytes_per_move",
          static_cast<double>(from_wal.byte_size() + to_wal.byte_size()) /
              static_cast<double>(std::max<std::size_t>(1, moved)),
          "B");
    from.attach_wal(nullptr);
    to.attach_wal(nullptr);
  }
  {
    const std::string ckpt_dir = dir + "/ckpt";
    std::filesystem::remove_all(ckpt_dir);
    std::filesystem::create_directories(ckpt_dir);
    InProcNetwork net(1);
    SiteServerOptions o;
    o.wal_dir = ckpt_dir;
    // Never started, so checkpoint() runs inline on this thread.
    SiteServer server(net.endpoint(0), pop.stores[0], o);
    m.put("store.checkpoint_ms", time_ms(5, [&] {
            if (!server.checkpoint().ok()) die("checkpoint failed");
          }),
          "ms");
  }

  // index: the Bloom summary a site rebuilds after mutations.
  m.put("index.summary_build_ms", time_ms(5, [&] {
          if (index::SiteSummary::build(pop.stores[0]).origin != 0) {
            die("summary built for the wrong site");
          }
        }),
        "ms");
}

/// The traced half window's per-layer figures. Per-query figures are means
/// over the window's queries, every one of which was traced.
void window_layers(const Window& plain, const Window& win, Metrics& m) {
  const double q = std::max(1.0, static_cast<double>(win.queries.size()));
  const NetworkStats& na = win.net_after;
  const NetworkStats& nb = win.net_before;
  const EngineStats& ea = win.engine_after;
  const EngineStats& eb = win.engine_before;
  auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double msgs = delta(na.messages_sent, nb.messages_sent);
  const TraceSums& t = win.trace;

  m.put("wire.bytes_per_msg",
        delta(na.bytes_sent, nb.bytes_sent) / std::max(1.0, msgs), "B");
  m.put("net.msgs_per_query", msgs / q, "count");
  m.put("net.deref_msgs_per_query",
        delta(na.deref_messages + na.batch_deref_messages,
              nb.deref_messages + nb.batch_deref_messages) / q,
        "count");
  m.put("net.result_msgs_per_query",
        delta(na.result_messages, nb.result_messages) / q, "count");
  m.put("net.bytes_per_query", delta(na.bytes_sent, nb.bytes_sent) / q, "B");
  m.put("engine.drain_us_per_query", t.drain_us / q, "us");
  m.put("engine.processed_per_query", delta(ea.processed, eb.processed) / q,
        "count");
  m.put("engine.tuples_per_query",
        delta(ea.tuples_scanned, eb.tuples_scanned) / q, "count");
  m.put("engine.suppressed_ratio",
        delta(ea.suppressed, eb.suppressed) /
            std::max(1.0, delta(ea.pops, eb.pops)),
        "ratio");
  m.put("engine.steals_per_query", delta(ea.steals, eb.steals) / q, "count");
  m.put("engine.queue_wait_us_per_query",
        delta(ea.queue_wait_us, eb.queue_wait_us) / q, "us");
  m.put("dist.originator_us", t.elapsed_us / q, "us");
  m.put("dist.client_gap_us", (t.client_us - t.elapsed_us) / q, "us");
  m.put("dist.non_drain_us", (t.elapsed_us - t.drain_us) / q, "us");
  m.put("dist.sites_engaged", t.sites / q, "count");
  m.put("dist.forwarded_per_query", t.forwarded / q, "count");
  m.put("dist.duplicates_per_query", t.duplicates / q, "count");
  m.put("dist.retries_per_query", t.retries / q, "count");
  const auto qms = latencies(win.queries);
  const auto stalled = std::count_if(qms.begin(), qms.end(),
                                     [](double v) { return v > kStallMs; });
  m.put("dist.stalled_per_1k", 1000.0 * static_cast<double>(stalled) / q,
        "count");
  m.put("index.pruned_per_query", t.pruned / q, "count");
  const double plain_p50 = percentile(latencies(plain.queries), 0.50);
  m.put("bench.trace_overhead_pct",
        plain_p50 > 0
            ? 100.0 * (percentile(qms, 0.50) - plain_p50) / plain_p50
            : 0,
        "%");
  // p99 over both halves: one half alone holds fewer than the 1000 samples
  // a p99 needs on the slower workloads, and tracing from outside costs
  // nothing measurable (bench.trace_overhead_pct).
  auto all = latencies(plain.queries);
  all.insert(all.end(), qms.begin(), qms.end());
  m.put("query_p99_ms", percentile(all, 0.99), "ms");
  // Moves are not traced, so their latency comes from the untraced half.
  const auto mms = latencies(plain.moves);
  m.put("move_p50_ms", percentile(mms, 0.50), "ms");
  m.put("move_p99_ms", percentile(mms, 0.99), "ms");
  m.put("bench.query_max_ms",
        qms.empty() ? 0 : *std::max_element(qms.begin(), qms.end()), "ms");
  m.put("bench.query_samples", static_cast<double>(win.queries.size()),
        "count");
  m.put("bench.move_samples", static_cast<double>(plain.moves.size()),
        "count");
}

// --- output ------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// A flat JSON object built field by field (values are numbers, strings or
/// pre-rendered JSON).
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    os_ << (first_ ? "" : ", ") << '"' << key << "\": " << json;
    first_ = false;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, '"' + v + '"');
  }
  std::string done() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.work_dir = val;
      have_dir = true;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else {
      die("unknown argument " + key);
    }
  }
  if (!have_workload || !have_dir || !(a.seconds > 0)) {
    die("usage: hf_e2e --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --work-dir <dir> [--git-sha <sha>]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) die("unknown workload " + args.workload);
  std::filesystem::create_directories(args.work_dir);

  Work work;
  work.spec = spec;
  work.queries = distinct_queries(*spec);
  work.oracle = oracle_answers(*spec, args.seed, work.queries);
  work.movable = populate(*spec, args.seed).movable;

  Tally tally;
  std::vector<double> setups;
  Deployed live;
  for (int i = 0; i < kSetupRepeats; ++i) {
    live = {};  // tear the previous deployment down first
    live = set_up(work, args.seed, args.work_dir + "/wal", tally);
    setups.push_back(live.setup_s);
  }

  const auto mover =
      spec->mover ? std::optional(kMoverThinkMs) : std::nullopt;
  Metrics metrics;
  JsonObject spreads;
  Window win;
  double p99_ms = 0;  // not gated: provenance only in --trace 0
  if (!args.trace) {
    win = run_window(*live.dep, work, args.seconds, false, mover, args.seed);
    tally += win.tally;
    const auto qms = latencies(win.queries);
    p99_ms = percentile(qms, 0.99);
    const double ops =
        static_cast<double>(win.queries.size() + win.moves.size());
    metrics.put("query_qps",
                static_cast<double>(win.queries.size()) / win.seconds, "1/s");
    metrics.put("query_p50_ms", percentile(qms, 0.50), "ms");
    metrics.put("cpu_ms_per_op", win.cpu_s * 1000.0 / std::max(1.0, ops),
                "ms");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.put("setup_s", median(setups), "s");
    auto spread = [&](const char* name, const std::vector<double>& slices) {
      spreads.num(name, relative_iqr(slices));
    };
    spread("query_qps", slice_rates(win.queries, win.seconds));
    spread("query_p50_ms", slice_percentiles(win.queries, win.seconds, 0.50));
    spread("query_p99_ms", slice_percentiles(win.queries, win.seconds, 0.99));
    spread("setup_s", setups);
  } else {
    // Untraced and traced halves on the same deployment; their p50s give
    // the tracing overhead.
    const Window plain = run_window(*live.dep, work, args.seconds / 2, false,
                                    mover, args.seed);
    win = run_window(*live.dep, work, args.seconds / 2, true, mover,
                     args.seed + 1);
    tally += plain.tally;
    tally += win.tally;
    layer_probes(work, args.seed, args.work_dir, metrics, tally);
    window_layers(plain, win, metrics);
    metrics.put("error_rate",
                static_cast<double>(tally.failed()) /
                    std::max(1.0, static_cast<double>(tally.attempted)),
                "ratio");
  }
  live = {};
  std::filesystem::remove_all(args.work_dir);

  for (const Metric& m : metrics.list()) {
    std::printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  JsonObject prov;
  prov.str("workload", spec->name)
      .num("seed", static_cast<double>(args.seed))
      .num("run_seconds", args.seconds)
      .num("trace", args.trace ? 1 : 0)
      .str("transport",
           spec->transport == Transport::kEpoll ? "epoll" : "inproc")
      .num("query_clients", static_cast<double>(spec->query_clients))
      .str("moves", spec->mover ? "mover in the window" : "none")
      .num("drain_workers", static_cast<double>(spec->drain_workers))
      .num("nproc", std::thread::hardware_concurrency())
      .str("compiler", HF_BENCH_COMPILER)
      .str("build_type", HF_BENCH_BUILD_TYPE)
      .str("git_sha", args.git_sha)
      .num("setup_repeats", kSetupRepeats)
      .num("slices", kSlices)
      .num("query_samples", static_cast<double>(win.queries.size()))
      .num("move_samples", static_cast<double>(win.moves.size()))
      .num("window_s", win.seconds)
      .num("attempted", static_cast<double>(tally.attempted))
      .num("errors", static_cast<double>(tally.errors))
      .num("timeouts", static_cast<double>(tally.timeouts))
      .num("partial", static_cast<double>(tally.partial))
      .num("mismatched", static_cast<double>(tally.mismatched))
      .raw("relative_iqr", spreads.done());
  if (!args.trace) prov.num("query_p99_ms", p99_ms);
  std::printf("provenance: %s\n", prov.done().c_str());

  JsonObject values;
  for (const Metric& m : metrics.list()) {
    values.raw(m.name, JsonObject().num("value", m.value)
                           .str("unit", m.unit).done());
  }
  JsonObject result;
  result.raw("correct", tally.mismatched == 0 ? "true" : "false")
      .num("attempted", static_cast<double>(tally.attempted))
      .num("failed", static_cast<double>(tally.failed()))
      .raw("metrics", values.done());
  std::printf("%s\n", result.done().c_str());
  return 0;
}
