// Parallel site drain (SiteServerOptions::drain_workers): wall-clock speedup
// of CPU-bound multi-site closure queries when each site drains its working
// set on a shared-memory worker pool instead of the event-loop thread alone
// (paper Section 6 applied inside the distributed runtime).
//
// Workload: a root at site 0 points at one "portal" per site; each portal
// fans out to that site's local population of text-heavy objects (regex
// selection over many long string tuples), so one incoming dereference seeds
// a large, CPU-bound local drain — the shape the pool is built for. Both the
// in-process and the TCP transport run the same stores and query; `--heavy`
// multiplies the per-object text so filter CPU dominates messaging even on
// slow hosts.
//
// Every row's `speedup_vs_serial` is measured against the serial drain
// (workers=0) on the same transport. It is recorded, not gated: thread
// scaling depends on host cores (see the hardware_threads counter), and with
// 3 sites draining concurrently the serial configuration already uses up to
// 3 cores. Every row also records the expected result count, so
// tools/check_bench_speedup.py can reject a wrong answer.
//
// The single-thread gate lives in the `regex_fast_path` row: over the same
// generated tuples, the bench query's regex is matched through
// Pattern::matches_basic (the literal fast path every drain uses) and through
// Pattern::matches_reference (always std::regex), in this binary and run.
// tools/check_bench_speedup.py gates CI on their ratio,
// `regex_fast_path_speedup`.
//
// Emits BENCH_parallel_site.json (override with --json <path>).
#include <memory>
#include <thread>

#include "bench_util.hpp"
#include "dist/cluster.hpp"
#include "net/epoll.hpp"
#include "query/parser.hpp"

using namespace hyperfile;
using namespace hyperfile::bench;

namespace {

constexpr SiteId kSites = 3;

struct WorkloadShape {
  std::size_t nodes_per_site = 300;
  std::size_t tuples_per_node = 16;
  std::size_t chars_per_tuple = 192;
};

/// Deterministically populate `stores` (one per site) with the portal/fanout
/// graph. Returns the number of objects that match the bench query.
std::size_t populate(std::vector<SiteStore*>& stores, const WorkloadShape& shape) {
  Rng rng(4242);
  std::size_t expected = 0;

  std::vector<ObjectId> portals;
  for (SiteId s = 0; s < kSites; ++s) portals.push_back(stores[s]->allocate());

  for (SiteId s = 0; s < kSites; ++s) {
    std::vector<ObjectId> locals;
    for (std::size_t i = 0; i < shape.nodes_per_site; ++i) {
      locals.push_back(stores[s]->allocate());
    }
    for (std::size_t i = 0; i < shape.nodes_per_site; ++i) {
      Object obj(locals[i]);
      obj.add(Tuple::pointer("Link", locals[i]));  // survive the loop body
      const bool hit = rng.next_bool(0.1);
      if (hit) ++expected;
      for (std::size_t t = 0; t < shape.tuples_per_node; ++t) {
        std::string text;
        text.reserve(shape.chars_per_tuple);
        while (text.size() < shape.chars_per_tuple) {
          text.push_back(static_cast<char>('a' + rng.next_below(26)));
        }
        // The needle lands in exactly one tuple of matching objects; the
        // matcher still has to scan the other tuples to reject them.
        if (hit && t == 0) text.replace(text.size() / 2, 8, "needle42");
        obj.add(Tuple::string("Text", text));
      }
      stores[s]->put(std::move(obj));
    }
    Object portal(portals[s]);
    portal.add(Tuple::pointer("Link", portals[s]));
    for (const ObjectId& id : locals) portal.add(Tuple::pointer("Link", id));
    stores[s]->put(std::move(portal));
  }

  ObjectId root = stores[0]->allocate();
  Object obj(root);
  for (const ObjectId& portal : portals) obj.add(Tuple::pointer("Link", portal));
  stores[0]->put(std::move(obj));
  stores[0]->create_set("S", std::span<const ObjectId>(&root, 1));
  return expected;
}

Query bench_query() {
  auto q = parse_query(
      R"(S [ (pointer, "Link", ?X) | ^^X ]* (string, "Text", /needle42/) -> T)");
  if (!q.ok()) {
    std::fprintf(stderr, "query parse failed: %s\n",
                 q.error().to_string().c_str());
    std::abort();
  }
  return std::move(q).value();
}

/// Snapshot of the process-wide drain counters; per-config deltas ride along
/// in each JSON row so steal/park behaviour is visible next to the timings.
struct DrainCounters {
  std::uint64_t steals = 0;
  std::uint64_t stolen_items = 0;
  std::uint64_t queue_wait_us = 0;
  std::uint64_t suppressed = 0;

  static DrainCounters snapshot() {
    DrainCounters c;
    c.steals = metrics().counter("engine.steals").value();
    c.stolen_items = metrics().counter("engine.stolen_items").value();
    c.queue_wait_us = metrics().counter("engine.queue_wait_us").value();
    c.suppressed = metrics().counter("engine.suppressed").value();
    return c;
  }

  DrainCounters delta_since(const DrainCounters& before) const {
    return {steals - before.steals, stolen_items - before.stolen_items,
            queue_wait_us - before.queue_wait_us,
            suppressed - before.suppressed};
  }
};

struct RunOutcome {
  WallStats wall;
  std::size_t results = 0;
  NetworkStats net;
  bool has_net = false;
  bool ok = true;
  DrainCounters drain;
};

RunOutcome run_inproc(const WorkloadShape& shape, std::size_t workers,
                      const Query& q, int runs) {
  SiteServerOptions options;
  options.drain_workers = workers;
  Cluster cluster(kSites, options);
  std::vector<SiteStore*> stores;
  for (SiteId s = 0; s < kSites; ++s) stores.push_back(&cluster.store(s));
  populate(stores, shape);
  cluster.start();

  RunOutcome out;
  const DrainCounters before = DrainCounters::snapshot();
  out.wall = time_wall(
      [&] {
        auto r = cluster.client().run(q, Duration(120'000'000));
        if (!r.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       r.error().to_string().c_str());
          out.ok = false;
          return;
        }
        out.results = r.value().ids.size();
      },
      runs);
  out.drain = DrainCounters::snapshot().delta_since(before);
  cluster.stop();
  out.net = cluster.network_stats();
  out.has_net = true;
  return out;
}

RunOutcome run_tcp(const WorkloadShape& shape, std::size_t workers,
                   const Query& q, int runs) {
  RunOutcome out;

  std::vector<TcpPeer> zeros(kSites + 1, TcpPeer{"127.0.0.1", 0});
  std::vector<std::unique_ptr<EpollNetwork>> nets;
  for (SiteId s = 0; s <= kSites; ++s) {
    auto net = EpollNetwork::create(s, zeros);
    if (!net.ok()) {
      out.ok = false;  // no localhost sockets in this environment
      return out;
    }
    nets.push_back(std::move(net).value());
  }
  for (auto& net : nets) {
    for (SiteId peer = 0; peer <= kSites; ++peer) {
      net->update_peer(peer, {"127.0.0.1", nets[peer]->bound_port()});
    }
  }

  std::vector<SiteStore> stores;
  for (SiteId s = 0; s < kSites; ++s) stores.emplace_back(s);
  std::vector<SiteStore*> ptrs;
  for (auto& st : stores) ptrs.push_back(&st);
  populate(ptrs, shape);

  SiteServerOptions options;
  options.drain_workers = workers;
  std::vector<std::unique_ptr<SiteServer>> servers;
  for (SiteId s = 0; s < kSites; ++s) {
    servers.push_back(std::make_unique<SiteServer>(std::move(nets[s]),
                                                   std::move(stores[s]),
                                                   options));
    servers.back()->start();
  }
  Client client(std::move(nets[kSites]), /*default_server=*/0);

  const DrainCounters before = DrainCounters::snapshot();
  out.wall = time_wall(
      [&] {
        auto r = client.run(q, Duration(120'000'000));
        if (!r.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       r.error().to_string().c_str());
          out.ok = false;
          return;
        }
        out.results = r.value().ids.size();
      },
      runs);
  out.drain = DrainCounters::snapshot().delta_since(before);
  for (auto& server : servers) server->stop();
  return out;
}

/// The bench query's regex timed through both matchers over every generated
/// "Text" value; both must find the same tuples.
struct RegexTiming {
  std::size_t hit_objects = 0;  // objects the bench query must return
  WallStats basic;
  WallStats reference;
  std::size_t strings = 0;
  std::size_t basic_matches = 0;
  std::size_t reference_matches = 0;
};

RegexTiming time_regex(const WorkloadShape& shape, const Query& q, int runs) {
  std::vector<SiteStore> stores;
  for (SiteId s = 0; s < kSites; ++s) stores.emplace_back(s);
  std::vector<SiteStore*> ptrs;
  for (auto& st : stores) ptrs.push_back(&st);
  RegexTiming out;
  out.hit_objects = populate(ptrs, shape);
  std::vector<Value> texts;
  for (const SiteStore& st : stores) {
    st.for_each([&](const Object& obj) {
      for (const Tuple& t : obj.tuples()) {
        if (t.key == "Text") texts.push_back(t.data);
      }
    });
  }
  const Pattern& p = std::get<SelectFilter>(q.filter(q.size())).data_pattern;

  out.strings = texts.size();
  out.basic = time_wall(
      [&] {
        out.basic_matches = 0;
        for (const Value& v : texts) out.basic_matches += p.matches_basic(v);
      },
      runs);
  out.reference = time_wall(
      [&] {
        out.reference_matches = 0;
        for (const Value& v : texts) {
          out.reference_matches += p.matches_reference(v);
        }
      },
      runs);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonSink json("parallel_site", &argc, argv);

  WorkloadShape shape;
  int runs = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--nodes" && i + 1 < argc) {
      shape.nodes_per_site = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--runs" && i + 1 < argc) {
      runs = std::atoi(argv[++i]);
    } else if (arg == "--heavy") {
      // CPU-bound tier: ~4x the matcher work per object, so filter CPU
      // dwarfs transport cost and worker scaling is measurable even with
      // fast messaging.
      shape.nodes_per_site = 400;
      shape.tuples_per_node = 32;
      shape.chars_per_tuple = 384;
    }
  }

  const unsigned hw_threads = std::thread::hardware_concurrency();
  header("Parallel site drain: multi-worker SiteServer (paper Section 6)",
         "all processors share the query context, mark table, and working "
         "set; one site need not mean one core");
  std::printf(
      "%zu sites x %zu text-heavy objects (%zu tuples x %zu chars), closure "
      "query; host hardware threads: %u\nworkers=0 is the serial event-loop "
      "drain; every speedup is vs workers=0 on the same transport.\n\n",
      static_cast<std::size_t>(kSites), shape.nodes_per_site,
      shape.tuples_per_node, shape.chars_per_tuple, hw_threads);

  const Query q = bench_query();
  bool all_ok = true;

  const RegexTiming rx = time_regex(shape, q, runs);
  const double rx_speedup = rx.reference.mean_ms / rx.basic.mean_ms;
  std::printf(
      "regex over %zu tuples: matches_basic %.2f ms, matches_reference "
      "%.2f ms (%.1fx), %zu / %zu matches\n\n",
      rx.strings, rx.basic.mean_ms, rx.reference.mean_ms, rx_speedup,
      rx.basic_matches, rx.reference_matches);
  {
    BenchRecord rec;
    rec.config = "regex_fast_path";
    rec.mean = rx.basic.mean_ms;
    rec.min = rx.basic.min_ms;
    rec.max = rx.basic.max_ms;
    rec.counters = {
        {"strings", static_cast<double>(rx.strings)},
        {"basic_matches", static_cast<double>(rx.basic_matches)},
        {"reference_matches", static_cast<double>(rx.reference_matches)},
        {"reference_mean_ms", rx.reference.mean_ms},
        {"reference_min_ms", rx.reference.min_ms},
        {"reference_max_ms", rx.reference.max_ms},
        {"regex_fast_path_speedup", rx_speedup},
        {"hardware_threads", static_cast<double>(hw_threads)},
    };
    json.add(std::move(rec));
    all_ok = all_ok && rx.basic_matches == rx.reference_matches;
  }

  std::printf("%-8s %-8s %12s %12s %10s %8s %8s %12s %10s\n", "net",
              "workers", "mean(ms)", "min(ms)", "results", "steals", "stolen",
              "wait(ms)", "speedup");
  const std::size_t worker_counts[] = {0, 1, 2, 4, 8};

  for (const char* transport : {"inproc", "tcp"}) {
    double serial_mean = 0;  // workers=0 on this transport
    for (std::size_t workers : worker_counts) {
      const bool inproc = std::string(transport) == "inproc";
      RunOutcome out = inproc ? run_inproc(shape, workers, q, runs)
                              : run_tcp(shape, workers, q, runs);
      if (!out.ok) {
        std::printf("%-8s %-8zu %12s\n", transport, workers, "(skipped)");
        continue;
      }
      if (workers == 0) serial_mean = out.wall.mean_ms;
      const double speedup =
          serial_mean > 0 ? serial_mean / out.wall.mean_ms : 0;
      std::printf(
          "%-8s %-8zu %12.2f %12.2f %10zu %8llu %8llu %12.2f %9.2fx\n",
          transport, workers, out.wall.mean_ms, out.wall.min_ms, out.results,
          static_cast<unsigned long long>(out.drain.steals),
          static_cast<unsigned long long>(out.drain.stolen_items),
          static_cast<double>(out.drain.queue_wait_us) / 1000.0, speedup);

      BenchRecord rec;
      rec.config =
          std::string(transport) + ",workers=" + std::to_string(workers);
      rec.mean = out.wall.mean_ms;
      rec.min = out.wall.min_ms;
      rec.max = out.wall.max_ms;
      rec.counters = {
          {"workers", static_cast<double>(workers)},
          {"results", static_cast<double>(out.results)},
          {"expected_results", static_cast<double>(rx.hit_objects)},
          {"speedup_vs_serial", speedup},
          {"hardware_threads", static_cast<double>(hw_threads)},
          {"steals", static_cast<double>(out.drain.steals)},
          {"stolen_items", static_cast<double>(out.drain.stolen_items)},
          {"queue_wait_us", static_cast<double>(out.drain.queue_wait_us)},
          {"suppressed", static_cast<double>(out.drain.suppressed)},
      };
      if (out.has_net) {
        rec.counters.push_back(
            {"deref_messages", static_cast<double>(out.net.deref_messages)});
        rec.counters.push_back(
            {"result_messages", static_cast<double>(out.net.result_messages)});
        rec.counters.push_back(
            {"messages_sent", static_cast<double>(out.net.messages_sent)});
      }
      json.add(std::move(rec));
    }
  }

  return json.write() && all_ok ? 0 : 1;
}
