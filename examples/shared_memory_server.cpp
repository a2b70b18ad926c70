// Shared-memory multiprocessor HyperFile server (paper Section 6).
//
// One store, many worker threads sharing the query's working set, mark
// table, and result set. The paper notes strict locking is unnecessary —
// duplicate processing can only create duplicate (deduplicated) answers —
// and our engine exploits exactly that: marks are lock-free and objects are
// processed without holding any lock. This example runs the same closure query serially and with
// increasing worker counts, verifying identical results and reporting wall
// time.
#include <chrono>
#include <thread>
#include <cstdio>

#include "engine/local_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "workload/paper_workload.hpp"

using namespace hyperfile;

int main() {
  SiteStore store(0);
  SiteStore* ptr[] = {&store};
  workload::WorkloadConfig cfg;
  cfg.num_objects = 27'000;  // 100x the paper's data set: work worth sharing
  workload::populate_paper_workload(ptr, cfg);

  Query q = workload::closure_query(workload::kRandKeys[6],
                                    workload::kRand10pKey, 5);

  auto time_run = [&](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = fn();
    const auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);
    return std::make_pair(std::move(r), dt);
  };

  std::printf("shared-memory server, %zu objects, transitive closure + key\n",
              static_cast<std::size_t>(cfg.num_objects));
  std::printf("host reports %u hardware thread(s); with 1, expect identical\n"
              "results but flat times — the point is correctness under the\n"
              "paper's relaxed locking, speedup needs real cores.\n\n",
              std::thread::hardware_concurrency());

  LocalEngine serial(store);
  auto [rs, ts] = time_run([&] { return serial.run_readonly(q); });
  if (!rs.ok()) return 1;
  std::printf("%-10s %8lld us   %zu results\n", "serial",
              static_cast<long long>(ts.count()), rs.value().ids.size());

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    ParallelEngine par(store, workers);
    auto [rp, tp] = time_run([&] { return par.run(q); });
    if (!rp.ok()) return 1;
    const bool same = [&] {
      auto a = rs.value().ids;
      auto b = rp.value().ids;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      return a == b;
    }();
    std::printf("%zu workers  %8lld us   %zu results   identical to serial: %s"
                "   (duplicate answers deduped: %llu)\n",
                workers, static_cast<long long>(tp.count()),
                rp.value().ids.size(), same ? "yes" : "NO",
                static_cast<unsigned long long>(rp.value().stats.duplicate_results));
  }
  return 0;
}
