// Ablation A3 (paper Section 6): shared-memory multiprocessor processing.
//
// "Our algorithms are also applicable to a shared memory multi-processor
// server. In this case all available processors can share the same general
// query information, mark table, and working set."
//
// Host wall-time speedup of the ParallelEngine over worker counts on the
// paper workload (scaled up 20x so there is enough work to parallelize —
// the 1991 data set fits in a modern L2), against both its own one-worker
// row and the serial LocalEngine on the same closure. Emits
// BENCH_parallel.json (override with --json <path>).
#include <thread>

#include "bench_util.hpp"
#include "engine/local_engine.hpp"
#include "engine/parallel_engine.hpp"

using namespace hyperfile;
using namespace hyperfile::bench;

int main(int argc, char** argv) {
  JsonSink json("parallel", &argc, argv);

  SiteStore store(0);
  {
    SiteStore* ptr[] = {&store};
    workload::WorkloadConfig cfg;
    cfg.num_objects = 5400;  // 20x the paper's data set
    workload::populate_paper_workload(ptr, cfg);
  }
  Query q = workload::closure_query(workload::kRandKeys[6],
                                    workload::kRand10pKey, 5);

  header("A3: shared-memory parallel engine (paper Section 6)",
         "all processors share the query context, mark table, and working "
         "set; duplicate processing is benign");
  std::printf("5400-object closure; host hardware threads: %u\n\n",
              std::thread::hardware_concurrency());
  std::printf("%-10s %12s %12s %12s %10s %10s %10s\n", "workers",
              "mean(ms)", "min(ms)", "max(ms)", "results", "vs_1",
              "vs_serial");

  // The serial row is the current single-threaded engine (LocalEngine) on
  // the same closure: the baseline parallel scaling is claimed against.
  struct Row {
    std::string config;
    std::size_t workers;  // 0 = serial LocalEngine
    WallStats wall;
    std::size_t results = 0;
  };
  std::vector<Row> rows;
  const auto timed = [&](std::string config, std::size_t workers,
                         const auto& run) {
    Row row{std::move(config), workers, {}, 0};
    row.wall = time_wall(
        [&] {
          auto r = run();
          if (!r.ok()) {
            std::fprintf(stderr, "run failed: %s\n",
                         r.error().to_string().c_str());
            std::abort();
          }
          row.results = r.value().ids.size();
        },
        /*runs=*/5);
    rows.push_back(std::move(row));
  };
  const LocalEngine serial(store);
  timed("serial", 0, [&] { return serial.run_readonly(q); });
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    const ParallelEngine engine(store, workers);
    timed("workers=" + std::to_string(workers), workers,
          [&] { return engine.run(q); });
  }

  const double serial_ms = rows[0].wall.mean_ms;
  const double one_ms = rows[1].wall.mean_ms;
  bool same_answers = true;
  for (const Row& row : rows) {
    const double vs_1 = one_ms / row.wall.mean_ms;
    const double vs_serial = serial_ms / row.wall.mean_ms;
    std::printf("%-10s %12.2f %12.2f %12.2f %10zu %9.2fx %9.2fx\n",
                row.workers == 0 ? "serial"
                                 : std::to_string(row.workers).c_str(),
                row.wall.mean_ms, row.wall.min_ms, row.wall.max_ms,
                row.results, vs_1, vs_serial);
    if (row.results != rows[0].results) same_answers = false;

    BenchRecord rec;
    rec.config = row.config;
    rec.mean = row.wall.mean_ms;
    rec.min = row.wall.min_ms;
    rec.max = row.wall.max_ms;
    rec.counters = {{"workers", static_cast<double>(row.workers)},
                    {"results", static_cast<double>(row.results)},
                    {"speedup_vs_1", vs_1},
                    {"speedup_vs_serial", vs_serial}};
    json.add(std::move(rec));
  }
  if (!same_answers) {
    std::fprintf(stderr, "result counts differ between rows\n");
    return 1;
  }
  return json.write() ? 0 : 1;
}
