#include "engine/parallel_engine.hpp"

#include <algorithm>
#include <thread>

#include "engine/local_engine.hpp"
#include "engine/parallel_execution.hpp"
#include "engine/worker_pool.hpp"

namespace hyperfile {

ParallelEngine::ParallelEngine(const SiteStore& store, std::size_t workers)
    : store_(store),
      workers_(workers != 0 ? workers
                            : std::max(1u, std::thread::hardware_concurrency())) {}

Result<QueryResult> ParallelEngine::run(const Query& query) const {
  WorkerPool pool(workers_);
  ParallelExecution exec(query, store_, pool);
  return run_to_completion(exec);
}

}  // namespace hyperfile
