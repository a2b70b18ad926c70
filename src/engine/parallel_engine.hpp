// Shared-memory multiprocessor query engine (paper Section 6).
//
// "Our algorithms are also applicable to a shared memory multi-processor
// server. In this case all available processors can share the same general
// query information, mark table, and working set. ... Termination requires
// that the set be empty, and that no processors are still working on the
// query. ... it is not necessary to have a strict locking mechanism to
// prevent two processors from working on the same document. Duplicate
// processing may create some duplicate answers, but not incorrect ones (due
// to the set-based nature of the result)."
//
// The standalone face of ParallelExecution (engine/parallel_execution.hpp),
// the same drain a multi-worker SiteServer runs: each run() creates a
// WorkerPool, seeds one ParallelExecution from the initial set and drains it
// to completion. Marks are lock-free, so two workers may process the same
// object concurrently — exactly the benign race the paper describes. The
// result set deduplicates, so the outcome equals the serial engine's
// (property-tested).
#pragma once

#include <cstddef>

#include "engine/query_result.hpp"
#include "store/site_store.hpp"

namespace hyperfile {

class ParallelEngine {
 public:
  /// `workers` == 0 selects std::thread::hardware_concurrency().
  explicit ParallelEngine(const SiteStore& store, std::size_t workers = 0);

  /// Safe to call concurrently: every run owns its pool and execution.
  Result<QueryResult> run(const Query& query) const;

  std::size_t workers() const { return workers_; }

 private:
  const SiteStore& store_;
  std::size_t workers_;
};

}  // namespace hyperfile
