// Single-site query engine: the whole database lives in one SiteStore and
// queries run to completion locally (the paper's single-machine baseline
// configuration). This is the simplest way to use HyperFile:
//
//   SiteStore store(0);
//   ... populate, store.create_set("S", ids) ...
//   LocalEngine engine(store);
//   QueryResult r = engine.run(parse_query(
//       "S [ (pointer, \"Reference\", ?X) | ^^X ]3"
//       " (keyword, \"Distributed\", ?) -> T").value());
//
// After a run, the result set is materialized in the store under the
// query's result name, so follow-up queries can start from it.
#pragma once

#include "engine/query_result.hpp"
#include "store/site_store.hpp"

namespace hyperfile {

class LocalEngine {
 public:
  explicit LocalEngine(SiteStore& store,
                       WorkSetDiscipline discipline = WorkSetDiscipline::kFifo)
      : store_(store), discipline_(discipline) {}

  /// Run the query to completion. Binds the result set name (if any) in the
  /// store so later queries can use it as an initial set.
  Result<QueryResult> run(const Query& query);

  /// As run(), but does not touch the store (no result-set binding) —
  /// usable when the store is shared read-only across threads.
  Result<QueryResult> run_readonly(const Query& query) const;

  SiteStore& store() { return store_; }

 private:
  SiteStore& store_;
  WorkSetDiscipline discipline_;
};

/// Run one execution to completion: validate its query, seed it from the
/// initial set, drain it, and assemble the client-facing result. The one
/// place a QueryResult is built from a SiteExecution (LocalEngine and
/// ParallelEngine both finish here).
Result<QueryResult> run_to_completion(SiteExecution& exec);

}  // namespace hyperfile
