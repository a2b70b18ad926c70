#include "engine/local_engine.hpp"

namespace hyperfile {

Result<QueryResult> run_to_completion(SiteExecution& exec) {
  const Query& query = exec.query();
  if (auto v = query.validate(); !v.ok()) return v.error();
  if (auto s = exec.seed_initial(); !s.ok()) return s.error();
  exec.drain();

  QueryResult result;
  result.ids = exec.take_result_ids();
  result.values = exec.take_retrieved();
  result.slot_names = query.retrieve_slots();
  result.count_only = query.count_only();
  result.total_count = result.ids.size();
  result.stats = exec.stats();
  return result;
}

Result<QueryResult> LocalEngine::run_readonly(const Query& query) const {
  ExecutionOptions options;
  options.discipline = discipline_;
  QueryExecution exec(query, store_, std::move(options));
  return run_to_completion(exec);
}

Result<QueryResult> LocalEngine::run(const Query& query) {
  auto result = run_readonly(query);
  if (!result.ok()) return result;
  if (!query.result_set_name().empty()) {
    store_.create_set(query.result_set_name(), result.value().ids);
  }
  return result;
}

}  // namespace hyperfile
