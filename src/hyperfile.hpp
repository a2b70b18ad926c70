// Umbrella header: the public API of the HyperFile library.
//
//   #include "hyperfile.hpp"
//
// pulls in everything an application needs — the data model, the query
// language, the engines (local / parallel / distributed / simulated), the
// store with its persistence and maintenance helpers, and the indexing
// facilities. Subsystem headers remain individually includable for
// finer-grained builds.
#pragma once

#include "baseline/file_server.hpp"
#include "common/logging.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dist/client.hpp"
#include "dist/cluster.hpp"
#include "dist/site_server.hpp"
#include "engine/local_engine.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/query_result.hpp"
#include "index/accelerate.hpp"
#include "index/attribute_index.hpp"
#include "index/explain.hpp"
#include "index/reachability_index.hpp"
#include "model/object.hpp"
#include "model/type_registry.hpp"
#include "naming/name_registry.hpp"
#include "naming/persist.hpp"
#include "net/inproc.hpp"
#include "net/epoll.hpp"
#include "query/builder.hpp"
#include "query/parser.hpp"
#include "query/rewrite.hpp"
#include "sim/simulation.hpp"
#include "store/gc.hpp"
#include "store/site_store.hpp"
#include "store/set_algebra.hpp"
#include "store/snapshot.hpp"
#include "store/versioning.hpp"
#include "workload/paper_workload.hpp"
