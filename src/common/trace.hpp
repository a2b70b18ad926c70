// Per-query distributed tracing (DESIGN.md §12).
//
// A query's execution is scattered across sites: the originator seeds it,
// participants drain work queues and forward dereferences, results flow
// back. The paper evaluates all of this through one end-to-end number
// (client response time); a trace decomposes that number so a slow query
// can be attributed to queue wait, filter scan, wire hops, or retries.
//
// Mechanism: every computation message (StartQuery / DerefRequest; the
// simulator's BatchDerefRequest too) carries a hop number and the site path
// that produced it. Each site keeps ONE TraceSpan per (query, site) — cumulative counters
// on the site's own monotonic clock — and piggybacks it on the
// ResultMessages it already sends to the originator. The originator merges
// spans field-wise by max (the counters are cumulative and monotonic, so a
// duplicate-suppressed redelivery merges to the same state — idempotent by
// construction, no double-recording) and hands the assembled QueryTrace to
// the client on the ClientReply.
//
// Clock caveat: span durations are measured on each site's local
// steady_clock. Durations are comparable across sites; absolute times are
// not, which is why spans carry only durations and counts, never
// timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace hyperfile {

/// One site's cumulative view of one query. All counters are monotonic over
/// the query's lifetime at that site; merging two snapshots of the same
/// span is field-wise max (see merge_into).
struct TraceSpan {
  SiteId site = kNoSite;
  /// Hop number of the message that first engaged this site (0 at the
  /// originator; a site reached directly from the originator is hop 1).
  std::uint32_t first_hop = 0;
  /// Site path of the engaging message, originator first, capped at
  /// kMaxPath entries.
  std::vector<SiteId> path;

  std::uint64_t messages = 0;    // computation messages accepted
  std::uint64_t duplicates = 0;  // messages suppressed as duplicates
  std::uint64_t items = 0;       // work items that entered the local queue
  std::uint64_t forwarded = 0;   // dereferences forwarded to other sites
  std::uint64_t results = 0;     // result ids/values produced here
  std::uint64_t drains = 0;      // drain passes over the local queue
  std::uint64_t drain_us = 0;    // local monotonic time inside drains
  std::uint64_t retries = 0;     // send retries attributed to this query
  std::uint64_t suspicions = 0;  // peers this site suspected dead during
                                 // the query (liveness, DESIGN.md §13)
  std::uint64_t pruned = 0;      // remote dereferences skipped because the
                                 // peer's summary proved them fruitless
                                 // (DESIGN.md §16)
  std::uint64_t failovers = 0;   // dereferences redirected to a suspected
                                 // primary's replica (DESIGN.md §18)
  std::uint64_t replica_lag = 0; // work items served from a replica whose
                                 // watermark trailed the primary's last
                                 // shipped offset — the honesty marker on
                                 // failover answers (DESIGN.md §18)

  static constexpr std::size_t kMaxPath = 32;

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

/// Merge a later (or redelivered) snapshot of the same site's span into
/// `into`. Counters take the max — cumulative monotonic counters mean the
/// larger value is the more recent snapshot, and re-merging an old or
/// duplicated snapshot is a no-op. first_hop takes the min (earliest
/// engagement); path follows first_hop.
void merge_into(TraceSpan& into, const TraceSpan& from);

/// The assembled end-to-end trace returned on QueryResult.
struct QueryTrace {
  std::string query_id;       // "qN@site" (wire::QueryId::to_string)
  std::uint64_t elapsed_us = 0;  // request->reply on the originator's clock
  std::vector<TraceSpan> spans;  // sorted by site, originator included

  bool empty() const { return spans.empty(); }

  /// Human-readable multi-line rendering (one line per span).
  std::string to_text() const;
  /// Stable JSON: {"query_id":..., "elapsed_us":..., "spans":[{...}]}.
  std::string to_json() const;
};

}  // namespace hyperfile
