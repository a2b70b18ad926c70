// Client library: submit a query to an originating server and await the
// reply. Mirrors the paper's experimental client, which "read a query from a
// script, submitted it to HyperFile, received the result, and then went on
// to the next query"; it "ran at a separate machine from any of the servers"
// — here, on its own endpoint id.
//
// Thread ownership (DESIGN.md §10): one Client = one caller thread. The
// request/reply protocol on the single endpoint (and next_seq_) is not
// locked; concurrent querying is done with multiple Clients (Cluster's
// `clients` parameter), never by sharing one.
#pragma once

#include <memory>

#include "engine/query_result.hpp"
#include "net/endpoint.hpp"

namespace hyperfile {

class Client {
 public:
  /// `default_server` is the site queries are submitted to unless overridden.
  Client(std::unique_ptr<MessageEndpoint> endpoint, SiteId default_server)
      : endpoint_(std::move(endpoint)), default_server_(default_server) {}

  /// Run `query` at the default server; blocks until the reply or timeout.
  Result<QueryResult> run(const Query& query,
                          Duration timeout = Duration(30'000'000)) {
    return run_at(default_server_, query, timeout);
  }

  /// Run `query` with an explicit originating site.
  Result<QueryResult> run_at(SiteId server, const Query& query,
                             Duration timeout = Duration(30'000'000));

  /// Migrate an object to another site while the deployment runs. The
  /// command goes to the id's presumed site and chases stale hints; on
  /// success the returned SiteId is the object's new home. Pointers to the
  /// object stay valid throughout (paper Section 4's naming scheme).
  Result<SiteId> move(const ObjectId& id, SiteId to,
                      Duration timeout = Duration(30'000'000));

  SiteId self() const { return endpoint_->self(); }

 private:
  /// True when the endpoint reports `server`'s connection died since the
  /// request went out — no reply is coming, so waiting out the deadline is
  /// moot.
  bool request_lost(SiteId server);

  std::unique_ptr<MessageEndpoint> endpoint_;
  SiteId default_server_;
  QuerySeq next_seq_ = 1;
};

}  // namespace hyperfile
