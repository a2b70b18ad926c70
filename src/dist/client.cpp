#include "dist/client.hpp"

#include <chrono>

namespace hyperfile {

bool Client::request_lost(SiteId server) {
  bool lost = false;
  for (const PeerEvent& ev : endpoint_->take_peer_events()) {
    lost |= ev.peer == server && !ev.up;
  }
  return lost;
}

Result<QueryResult> Client::run_at(SiteId server, const Query& query,
                                   Duration timeout) {
  if (auto v = query.validate(); !v.ok()) return v.error();

  const QuerySeq seq = next_seq_++;
  wire::ClientRequest req;
  req.client_seq = seq;
  req.query = query;
  (void)endpoint_->take_peer_events();  // outages before this request
  if (auto r = endpoint_->send(server, std::move(req)); !r.ok()) return r.error();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout.count());
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return make_error(Errc::kTimeout, "no reply from site " +
                                            std::to_string(server) +
                                            " within deadline");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
    auto env = endpoint_->recv(Duration(remaining.count()));
    if (!env.has_value()) {
      if (request_lost(server)) {
        return make_error(Errc::kIo, "request to site " +
                                         std::to_string(server) +
                                         " lost: connection failed");
      }
      continue;
    }
    auto* reply = std::get_if<wire::ClientReply>(&env->message);
    if (reply == nullptr) continue;        // stray message: ignore
    if (reply->client_seq != seq) continue;  // reply to an older query

    if (!reply->ok) return make_error(Errc::kInvalidArgument, reply->error);

    QueryResult result;
    result.ids = std::move(reply->ids);
    result.values.reserve(reply->values.size());
    for (auto& v : reply->values) {
      result.values.push_back({v.slot, v.source, std::move(v.value)});
    }
    result.slot_names = query.retrieve_slots();
    result.total_count = reply->total_count;
    result.count_only = reply->count_only;
    result.partial = reply->partial;
    result.dropped_items = reply->dropped_items;
    result.trace.query_id = reply->qid.to_string();
    result.trace.elapsed_us = reply->elapsed_us;
    result.trace.spans = std::move(reply->spans);
    return result;
  }
}

Result<SiteId> Client::move(const ObjectId& id, SiteId to, Duration timeout) {
  const QuerySeq seq = next_seq_++;
  wire::MoveCommand mc;
  mc.client_seq = seq;
  mc.id = id;
  mc.to = to;
  mc.reply_to = endpoint_->self();
  const SiteId first_stop =
      id.presumed_site != kNoSite ? id.presumed_site : id.birth_site;
  (void)endpoint_->take_peer_events();  // outages before this request
  if (auto r = endpoint_->send(first_stop, mc); !r.ok()) return r.error();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout.count());
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return make_error(Errc::kTimeout, "no move reply within deadline");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
    auto env = endpoint_->recv(Duration(remaining.count()));
    if (!env.has_value()) {
      if (request_lost(first_stop)) {
        return make_error(Errc::kIo, "move request to site " +
                                         std::to_string(first_stop) +
                                         " lost: connection failed");
      }
      continue;
    }
    auto* reply = std::get_if<wire::MoveReply>(&env->message);
    if (reply == nullptr || reply->client_seq != seq) continue;
    if (!reply->ok) return make_error(Errc::kNotFound, reply->error);
    return reply->now_at;
  }
}

}  // namespace hyperfile
