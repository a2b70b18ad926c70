#include "wire/message.hpp"

#include <iterator>

#include "wire/serialize.hpp"

namespace hyperfile {

template <class Ar>
void fields(Ar& ar, TraceSpan& s) {
  ar(s.site, s.first_hop, s.path, s.messages, s.duplicates, s.items,
     s.forwarded, s.results, s.drains, s.drain_us, s.retries, s.suspicions,
     s.pruned, s.failovers, s.replica_lag);
}

namespace wire {
namespace {

/// A dereference enters the query at filter 1..n, or at n + 1 once it has
/// passed every filter. Anything else would index past the filter list at
/// the receiving site, so it is rejected with the frame.
template <class Ar>
void check_start(Ar& ar, std::uint32_t start, const Query& q) {
  if constexpr (Ar::kDecoding) {
    if (ar.ok() && (start < 1 || start > q.size() + 1)) {
      ar.fail("entry filter " + std::to_string(start) + " outside 1.." +
              std::to_string(q.size() + 1));
    }
  }
}

}  // namespace

template <class Ar>
void fields(Ar& ar, QueryId& q) {
  ar(q.originator, q.seq);
}

template <class Ar>
void fields(Ar& ar, DerefRequest& m) {
  ar(m.qid, m.query, m.oid, m.start, m.iter_stack, m.weight, m.msg_seq, m.hop,
     m.path);
  check_start(ar, m.start, m.query);
}

template <class Ar>
void fields(Ar& ar, StartQuery& m) {
  ar(m.qid, m.query, m.ids, m.local_set_name, m.weight, m.msg_seq, m.hop,
     m.path);
}

template <class Ar>
void fields(Ar& ar, RetrievedValue& v) {
  ar(v.slot, v.source, v.value);
}

template <class Ar>
void fields(Ar& ar, ResultMessage& m) {
  ar(m.qid, m.ids, m.values, m.local_count, m.count_only, m.weight, m.msg_seq,
     m.dropped_items, m.spans);
}

template <class Ar>
void fields(Ar& ar, QueryDone& m) {
  ar(m.qid);
}

template <class Ar>
void fields(Ar& ar, ClientRequest& m) {
  ar(m.client_seq, m.query);
}

template <class Ar>
void fields(Ar& ar, ClientReply& m) {
  ar(m.client_seq, m.ok, m.error, m.ids, m.values, m.total_count,
     m.count_only, m.partial, m.dropped_items, m.qid, m.elapsed_us, m.spans);
}

template <class Ar>
void fields(Ar& ar, DerefEntry& e) {
  ar(e.oid, e.start, e.iter_stack);
}

template <class Ar>
void fields(Ar& ar, BatchDerefRequest& m) {
  ar(m.qid, m.query, m.items, m.weight, m.msg_seq, m.hop, m.path);
  for (const DerefEntry& e : m.items) check_start(ar, e.start, m.query);
}

template <class Ar>
void fields(Ar& ar, TermAck& m) {
  ar(m.qid, m.msg_seq);
}

template <class Ar>
void fields(Ar& ar, MoveCommand& m) {
  ar(m.client_seq, m.id, m.to, m.reply_to, m.hops_left);
}

template <class Ar>
void fields(Ar& ar, MoveData& m) {
  ar(m.object, m.reply_to, m.client_seq);
}

template <class Ar>
void fields(Ar& ar, LocationUpdate& m) {
  ar(m.id, m.now_at);
}

template <class Ar>
void fields(Ar& ar, MoveReply& m) {
  ar(m.client_seq, m.ok, m.error, m.now_at);
}

template <class Ar>
void fields(Ar& ar, PingMessage& m) {
  ar(m.want_reply);
}

template <class Ar>
void fields(Ar& ar, SummaryRecord& r) {
  ar(r.origin, r.epoch, r.version, r.hash_count, r.entries, r.age_us, r.bits);
}

template <class Ar>
void fields(Ar& ar, SummaryMessage& m) {
  ar(m.records, m.msg_seq);
}

template <class Ar>
void fields(Ar& ar, WalSubscribe& m) {
  ar(m.follower, m.ship_epoch, m.wal_offset, m.msg_seq);
}

template <class Ar>
void fields(Ar& ar, WalSegment& m) {
  ar(m.primary, m.ship_epoch, m.from_offset, m.end_offset, m.records,
     m.msg_seq);
}

template <class Ar>
void fields(Ar& ar, WalCatchup& m) {
  ar(m.primary, m.ship_epoch, m.wal_offset, m.snapshot, m.msg_seq);
}

namespace {

// The wire tag of a message is its variant index + 1. This table names the
// tags; the asserts pin each alternative to its tag, so reordering Message
// fails to compile instead of silently renumbering the protocol.
constexpr const char* kMessageNames[] = {
    "DerefRequest",       // 1
    "StartQuery",         // 2
    "ResultMessage",      // 3
    "QueryDone",          // 4
    "ClientRequest",      // 5
    "ClientReply",        // 6
    "BatchDerefRequest",  // 7
    "TermAck",            // 8
    "MoveCommand",        // 9
    "MoveData",           // 10
    "LocationUpdate",     // 11
    "MoveReply",          // 12
    "PingMessage",        // 13
    "SummaryMessage",     // 14
    "WalSubscribe",       // 15
    "WalSegment",         // 16
    "WalCatchup",         // 17
};
static_assert(std::size(kMessageNames) == std::variant_size_v<Message>);

constexpr std::uint8_t kFirstTag = 1;

template <class T, std::size_t I = 0>
constexpr std::size_t tag_of() {
  if constexpr (std::is_same_v<T, std::variant_alternative_t<I, Message>>) {
    return I + kFirstTag;
  } else {
    return tag_of<T, I + 1>();
  }
}

static_assert(tag_of<DerefRequest>() == 1);
static_assert(tag_of<StartQuery>() == 2);
static_assert(tag_of<ResultMessage>() == 3);
static_assert(tag_of<QueryDone>() == 4);
static_assert(tag_of<ClientRequest>() == 5);
static_assert(tag_of<ClientReply>() == 6);
static_assert(tag_of<BatchDerefRequest>() == 7);
static_assert(tag_of<TermAck>() == 8);
static_assert(tag_of<MoveCommand>() == 9);
static_assert(tag_of<MoveData>() == 10);
static_assert(tag_of<LocationUpdate>() == 11);
static_assert(tag_of<MoveReply>() == 12);
static_assert(tag_of<PingMessage>() == 13);
static_assert(tag_of<SummaryMessage>() == 14);
static_assert(tag_of<WalSubscribe>() == 15);
static_assert(tag_of<WalSegment>() == 16);
static_assert(tag_of<WalCatchup>() == 17);

}  // namespace

template <class Ar>
void fields(Ar& ar, Message& m) {
  ar.variant(m, kFirstTag, "message tag");
}

/// src, dst, then the message as a length-prefixed payload.
template <class Ar>
void fields(Ar& ar, Envelope& e) {
  ar(e.src, e.dst);
  ar.length_prefixed([&] { ar(e.message); });
}

const char* message_type_name(const Message& m) {
  return kMessageNames[m.index()];
}

Bytes encode_message(const Message& m) { return encode(m); }

Result<Message> decode_message(std::span<const std::uint8_t> data) {
  return decode<Message>(data);
}

void encode_envelope(const Envelope& env, Encoder& e) {
  e.clear();
  e(env);
}

Bytes encode_envelope(const Envelope& env) { return encode(env); }

Result<Envelope> decode_envelope(std::span<const std::uint8_t> data) {
  return decode<Envelope>(data);
}

}  // namespace wire
}  // namespace hyperfile
