// Message endpoint abstraction: what a HyperFile site (or client) uses to
// talk to the rest of the deployment. Two implementations:
//   * InProcNetwork (net/inproc.hpp) — threads in one process;
//   * EpollNetwork  (net/epoll.hpp)  — real sockets on localhost/LAN.
// FaultInjectingEndpoint (net/faulty.hpp) decorates either.
//
// Both serialize every message through the wire format, so the in-process
// runtime exercises exactly the bytes a TCP deployment would exchange.
#pragma once

#include <optional>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"
#include "wire/message.hpp"

namespace hyperfile {

/// A peer's connection died (`up == false`: frames already accepted for it
/// may be lost with their termination weight, and sends fail until it is
/// back), or a peer reported down is reachable again (`up == true`).
struct PeerEvent {
  SiteId peer = kNoSite;
  bool up = false;
  bool operator==(const PeerEvent&) const = default;
};

class MessageEndpoint {
 public:
  virtual ~MessageEndpoint() = default;

  virtual SiteId self() const = 0;

  /// Fire-and-forget send (the paper's protocol needs no request/response
  /// pairing: results flow back as ordinary messages).
  virtual Result<void> send(SiteId to, wire::Message message) = 0;

  /// Blocking receive with timeout; nullopt on timeout or shutdown.
  HF_BLOCKING virtual std::optional<wire::Envelope> recv(Duration timeout) = 0;

  /// Interrupt a parked recv() from another thread; it returns early as if
  /// it timed out. Latched, not edge-triggered: a wake landing between two
  /// recv() calls is consumed by the next one. Every endpoint can do this,
  /// so a consumer may park in recv() until its next periodic deadline.
  HF_ANY_THREAD virtual void wake_recv() = 0;

  /// Reachability changes the endpoint noticed on its own, between sends,
  /// since the last call; a parked recv() is woken when one is recorded.
  /// Default: none — the endpoint reports failure synchronously from send().
  HF_ANY_THREAD virtual std::vector<PeerEvent> take_peer_events() {
    return {};
  }
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t deref_messages = 0;
  std::uint64_t batch_deref_messages = 0;
  std::uint64_t result_messages = 0;
  std::uint64_t start_messages = 0;
  std::uint64_t done_messages = 0;

  void record(const wire::Message& m, std::size_t bytes);
  /// Same classification from a Message::index() captured before the
  /// message was consumed by encoding — lets transports count per-type
  /// without re-decoding the frame.
  void record_tag(std::size_t variant_index, std::size_t bytes);
  NetworkStats& operator+=(const NetworkStats& o);
};

}  // namespace hyperfile
