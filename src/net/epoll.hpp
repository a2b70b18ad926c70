// TCP message network: one epoll loop over non-blocking sockets.
//
// The 1991 prototype ran over UDP and TCP/IP on a network of IBM PC/RTs;
// this is the modern equivalent for deployments where sites are separate
// processes (or separate machines). Frames are length-prefixed wire
// envelopes (docs/WIRE_PROTOCOL.md):
//
//   [u32 big-endian frame length][envelope bytes]
//
// Each EpollNetwork is one endpoint: it listens on its own port, lazily
// opens one outbound connection per peer, and funnels every inbound frame
// into a single mailbox — the same MessageEndpoint semantics as the
// in-process network. A single event-loop thread multiplexes every socket
// (the listener, connects in flight, established connections), so threads
// do not grow with connections (DESIGN.md §17):
//
//   * Sockets are non-blocking. Outbound connects return EINPROGRESS and
//     complete (or fail) as an EPOLLOUT event; no caller ever sleeps inside
//     a connect.
//   * send() never touches a socket. It encodes the frame, appends it to the
//     destination connection's bounded send queue, and wakes the loop via an
//     eventfd. The loop drains queues with writev(), coalescing up to
//     kWritevBatch frames per syscall.
//   * Backpressure is explicit: when a peer's queue is full, send() fails
//     fast with Errc::kBusy and bumps `net.epoll.busy_rejects`. Callers
//     (send_with_retry) treat kBusy as retryable; nothing blocks and
//     nothing is silently dropped.
//   * Failure is prompt. Once a connection to a peer in the static table
//     dies, the peer is *down*: every send to it fails kIo at once, queueing
//     nothing, while the loop re-probes it with frameless connects on a
//     capped backoff. A probe that connects (or a frame from the peer) ends
//     the outage. Both edges are reported through take_peer_events(), so
//     the owner writes off the weight of frames lost with the connection
//     (counted into `net.epoll.dropped_frames`) now rather than at the
//     context TTL, and re-checks a revived peer at once.
//
// Learned routes: when a frame arrives from a site not in the static peer
// table (e.g. an hfq client on an ephemeral port), the connection is
// remembered and replies flow back over it. Such a route cannot be
// redialled, so its death leaves a one-shot tombstone instead: the next
// send to that site fails kIo.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "net/channel.hpp"
#include "net/endpoint.hpp"

namespace hyperfile {

struct TcpPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct EpollOptions {
  /// Per-connection send-queue bound, in frames. A full queue makes send()
  /// fail with kBusy — the backpressure contract (DESIGN.md §17). The
  /// default comfortably holds a drain burst yet caps per-peer buffering at
  /// a few MiB of typical frames.
  std::size_t max_queue_frames = 1024;
};

class EpollNetwork final : public MessageEndpoint {
 public:
  /// `peers[i]` is where site i listens; `self` may index into it (its port
  /// is then the listen port) or lie outside the table (client endpoints:
  /// an ephemeral port is used — see bound_port()). Port 0 also picks an
  /// ephemeral port.
  static Result<std::unique_ptr<EpollNetwork>> create(
      SiteId self, std::vector<TcpPeer> peers, EpollOptions options = {});

  ~EpollNetwork() override;

  EpollNetwork(const EpollNetwork&) = delete;
  EpollNetwork& operator=(const EpollNetwork&) = delete;

  SiteId self() const override { return self_; }

  /// The port the endpoint actually listens on (== the configured port, or
  /// the kernel-assigned one when configured as 0).
  std::uint16_t bound_port() const { return bound_port_; }

  /// Enqueue-and-wake: never blocks, never touches a socket. kBusy when the
  /// destination queue is full; kIo while the destination is down, or once
  /// after a learned route died.
  HF_ANY_THREAD Result<void> send(SiteId to, wire::Message message) override;
  HF_BLOCKING std::optional<wire::Envelope> recv(Duration timeout) override;

  /// Interrupts the *inbox* wait — distinct from the private wake(), which
  /// kicks the socket loop's epoll_wait via the eventfd.
  HF_ANY_THREAD void wake_recv() override { inbox_.interrupt(); }

  HF_ANY_THREAD std::vector<PeerEvent> take_peer_events() override;

  /// Update a peer's address (e.g. after it bound an ephemeral port). Drops
  /// any cached connection to that peer and forgets an outage.
  void update_peer(SiteId site, TcpPeer peer);

  void shutdown();

  NetworkStats stats() const;

  /// True if a cached outbound connection or learned route to `to` exists.
  /// Observability hook for tests: a dead connection must disappear from
  /// here once the loop notices.
  bool has_route(SiteId to) const;

 private:
  /// One connection. Senders touch only the mu-guarded queue half; every
  /// socket operation and all parse/flush state belong to the loop thread.
  struct Conn {
    Conn(int fd_in, bool connecting_in, SiteId probe_for_in = kNoSite)
        : fd(fd_in), probe_for(probe_for_in), connecting(connecting_in) {}

    const int fd;
    /// Set on a frameless reconnect probe to a down peer: the site whose
    /// outage a successful connect ends.
    const SiteId probe_for;

    Mutex mu;
    /// Encoded frames (length prefix included) waiting for the loop.
    std::deque<wire::Bytes> sendq HF_GUARDED_BY(mu);
    std::size_t sendq_bytes HF_GUARDED_BY(mu) = 0;
    /// Set by the loop at teardown; enqueuers fail kIo instead of feeding a
    /// closed connection.
    bool dead HF_GUARDED_BY(mu) = false;
    /// True while this Conn sits on pending_flush_ — one wake per burst of
    /// sends, not one per frame.
    std::atomic<bool> flush_queued{false};

    // --- loop-thread-only state (no lock: single-owner confinement) ---
    /// Non-blocking connect still in flight; completion is the first
    /// EPOLLOUT (checked via SO_ERROR). Written once pre-handoff.
    bool connecting;
    /// EPOLLOUT currently armed (tracked to avoid redundant epoll_ctl).
    bool want_write = false;
    /// Bytes of sendq.front() already written (short writev).
    std::size_t front_off = 0;
    /// Unparsed inbound bytes (partial frames between reads).
    wire::Bytes rdbuf;
    /// Last site that decoded successfully here — peer identity for logs.
    SiteId last_src = kNoSite;
  };
  using ConnPtr = std::shared_ptr<Conn>;
  using Clock = std::chrono::steady_clock;

  /// A static-table peer whose connection died: sends fail kIo until a
  /// probe connects or the peer is heard from.
  struct Outage {
    std::string reason;
    ConnPtr probe;                 // reconnect probe in flight, or null
    Clock::time_point next_probe;  // next attempt once no probe is in flight
    Clock::duration backoff;       // re-probe interval, 1 ms doubling to 32
  };

  EpollNetwork(SiteId self, std::vector<TcpPeer> peers, EpollOptions options);

  Result<void> start();
  void wake();
  /// Non-blocking connect to `to`'s listed address; the fd of a socket whose
  /// handshake completes (or fails) as an EPOLLOUT event.
  Result<int> dial(SiteId to) HF_REQUIRES(conn_mu_);

  // Event-loop internals; confined to loop_thread_ (hfverify-checked).
  HF_EVENT_LOOP_ONLY void run_loop();
  HF_EVENT_LOOP_ONLY int loop_timeout_ms() const;
  HF_EVENT_LOOP_ONLY void drain_pending();
  HF_EVENT_LOOP_ONLY void probe_down_peers();
  HF_EVENT_LOOP_ONLY void adopt_conn(const ConnPtr& conn);
  HF_EVENT_LOOP_ONLY void accept_ready();
  HF_EVENT_LOOP_ONLY void handle_event(int fd, std::uint32_t events);
  HF_EVENT_LOOP_ONLY void connected(const ConnPtr& conn);
  HF_EVENT_LOOP_ONLY void read_conn(const ConnPtr& conn);
  HF_EVENT_LOOP_ONLY void flush_conn(const ConnPtr& conn);
  HF_EVENT_LOOP_ONLY void set_want_write(const ConnPtr& conn, bool want);
  HF_EVENT_LOOP_ONLY void teardown_conn(const ConnPtr& conn,
                                        const std::string& reason);
  /// Route purge after a connection died: outage (reported) for
  /// static-table peers, tombstone for learned ones.
  HF_EVENT_LOOP_ONLY void purge_routes(const ConnPtr& conn,
                                       const std::string& reason);

  SiteId self_;
  const EpollOptions options_;
  std::uint16_t bound_port_ = 0;  // written once by start()
  int listen_fd_ = -1;            // written once by start()
  int epoll_fd_ = -1;             // written once by start()
  int wake_fd_ = -1;              // eventfd; written once by start()
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;

  /// Routing tables and the peer address book. Never held across a syscall
  /// that can block (connects are non-blocking by construction).
  mutable Mutex conn_mu_;
  std::vector<TcpPeer> peers_ HF_GUARDED_BY(conn_mu_);
  std::map<SiteId, ConnPtr> conns_ HF_GUARDED_BY(conn_mu_);    // outbound
  std::map<SiteId, ConnPtr> learned_ HF_GUARDED_BY(conn_mu_);  // inbound
  /// Static-table peers that are down (see Outage).
  std::map<SiteId, Outage> down_ HF_GUARDED_BY(conn_mu_);
  /// Learned-route sites whose connection died: the next send() consumes
  /// the tombstone and fails kIo.
  std::map<SiteId, std::string> failed_ HF_GUARDED_BY(conn_mu_);
  /// Outages begun and ended, not yet collected by take_peer_events().
  std::vector<PeerEvent> events_ HF_GUARDED_BY(conn_mu_);

  /// Sender → loop handoff lists (the only cross-thread mutation channel).
  Mutex pending_mu_;
  std::vector<ConnPtr> pending_adopt_ HF_GUARDED_BY(pending_mu_);
  std::vector<ConnPtr> pending_flush_ HF_GUARDED_BY(pending_mu_);
  std::vector<ConnPtr> pending_close_ HF_GUARDED_BY(pending_mu_);

  /// Loop-thread-only: fd → connection for event dispatch.
  std::map<int, ConnPtr> conns_by_fd_;
  /// Loop-thread-only: earliest due re-probe of a down peer (max = none).
  Clock::time_point next_probe_ = Clock::time_point::max();

  Channel<wire::Envelope> inbox_;

  mutable Mutex stats_mu_;
  NetworkStats stats_ HF_GUARDED_BY(stats_mu_);
};

}  // namespace hyperfile
