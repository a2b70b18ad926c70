#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/metrics.hpp"
#include "net/channel.hpp"
#include "net/epoll.hpp"
#include "net/faulty.hpp"
#include "net/inproc.hpp"
#include "query/parser.hpp"

namespace hyperfile {
namespace {

constexpr Duration kShort{50'000};    // 50ms
constexpr Duration kLong{2'000'000};  // 2s

TEST(Channel, PushPop) {
  Channel<int> ch;
  EXPECT_TRUE(ch.push(1));
  EXPECT_TRUE(ch.push(2));
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_EQ(ch.try_pop().value(), 1);
  EXPECT_EQ(ch.pop_wait(kShort).value(), 2);
  EXPECT_FALSE(ch.try_pop().has_value());
}

TEST(Channel, PopWaitTimesOut) {
  Channel<int> ch;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(ch.pop_wait(kShort).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(40));
}

TEST(Channel, CloseUnblocksAndRejectsPush) {
  Channel<int> ch;
  std::thread waiter([&] { EXPECT_FALSE(ch.pop_wait(kLong).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close();
  waiter.join();
  EXPECT_FALSE(ch.push(1));
  EXPECT_TRUE(ch.closed());
}

TEST(Channel, DrainAfterClose) {
  Channel<int> ch;
  ch.push(7);
  ch.close();
  // Items pushed before close remain poppable.
  EXPECT_EQ(ch.pop_wait(kShort).value(), 7);
  EXPECT_FALSE(ch.pop_wait(kShort).has_value());
}

TEST(Channel, ReopenAfterCloseDiscardsBacklog) {
  // Crash-stop semantics (Cluster::restart_site): a rebooted process has an
  // empty socket buffer, so reopen() must both accept new pushes and forget
  // anything queued before the crash.
  Channel<int> ch;
  ch.push(7);
  ch.close();
  EXPECT_FALSE(ch.push(8));
  ch.reopen();
  EXPECT_FALSE(ch.closed());
  EXPECT_FALSE(ch.try_pop().has_value()) << "pre-crash backlog survived";
  EXPECT_TRUE(ch.push(9));
  EXPECT_EQ(ch.pop_wait(kShort).value(), 9);
}

TEST(Channel, ConcurrentProducersConsumers) {
  Channel<int> ch;
  constexpr int kPerProducer = 500;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 4; ++p) {
    threads.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) ch.push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto v = ch.pop_wait(kLong);
        if (v.has_value()) sum += *v;
      }
    });
  }
  for (auto& t : threads) t.join();
  const int n = 4 * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

wire::Message sample_message() {
  wire::QueryDone qd;
  qd.qid = {1, 42};
  return qd;
}

TEST(InProcNetwork, DeliversBetweenEndpoints) {
  InProcNetwork net(3);
  auto a = net.endpoint(0);
  auto b = net.endpoint(1);
  ASSERT_TRUE(a->send(1, sample_message()).ok());
  auto env = b->recv(kLong);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->src, 0u);
  EXPECT_EQ(env->dst, 1u);
  EXPECT_EQ(std::get<wire::QueryDone>(env->message).qid, (wire::QueryId{1, 42}));
}

TEST(InProcNetwork, UnknownDestinationIsError) {
  InProcNetwork net(2);
  auto a = net.endpoint(0);
  auto r = a->send(9, sample_message());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kNotFound);
}

TEST(InProcNetwork, ShutdownUnblocksReceivers) {
  InProcNetwork net(1);
  auto ep = net.endpoint(0);
  std::thread waiter([&] { EXPECT_FALSE(ep->recv(kLong).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net.shutdown();
  waiter.join();
  // Sends to a closed mailbox fail.
  auto other = net.endpoint(0);
  EXPECT_FALSE(other->send(0, sample_message()).ok());
}

TEST(InProcNetwork, CountsMessagesAndBytes) {
  InProcNetwork net(2);
  auto a = net.endpoint(0);
  ASSERT_TRUE(a->send(1, sample_message()).ok());
  ASSERT_TRUE(a->send(1, sample_message()).ok());
  auto stats = net.stats();
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_EQ(stats.done_messages, 2u);
  EXPECT_GT(stats.bytes_sent, 0u);
}

TEST(InProcNetwork, MessagesSurviveWireRoundTrip) {
  // A full DerefRequest with a real query must arrive intact.
  InProcNetwork net(2);
  auto a = net.endpoint(0);
  auto b = net.endpoint(1);
  wire::DerefRequest dr;
  dr.qid = {0, 7};
  dr.query = parse_query(R"(S [ (pointer, "R", ?X) | ^^X ]* (?, ?, ?) -> T)").value();
  dr.oid = ObjectId(1, 5, 1);
  dr.start = 3;
  dr.iter_stack = {1, 2};
  dr.weight = {1};
  ASSERT_TRUE(a->send(1, dr).ok());
  auto env = b->recv(kLong);
  ASSERT_TRUE(env.has_value());
  const auto& got = std::get<wire::DerefRequest>(env->message);
  EXPECT_EQ(got.query, dr.query);
  EXPECT_EQ(got.start, 3u);
  EXPECT_EQ(got.iter_stack, (std::vector<std::uint32_t>{1, 2}));
}

// --- FaultInjectingEndpoint -------------------------------------------

TEST(FaultInjection, DropSwallowsFramesSilently) {
  InProcNetwork net(2);
  FaultOptions opts;
  opts.drop_p = 1.0;
  FaultInjectingEndpoint ep(net.endpoint(0), opts);
  auto b = net.endpoint(1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ep.send(1, sample_message()).ok());  // loss is silent
  }
  EXPECT_FALSE(b->recv(kShort).has_value());
  EXPECT_EQ(ep.fault_stats().dropped, 5u);
  EXPECT_EQ(ep.fault_stats().forwarded, 0u);
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

TEST(FaultInjection, DuplicateDeliversTwice) {
  InProcNetwork net(2);
  FaultOptions opts;
  opts.dup_p = 1.0;
  FaultInjectingEndpoint ep(net.endpoint(0), opts);
  auto b = net.endpoint(1);
  ASSERT_TRUE(ep.send(1, sample_message()).ok());
  EXPECT_TRUE(b->recv(kLong).has_value());
  EXPECT_TRUE(b->recv(kLong).has_value());  // the extra copy
  EXPECT_FALSE(b->recv(kShort).has_value());
  EXPECT_EQ(ep.fault_stats().duplicated, 1u);
}

TEST(FaultInjection, PartitionSwallowsUntilHealed) {
  InProcNetwork net(2);
  FaultInjectingEndpoint ep(net.endpoint(0), FaultOptions{});
  auto b = net.endpoint(1);
  ep.partition(1);
  EXPECT_TRUE(ep.send(1, sample_message()).ok());
  EXPECT_FALSE(b->recv(kShort).has_value());
  EXPECT_EQ(ep.fault_stats().partitioned, 1u);
  ep.heal(1);
  EXPECT_TRUE(ep.send(1, sample_message()).ok());
  EXPECT_TRUE(b->recv(kLong).has_value());
}

TEST(FaultInjection, PartitionAllRespectsExemptLinks) {
  InProcNetwork net(3);
  FaultOptions opts;
  opts.exempt = {2};
  FaultInjectingEndpoint ep(net.endpoint(0), opts);
  auto b = net.endpoint(1);
  auto c = net.endpoint(2);
  ep.partition_all();
  EXPECT_TRUE(ep.send(1, sample_message()).ok());
  EXPECT_TRUE(ep.send(2, sample_message()).ok());
  EXPECT_FALSE(b->recv(kShort).has_value());
  EXPECT_TRUE(c->recv(kLong).has_value());  // exempt link stays up
  ep.heal_all();
  EXPECT_TRUE(ep.send(1, sample_message()).ok());
  EXPECT_TRUE(b->recv(kLong).has_value());
}

TEST(FaultInjection, ExemptAndSelfLinksUndisturbed) {
  InProcNetwork net(2);
  FaultOptions opts;
  opts.drop_p = 1.0;
  opts.exempt = {1};
  FaultInjectingEndpoint ep(net.endpoint(0), opts);
  auto b = net.endpoint(1);
  ASSERT_TRUE(ep.send(1, sample_message()).ok());
  EXPECT_TRUE(b->recv(kLong).has_value());
  // Self-sends are always exempt: the fault model is links, not local
  // delivery.
  ASSERT_TRUE(ep.send(0, sample_message()).ok());
  EXPECT_TRUE(ep.recv(kLong).has_value());
  EXPECT_EQ(ep.fault_stats().dropped, 0u);
}

TEST(FaultInjection, HeldFramesReleasedByFlush) {
  InProcNetwork net(2);
  FaultOptions opts;
  opts.delay_p = 1.0;
  FaultInjectingEndpoint ep(net.endpoint(0), opts);
  auto b = net.endpoint(1);
  ASSERT_TRUE(ep.send(1, sample_message()).ok());
  EXPECT_EQ(ep.fault_stats().held, 1u);
  EXPECT_FALSE(b->recv(kShort).has_value());  // still held
  ep.flush_held();
  EXPECT_TRUE(b->recv(kLong).has_value());
}

TEST(FaultInjection, HeldFramesReleasedByRecvTicks) {
  // Delay/reorder never lose messages: endpoint activity (here recv calls,
  // as a polling event loop makes) ticks the clock and releases held frames.
  InProcNetwork net(2);
  FaultOptions opts;
  opts.delay_p = 1.0;
  opts.max_hold_ticks = 3;
  FaultInjectingEndpoint ep(net.endpoint(0), opts);
  auto b = net.endpoint(1);
  ASSERT_TRUE(ep.send(1, sample_message()).ok());
  bool delivered = false;
  for (int tick = 0; tick < 10 && !delivered; ++tick) {
    (void)ep.recv(Duration(1'000));
    delivered = b->recv(kShort).has_value();
  }
  EXPECT_TRUE(delivered);
}

TEST(FaultInjection, CrashFailsLoudlyWherePartitionStaysSilent) {
  // The semantic gap the two primitives model (net/faulty.hpp): a partition
  // makes the wire lie — send() succeeds and the frame vanishes. A crash
  // makes the OS tell the truth — send() fails with kClosed immediately,
  // the way a dead TCP fd does. Protocol code reacts differently (retry vs
  // repay), so the injector must keep them distinct.
  InProcNetwork net(3);
  FaultInjectingEndpoint ep(net.endpoint(0), FaultOptions{});
  auto b = net.endpoint(1);
  auto c = net.endpoint(2);

  ep.partition(1);
  EXPECT_TRUE(ep.send(1, sample_message()).ok());  // the lie
  EXPECT_EQ(ep.fault_stats().partitioned, 1u);

  ep.crash(2);
  auto r = ep.send(2, sample_message());
  ASSERT_FALSE(r.ok());  // the truth
  EXPECT_EQ(r.error().code, Errc::kClosed);
  EXPECT_EQ(ep.fault_stats().crashed, 1u);
  EXPECT_FALSE(b->recv(kShort).has_value());
  EXPECT_FALSE(c->recv(kShort).has_value());

  ep.heal(1);
  ep.revive(2);
  EXPECT_TRUE(ep.send(1, sample_message()).ok());
  EXPECT_TRUE(ep.send(2, sample_message()).ok());
  EXPECT_TRUE(b->recv(kLong).has_value());
  EXPECT_TRUE(c->recv(kLong).has_value());
}

TEST(FaultInjection, CrashOutranksExemption) {
  // exempt links skip drops/partitions (they model a reliable channel), but
  // a dead process is dead on every link — crash wins.
  InProcNetwork net(2);
  FaultOptions opts;
  opts.drop_p = 1.0;
  opts.exempt = {1};
  FaultInjectingEndpoint ep(net.endpoint(0), opts);
  ep.crash(1);
  auto r = ep.send(1, sample_message());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kClosed);
}

TEST(FaultInjection, CrashDropsHeldFramesExactly) {
  // Frames already held for delay/reorder when the peer crashes would have
  // arrived *after* the crash — they must be dropped (and counted, so the
  // conservation law `held == released + crash_dropped` stays exact).
  InProcNetwork net(3);
  FaultOptions opts;
  opts.delay_p = 1.0;
  FaultInjectingEndpoint ep(net.endpoint(0), opts);
  auto b = net.endpoint(1);
  auto c = net.endpoint(2);
  ASSERT_TRUE(ep.send(1, sample_message()).ok());
  ASSERT_TRUE(ep.send(2, sample_message()).ok());
  EXPECT_EQ(ep.fault_stats().held, 2u);

  ep.crash(1);
  ep.flush_held();
  const FaultStats s = ep.fault_stats();
  EXPECT_EQ(s.crash_dropped, 1u);  // the frame bound for the dead peer
  EXPECT_EQ(s.released, 1u);       // the other one still arrives
  EXPECT_EQ(s.held, s.released + s.crash_dropped);
  EXPECT_FALSE(b->recv(kShort).has_value());
  EXPECT_TRUE(c->recv(kLong).has_value());

  // Revival does not resurrect them: a rebooted process has an empty
  // socket buffer.
  ep.revive(1);
  ep.flush_held();
  EXPECT_FALSE(b->recv(kShort).has_value());
}

// --- Socket transport: EpollNetwork over real localhost sockets ----------

/// A message big enough to stress socket buffers: ~3 bytes of varint per
/// iter_stack entry.
wire::Message big_message(std::size_t entries) {
  wire::DerefRequest dr;
  dr.qid = {0, 9};
  dr.oid = ObjectId(1, 1, 1);
  dr.iter_stack.assign(entries, 1'000'000);
  dr.weight = {1};
  return dr;
}

/// Raw localhost listener for driving a transport from outside: bind an
/// ephemeral port, optionally with a tiny receive buffer so the peer's
/// kernel window fills fast.
struct RawListener {
  int fd = -1;
  std::uint16_t port = 0;

  bool open(int rcvbuf = 0, int backlog = 16) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (rcvbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(fd, backlog) < 0) {
      ::close(fd);
      fd = -1;
      return false;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    port = ntohs(bound.sin_port);
    return true;
  }

  int accept_one() const { return ::accept(fd, nullptr, nullptr); }

  ~RawListener() {
    if (fd >= 0) ::close(fd);
  }
};

/// Raw localhost client socket: speaks the wire framing by hand to poke at
/// a transport's inbound frame handling.
struct RawClient {
  int fd = -1;

  bool connect_to(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      fd = -1;
      return false;
    }
    return true;
  }

  bool write_frame(const wire::Bytes& body) const {
    std::uint8_t len[4] = {
        static_cast<std::uint8_t>(body.size() >> 24),
        static_cast<std::uint8_t>(body.size() >> 16),
        static_cast<std::uint8_t>(body.size() >> 8),
        static_cast<std::uint8_t>(body.size()),
    };
    return ::send(fd, len, 4, MSG_NOSIGNAL) == 4 &&
           (body.empty() ||
            ::send(fd, body.data(), body.size(), MSG_NOSIGNAL) ==
                static_cast<ssize_t>(body.size()));
  }

  ~RawClient() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(SocketTransportSuite, LoopbackDeliveryBothDirections) {
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}, {"127.0.0.1", 0}};
  auto a = EpollNetwork::create(0, peers);
  if (!a.ok()) GTEST_SKIP() << "no localhost sockets: " << a.error().to_string();
  auto b = EpollNetwork::create(1, peers);
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  a.value()->update_peer(1, {"127.0.0.1", b.value()->bound_port()});
  b.value()->update_peer(0, {"127.0.0.1", a.value()->bound_port()});

  ASSERT_TRUE(a.value()->send(1, sample_message()).ok());
  auto env = b.value()->recv(kLong);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->src, 0u);
  EXPECT_EQ(std::get<wire::QueryDone>(env->message).qid,
            (wire::QueryId{1, 42}));

  ASSERT_TRUE(b.value()->send(0, sample_message()).ok());
  auto env2 = a.value()->recv(kLong);
  ASSERT_TRUE(env2.has_value());
  EXPECT_EQ(env2->src, 1u);

  a.value()->shutdown();
  b.value()->shutdown();
}

TEST(SocketTransportSuite, LearnedRouteRepliesToEphemeralClient) {
  // A client outside the server's static table (the hfq convention): the
  // server must answer over the connection the request arrived on.
  std::vector<TcpPeer> server_peers = {{"127.0.0.1", 0}};
  auto server = EpollNetwork::create(0, server_peers);
  if (!server.ok()) GTEST_SKIP() << "no localhost sockets";
  std::vector<TcpPeer> client_peers = {
      {"127.0.0.1", server.value()->bound_port()}};
  auto client = EpollNetwork::create(7, client_peers);
  ASSERT_TRUE(client.ok()) << client.error().to_string();

  ASSERT_TRUE(client.value()->send(0, sample_message()).ok());
  auto req = server.value()->recv(kLong);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->src, 7u);
  EXPECT_TRUE(server.value()->has_route(7));

  ASSERT_TRUE(server.value()->send(7, sample_message()).ok());
  auto reply = client.value()->recv(kLong);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->src, 0u);

  client.value()->shutdown();
  server.value()->shutdown();
}

TEST(SocketTransportSuite, SelfSendAndShutdownSemantics) {
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}};
  auto a = EpollNetwork::create(0, peers);
  if (!a.ok()) GTEST_SKIP() << "no localhost sockets";
  ASSERT_TRUE(a.value()->send(0, sample_message()).ok());
  EXPECT_TRUE(a.value()->recv(kLong).has_value());
  EXPECT_FALSE(a.value()->send(9, sample_message()).ok());  // unknown site
  a.value()->shutdown();
  auto r = a.value()->send(0, sample_message());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kClosed);
}

TEST(SocketTransportSuite, UndecodableFrameDroppedConnectionSurvives) {
  // A garbage body behind an honest length prefix must cost exactly that
  // frame — counted and logged, not the whole connection (frames behind it
  // still arrive).
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}};
  auto a = EpollNetwork::create(0, peers);
  if (!a.ok()) GTEST_SKIP() << "no localhost sockets";
  const std::string metric = "net.epoll.frame_drops";
  const std::uint64_t drops_before = metrics().counter(metric).value();

  RawClient raw;
  ASSERT_TRUE(raw.connect_to(a.value()->bound_port()));
  ASSERT_TRUE(raw.write_frame(wire::Bytes{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));
  ASSERT_TRUE(raw.write_frame(wire::encode_envelope(
      wire::Envelope{7, 0, sample_message()})));

  auto env = a.value()->recv(kLong);
  ASSERT_TRUE(env.has_value()) << "valid frame behind the garbage was lost";
  EXPECT_EQ(env->src, 7u);
  EXPECT_EQ(metrics().counter(metric).value(), drops_before + 1);
  a.value()->shutdown();
}

TEST(SocketTransportSuite, OversizedFrameKillsConnectionLoudly) {
  // A length prefix past the 64 MiB cap has no resync point: the frame is
  // counted and the connection dies, before any giant allocation.
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}};
  auto a = EpollNetwork::create(0, peers);
  if (!a.ok()) GTEST_SKIP() << "no localhost sockets";
  const std::string metric = "net.epoll.frame_drops";
  const std::uint64_t drops_before = metrics().counter(metric).value();

  RawClient raw;
  ASSERT_TRUE(raw.connect_to(a.value()->bound_port()));
  const std::uint8_t huge[4] = {0x40, 0x00, 0x00, 0x01};  // 1 GiB and change
  ASSERT_EQ(::send(raw.fd, huge, 4, MSG_NOSIGNAL), 4);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (metrics().counter(metric).value() == drops_before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "oversized frame never counted";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Frames sent after the poison prefix must NOT be delivered: the stream
  // is unrecoverable and the transport must have abandoned it.
  (void)raw.write_frame(
      wire::encode_envelope(wire::Envelope{7, 0, sample_message()}));
  EXPECT_FALSE(a.value()->recv(kShort).has_value());
  a.value()->shutdown();
}

// --- EpollNetwork: backpressure contract --------------------------------

TEST(EpollNetwork, FullQueueRejectsBusyAndDrainReopens) {
  // The bounded send queue is the backpressure contract: a peer that stops
  // reading makes send() fail fast with kBusy (counted), and draining the
  // peer reopens the lane — nothing blocks, nothing is silently dropped.
  RawListener sink;
  if (!sink.open(/*rcvbuf=*/4096)) GTEST_SKIP() << "no localhost sockets";
  EpollOptions opts;
  opts.max_queue_frames = 4;
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}, {"127.0.0.1", sink.port}};
  auto a = EpollNetwork::create(0, peers, opts);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  const std::uint64_t busy_before =
      metrics().counter("net.epoll.busy_rejects").value();

  // ~900 KiB frames overwhelm the kernel buffers long before the attempt
  // cap; after that the 4-frame queue fills and kBusy surfaces.
  bool saw_busy = false;
  for (int i = 0; i < 200 && !saw_busy; ++i) {
    auto r = a.value()->send(1, big_message(300'000));
    if (!r.ok()) {
      ASSERT_EQ(r.error().code, Errc::kBusy) << r.error().to_string();
      saw_busy = true;
    }
  }
  ASSERT_TRUE(saw_busy) << "queue bound never enforced";
  EXPECT_GT(metrics().counter("net.epoll.busy_rejects").value(), busy_before);

  // Drain the peer; a retry loop (what send_with_retry does on kBusy) must
  // get through once the loop flushes the backlog.
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    const int conn = sink.accept_one();
    if (conn < 0) return;
    char buf[64 * 1024];
    while (!stop.load() && ::recv(conn, buf, sizeof buf, 0) > 0) {
    }
    ::close(conn);
  });
  bool delivered = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (!delivered && std::chrono::steady_clock::now() < deadline) {
    auto r = a.value()->send(1, sample_message());
    if (r.ok()) {
      delivered = true;
    } else {
      ASSERT_EQ(r.error().code, Errc::kBusy) << r.error().to_string();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(delivered) << "retry never drained through";
  a.value()->shutdown();
  stop.store(true);
  drainer.join();
}

TEST(EpollNetwork, DeadPeerTombstoneFailsNextSendLoudly) {
  // Asynchronous failure surfaces at the protocol's retry boundary: queued
  // frames on a refused connection are dropped (counted) and a later send
  // fails kIo.
  RawListener closed_probe;
  ASSERT_TRUE(closed_probe.open());
  const std::uint16_t dead_port = closed_probe.port;
  ::close(closed_probe.fd);
  closed_probe.fd = -1;  // now nobody listens on dead_port

  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}, {"127.0.0.1", dead_port}};
  auto a = EpollNetwork::create(0, peers);
  if (!a.ok()) GTEST_SKIP() << "no localhost sockets";

  // The first send usually enqueues against the in-flight connect and
  // "succeeds"; the refusal then lands on the loop asynchronously and marks
  // the peer down, so a later send fails kIo. (A kernel that refuses the
  // connect synchronously surfaces kIo on the spot — equally loud.)
  bool saw_io = false;
  for (int i = 0; i < 500 && !saw_io; ++i) {
    auto r = a.value()->send(1, sample_message());
    if (!r.ok()) {
      EXPECT_EQ(r.error().code, Errc::kIo) << r.error().to_string();
      saw_io = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(saw_io) << "connection failure never surfaced to a sender";
  a.value()->shutdown();
}

TEST(EpollNetwork, SendToKnownDownPeerFailsWithoutQueueing) {
  // Sticky down: once a peer's connection has died, every send to it fails
  // kIo on the spot and queues nothing — the caller repays the frame's
  // weight now — until a reconnect probe gets through. A one-shot failure
  // followed by a send that queues onto a fresh doomed connect would lose
  // that frame's weight silently.
  RawListener closed_probe;
  ASSERT_TRUE(closed_probe.open());
  const std::uint16_t dead_port = closed_probe.port;
  ::close(closed_probe.fd);
  closed_probe.fd = -1;

  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}, {"127.0.0.1", dead_port}};
  auto a = EpollNetwork::create(0, peers);
  if (!a.ok()) GTEST_SKIP() << "no localhost sockets";

  // The first send queues on the connect; the refusal lands on the loop.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (a.value()->send(1, sample_message()).ok()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "refused connect never marked the peer down";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const std::uint64_t sent = a.value()->stats().messages_sent;
  Counter& dropped = metrics().counter("net.epoll.dropped_frames");
  const std::uint64_t dropped_before = dropped.value();
  // 20 sends 2ms apart span several reconnect probes, all refused.
  for (int i = 0; i < 20; ++i) {
    auto r = a.value()->send(1, sample_message());
    ASSERT_FALSE(r.ok()) << "send " << i << " to a down peer was queued";
    EXPECT_EQ(r.error().code, Errc::kIo) << r.error().to_string();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(a.value()->stats().messages_sent, sent);
  EXPECT_EQ(dropped.value(), dropped_before);
  EXPECT_FALSE(a.value()->has_route(1));
  a.value()->shutdown();
}

TEST(EpollNetwork, DeadPeerRoutePurgedAndResendDeliveredAfterRestart) {
  // When a peer dies its route vanishes as soon as the loop sees the EOF,
  // sends fail loudly while it is gone, and once it is back on its port a
  // reconnect probe restores delivery without any caller intervention.
  std::vector<TcpPeer> boot = {{"127.0.0.1", 0}, {"127.0.0.1", 0}};
  auto b1 = EpollNetwork::create(1, boot);
  if (!b1.ok()) GTEST_SKIP() << "no localhost sockets";
  const std::uint16_t port = b1.value()->bound_port();
  // `a` knows site 1 by a fixed address, so it can reconnect unaided.
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}, {"127.0.0.1", port}};
  auto a = EpollNetwork::create(0, peers);
  ASSERT_TRUE(a.ok()) << a.error().to_string();

  ASSERT_TRUE(a.value()->send(1, sample_message()).ok());
  ASSERT_TRUE(b1.value()->recv(kLong).has_value());
  EXPECT_TRUE(a.value()->has_route(1));

  b1.value()->shutdown();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (a.value()->has_route(1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "dead route never purged";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  auto r = a.value()->send(1, sample_message());
  ASSERT_FALSE(r.ok()) << "send to a dead peer was queued";
  EXPECT_EQ(r.error().code, Errc::kIo);

  // The peer comes back on the same port; kernel TIME_WAIT can delay the
  // rebind briefly.
  Result<std::unique_ptr<EpollNetwork>> b2 = make_error(Errc::kIo, "unbound");
  for (int attempt = 0; attempt < 50; ++attempt) {
    b2 = EpollNetwork::create(1, peers);
    if (b2.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!b2.ok()) GTEST_SKIP() << "could not rebind port " << port;

  while (!a.value()->send(1, sample_message()).ok()) {
    ASSERT_LT(std::chrono::steady_clock::now(),
              deadline + std::chrono::seconds(5))
        << "restarted peer never became reachable again";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(b2.value()->recv(kLong).has_value())
      << "the first accepted send after the restart was not delivered";
  a.value()->shutdown();
  b2.value()->shutdown();
}

TEST(EpollNetwork, PeerDeathAndRevivalAreReported) {
  // The owner hears about a dead connection without sending anything (a
  // parked recv() wakes for it), and again once the peer is back.
  std::vector<TcpPeer> boot = {{"127.0.0.1", 0}, {"127.0.0.1", 0}};
  auto b1 = EpollNetwork::create(1, boot);
  if (!b1.ok()) GTEST_SKIP() << "no localhost sockets";
  const std::uint16_t port = b1.value()->bound_port();
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0}, {"127.0.0.1", port}};
  auto a = EpollNetwork::create(0, peers);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_TRUE(a.value()->send(1, sample_message()).ok());
  ASSERT_TRUE(b1.value()->recv(kLong).has_value());
  EXPECT_TRUE(a.value()->take_peer_events().empty());

  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b1.value()->shutdown();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(a.value()->recv(Duration(5'000'000)).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2))
      << "the death report did not wake the parked recv()";
  killer.join();
  EXPECT_EQ(a.value()->take_peer_events(),
            (std::vector<PeerEvent>{{1, /*up=*/false}}));

  Result<std::unique_ptr<EpollNetwork>> b2 = make_error(Errc::kIo, "unbound");
  for (int attempt = 0; attempt < 50; ++attempt) {
    b2 = EpollNetwork::create(1, peers);
    if (b2.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (!b2.ok()) GTEST_SKIP() << "could not rebind port " << port;
  std::vector<PeerEvent> events;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (events.empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "revived peer never reported";
    (void)a.value()->recv(Duration(50'000));
    events = a.value()->take_peer_events();
  }
  EXPECT_EQ(events, (std::vector<PeerEvent>{{1, /*up=*/true}}));
  EXPECT_TRUE(a.value()->send(1, sample_message()).ok());
  EXPECT_TRUE(b2.value()->recv(kLong).has_value());
  a.value()->shutdown();
  b2.value()->shutdown();
}

TEST(EpollNetwork, InboundDeathLeavesLiveOutboundRouteUp) {
  // Only the connection a peer dialled in on dies (here: it sent an
  // oversized frame). Sends to that peer use the outbound connection,
  // which is still up, so the peer must not be reported or treated as
  // down.
  std::vector<TcpPeer> boot = {{"127.0.0.1", 0}, {"127.0.0.1", 0}};
  auto b = EpollNetwork::create(1, boot);
  if (!b.ok()) GTEST_SKIP() << "no localhost sockets";
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0},
                                {"127.0.0.1", b.value()->bound_port()}};
  auto a = EpollNetwork::create(0, peers);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_TRUE(a.value()->send(1, sample_message()).ok());
  ASSERT_TRUE(b.value()->recv(kLong).has_value());

  // An inbound connection speaking as site 1 becomes its learned route.
  RawClient inbound;
  ASSERT_TRUE(inbound.connect_to(a.value()->bound_port()));
  ASSERT_TRUE(inbound.write_frame(
      wire::encode_envelope(wire::Envelope{1, 0, sample_message()})));
  ASSERT_TRUE(a.value()->recv(kLong).has_value());
  const std::uint8_t huge[4] = {0x40, 0x00, 0x00, 0x01};
  ASSERT_EQ(::send(inbound.fd, huge, 4, MSG_NOSIGNAL), 4);
  std::uint8_t byte;
  ASSERT_EQ(::recv(inbound.fd, &byte, 1, 0), 0) << "inbound not closed";
  // The loop handles one event at a time: a frame from another connection
  // arrives only after the closed connection's routes were purged.
  RawClient other;
  ASSERT_TRUE(other.connect_to(a.value()->bound_port()));
  ASSERT_TRUE(other.write_frame(
      wire::encode_envelope(wire::Envelope{7, 0, sample_message()})));
  auto env = a.value()->recv(kLong);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->src, 7u);

  EXPECT_TRUE(a.value()->take_peer_events().empty());
  EXPECT_TRUE(a.value()->has_route(1));
  auto r = a.value()->send(1, sample_message());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(b.value()->recv(kLong).has_value());
  a.value()->shutdown();
  b.value()->shutdown();
}

TEST(EpollNetwork, SlowPeerDoesNotBlockSendsToOtherPeers) {
  // Head-of-line isolation: a peer that never reads fills only its own
  // bounded queue. Sends to it fail kBusy; a send to a healthy peer is
  // accepted and delivered promptly.
  RawListener slow;
  if (!slow.open(/*rcvbuf=*/4096)) GTEST_SKIP() << "no localhost sockets";
  std::vector<TcpPeer> boot = {{"127.0.0.1", 0}, {"127.0.0.1", slow.port},
                               {"127.0.0.1", 0}};
  auto fast = EpollNetwork::create(2, boot);
  ASSERT_TRUE(fast.ok()) << fast.error().to_string();
  std::vector<TcpPeer> peers = {{"127.0.0.1", 0},
                                {"127.0.0.1", slow.port},
                                {"127.0.0.1", fast.value()->bound_port()}};
  EpollOptions opts;
  opts.max_queue_frames = 4;
  auto a = EpollNetwork::create(0, peers, opts);
  ASSERT_TRUE(a.ok()) << a.error().to_string();

  bool saw_busy = false;
  for (int i = 0; i < 200 && !saw_busy; ++i) {
    auto r = a.value()->send(1, big_message(300'000));
    if (!r.ok()) {
      ASSERT_EQ(r.error().code, Errc::kBusy) << r.error().to_string();
      saw_busy = true;
    }
  }
  ASSERT_TRUE(saw_busy) << "the slow peer's queue never filled";

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(a.value()->send(2, sample_message()).ok())
      << "a full queue to one peer rejected a send to another";
  auto env = fast.value()->recv(kLong);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(env.has_value())
      << "send to healthy peer starved behind the slow one";
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  auto still = a.value()->send(1, big_message(300'000));
  ASSERT_FALSE(still.ok());
  EXPECT_EQ(still.error().code, Errc::kBusy);

  a.value()->shutdown();
  fast.value()->shutdown();
}

TEST(EpollNetwork, ConnectionChurnDoesNotLeakFds) {
  // A server outliving N short-lived clients must hold fds proportional to
  // its LIVE connections: the loop closes each one when it sees the EOF.
  std::vector<TcpPeer> server_peers = {{"127.0.0.1", 0}};
  auto server = EpollNetwork::create(0, server_peers);
  if (!server.ok()) GTEST_SKIP() << "no localhost sockets";
  const std::uint16_t port = server.value()->bound_port();

  const auto count_fds = [] {
    int n = 0;
    // /proc/self/fd is Linux-standard; if unavailable the count stays 0 on
    // both samples and the delta assertion is vacuous (still valid).
    if (DIR* d = opendir("/proc/self/fd")) {
      while (readdir(d) != nullptr) ++n;
      closedir(d);
    }
    return n;
  };
  const auto cycle = [&](SiteId client_id) {
    std::vector<TcpPeer> client_peers = {{"127.0.0.1", port}};
    auto client = EpollNetwork::create(client_id, client_peers);
    ASSERT_TRUE(client.ok()) << client.error().to_string();
    ASSERT_TRUE(client.value()->send(0, sample_message()).ok());
    ASSERT_TRUE(server.value()->recv(kLong).has_value());
    client.value()->shutdown();
  };

  // Warm up so lazily-created fds (log files and the like) don't pollute
  // the baseline.
  for (SiteId i = 0; i < 2; ++i) cycle(100 + i);
  const int fds_before = count_fds();

  constexpr SiteId kCycles = 30;
  for (SiteId i = 0; i < kCycles; ++i) cycle(200 + i);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (count_fds() > fds_before + 4) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "fd count grew with lifetime connections, not live ones: "
        << count_fds() << " vs " << fds_before << " before " << kCycles
        << " connect/close cycles";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.value()->shutdown();
}

TEST(FaultInjection, SameSeedSameSchedule) {
  auto run = [](std::uint64_t seed) {
    InProcNetwork net(2);
    FaultOptions opts;
    opts.drop_p = 0.5;
    opts.seed = seed;
    FaultInjectingEndpoint ep(net.endpoint(0), opts);
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(ep.send(1, sample_message()).ok());
    }
    return ep.fault_stats();
  };
  const FaultStats x = run(42);
  const FaultStats y = run(42);
  EXPECT_EQ(x.dropped, y.dropped);
  EXPECT_EQ(x.forwarded, y.forwarded);
  EXPECT_GT(x.dropped, 0u);
  EXPECT_GT(x.forwarded, 0u);
}

}  // namespace
}  // namespace hyperfile
