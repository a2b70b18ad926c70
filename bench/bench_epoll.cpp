// Connection-scaling smoke for the socket transport (DESIGN.md §17): one
// hub site on EpollNetwork, N raw-socket clients pushing frames at it. The
// hub is the measured component — the clients are plain blocking sockets
// so no client machinery skews the numbers.
//
// What the numbers mean:
//   * msgs_per_sec — hub-side delivery rate (every frame crosses a real
//     localhost socket and the full decode path); mean/min/max over --runs
//     repeats (default 5) of each configuration;
//   * fds — /proc/self/fd count while all N connections are live, ~2 per
//     connection in-process (the raw client end plus the accepted end);
//     the column exists to catch leaks;
//   * threads — /proc/self/task count at steady state, the fewest over the
//     repeats (a thread of the previous repeat can linger there while it
//     exits). This is the scaling story: one event loop holds every
//     connection, so the count does not grow with N.
//
// The gate in tools/check_bench_epoll.py: at 100+ connections the hub must
// deliver everything, hold a bounded fd count, run no more threads than at
// 5 connections, and sustain at least half its own 5-connection rate.
//
// Usage: bench_epoll [--runs N] [--json <path>]; emits BENCH_epoll.json.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/epoll.hpp"
#include "wire/message.hpp"

using namespace hyperfile;
using namespace hyperfile::bench;

namespace {

constexpr int kMsgsPerConn = 200;
// Frames per client write: bursts keep the pump's syscall cost off the
// measurement so the hub's drain rate is the bottleneck under test.
constexpr int kBurst = 20;

double count_dir(const char* path) {
  int n = 0;
  if (DIR* dir = ::opendir(path)) {
    while (::readdir(dir) != nullptr) ++n;
    ::closedir(dir);
  }
  return n;
}

/// One length-prefixed wire frame carrying a QueryDone from `src` to the
/// hub — pre-encoded once per client, then written verbatim.
std::vector<uint8_t> make_frame(SiteId src) {
  wire::Envelope env;
  env.src = src;
  env.dst = 0;
  wire::QueryDone qd;
  qd.qid = {src, 1};
  env.message = qd;
  const wire::Bytes body = wire::encode_envelope(env);
  std::vector<uint8_t> frame(4 + body.size());
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  frame[0] = static_cast<uint8_t>(len >> 24);
  frame[1] = static_cast<uint8_t>(len >> 16);
  frame[2] = static_cast<uint8_t>(len >> 8);
  frame[3] = static_cast<uint8_t>(len);
  std::memcpy(frame.data() + 4, body.data(), body.size());
  return frame;
}

bool write_all(int fd, const uint8_t* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

struct ScaleSample {
  double msgs_per_sec = 0;
  long delivered = 0;
  long expected = 0;
  double fds = 0;
  double threads = 0;
};

/// N raw clients each push kMsgsPerConn frames at the hub; false when the
/// environment cannot produce the deployment.
bool run_scale_once(int conns, ScaleSample& out) {
  std::vector<TcpPeer> zeros(1, TcpPeer{"127.0.0.1", 0});
  auto hub = EpollNetwork::create(0, zeros);
  if (!hub.ok()) return false;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(hub.value()->bound_port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

  std::vector<int> fds_raw;
  const auto close_raw = [&] {
    for (int fd : fds_raw) ::close(fd);
  };
  std::vector<std::vector<uint8_t>> frames;
  for (int i = 0; i < conns; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      close_raw();
      return false;
    }
    fds_raw.push_back(fd);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close_raw();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    frames.push_back(make_frame(static_cast<SiteId>(i + 1)));
  }
  // Open every connection before the clock starts: one frame each, all
  // delivered, so the fd/thread samples below see the steady state.
  for (int i = 0; i < conns; ++i) {
    if (!write_all(fds_raw[i], frames[i].data(), frames[i].size())) {
      close_raw();
      return false;
    }
  }
  for (int got = 0; got < conns; ++got) {
    if (!hub.value()->recv(Duration(5'000'000)).has_value()) {
      close_raw();
      return false;
    }
  }
  out.fds = count_dir("/proc/self/fd");
  out.threads = count_dir("/proc/self/task");

  std::vector<std::vector<uint8_t>> bursts;
  for (int i = 0; i < conns; ++i) {
    std::vector<uint8_t> burst;
    for (int b = 0; b < kBurst; ++b) {
      burst.insert(burst.end(), frames[i].begin(), frames[i].end());
    }
    bursts.push_back(std::move(burst));
  }
  out.expected = static_cast<long>(conns) * kMsgsPerConn;
  out.delivered = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread pump([&] {
    for (int m = 0; m < kMsgsPerConn / kBurst; ++m) {
      for (int i = 0; i < conns; ++i) {
        if (!write_all(fds_raw[i], bursts[i].data(), bursts[i].size())) {
          return;  // hub torn down; the delivered count records the loss
        }
      }
    }
  });
  while (out.delivered < out.expected) {
    if (!hub.value()->recv(Duration(10'000'000)).has_value()) {
      break;  // stalled: report what arrived rather than hang the bench
    }
    ++out.delivered;
  }
  pump.join();
  const double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  out.msgs_per_sec = sec > 0 ? static_cast<double>(out.delivered) / sec : 0;

  close_raw();
  hub.value()->shutdown();
  return true;
}

/// `runs` repeats of one configuration folded into one record; false when
/// any repeat could not run or lost frames.
bool run_scale(JsonSink& sink, int conns, int runs) {
  BenchRecord rec;
  rec.config = "epoll,conns=" + std::to_string(conns);
  rec.unit = "msgs_per_sec";
  rec.min = 1e300;
  long delivered = 0;
  long expected = 0;
  double fds = 0;
  double threads = 1e300;
  for (int r = 0; r < runs; ++r) {
    ScaleSample s;
    if (!run_scale_once(conns, s)) return false;
    rec.mean += s.msgs_per_sec / runs;
    rec.min = std::min(rec.min, s.msgs_per_sec);
    rec.max = std::max(rec.max, s.msgs_per_sec);
    delivered += s.delivered;
    expected += s.expected;
    fds = std::max(fds, s.fds);
    threads = std::min(threads, s.threads);
  }
  rec.counters.emplace_back("conns", conns);
  rec.counters.emplace_back("runs", runs);
  rec.counters.emplace_back("delivered", static_cast<double>(delivered));
  rec.counters.emplace_back("expected", static_cast<double>(expected));
  rec.counters.emplace_back("fds", fds);
  rec.counters.emplace_back("threads", threads);
  sink.add(rec);
  std::printf(
      "%-18s %10.0f msgs/s (min %.0f, max %.0f, %d runs)  fds=%4.0f  "
      "threads=%4.0f  delivered=%ld/%ld\n",
      rec.config.c_str(), rec.mean, rec.min, rec.max, runs, fds, threads,
      delivered, expected);
  return delivered == expected;
}

}  // namespace

int main(int argc, char** argv) {
  JsonSink sink("epoll", &argc, argv);
  int runs = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--runs" && i + 1 < argc) {
      runs = std::atoi(argv[++i]);
    }
  }
  if (runs <= 0) {
    std::fprintf(stderr, "bench_epoll: --runs expects a positive count\n");
    return 1;
  }
  header("socket transport connection scaling",
         "one event loop must hold 100+ connections with bounded fds");

  bool ok = true;
  for (int conns : {5, 100, 128}) ok = run_scale(sink, conns, runs) && ok;
  if (!sink.write()) return 1;
  if (!ok) {
    std::fprintf(stderr, "bench_epoll: some configurations fell short\n");
    return 1;
  }
  return 0;
}
