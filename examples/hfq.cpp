// hfq — query a hyperfiled deployment from the command line.
//
//   usage: hfq CONFIG [--at SITE] [--trace[=FILE]] QUERY
//
//   $ hfq cluster.conf 'Root [ (pointer, "Tree", ?X) | ^^X ]* (skey, "Rand10p", 5) -> T'
//
// The client binds an ephemeral TCP port with an id outside the server
// table; servers reply over the learned connection, so clients need no
// configuration entry (the paper's client "ran at a separate machine from
// any of the servers").
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "dist/client.hpp"
#include "net/epoll.hpp"
#include "query/parser.hpp"

using namespace hyperfile;

namespace {

Result<std::vector<TcpPeer>> read_config(const std::string& path) {
  std::ifstream file(path);
  if (!file) return make_error(Errc::kIo, "cannot open config " + path);
  std::vector<TcpPeer> peers;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    TcpPeer peer;
    int port = 0;
    if (!(is >> peer.host >> port)) {
      return make_error(Errc::kInvalidArgument, "bad config line: " + line);
    }
    peer.port = static_cast<std::uint16_t>(port);
    peers.push_back(std::move(peer));
  }
  if (peers.empty()) return make_error(Errc::kInvalidArgument, "empty config");
  return peers;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string query_text;
  SiteId at = 0;
  bool want_trace = false;
  std::string trace_json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--at" && i + 1 < argc) {
      at = static_cast<SiteId>(std::stoul(argv[++i]));
    } else if (arg == "--trace") {
      want_trace = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      want_trace = true;
      trace_json_path = arg.substr(8);
    } else if (config_path.empty()) {
      config_path = arg;
    } else {
      if (!query_text.empty()) query_text += " ";
      query_text += arg;
    }
  }
  if (config_path.empty() || query_text.empty()) {
    std::printf("hfq — HyperFile query client\n"
                "  hfq CONFIG [--at SITE] [--trace[=FILE]] QUERY\n"
                "  --trace        print the per-site query trace\n"
                "  --trace=FILE   also write it to FILE as JSON\n"
                "example:\n"
                "  hfq cluster.conf 'Root [ (pointer, \"Tree\", ?X) | ^^X ]* "
                "(skey, \"Rand10p\", 5) -> T'\n");
    return 0;
  }

  auto peers = read_config(config_path);
  if (!peers.ok()) {
    std::fprintf(stderr, "%s\n", peers.error().to_string().c_str());
    return 1;
  }
  if (at >= peers.value().size()) {
    std::fprintf(stderr, "--at %u out of range\n", at);
    return 1;
  }

  auto q = parse_query(query_text);
  if (!q.ok()) {
    std::fprintf(stderr, "parse error: %s\n", q.error().to_string().c_str());
    return 1;
  }

  // Random client id well outside the server table; servers learn the
  // return route from our connection.
  std::random_device rd;
  const SiteId client_id = 1'000'000 + (rd() % 1'000'000);
  auto net = EpollNetwork::create(client_id, peers.value());
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.error().to_string().c_str());
    return 1;
  }

  Client client(std::move(net).value(), at);
  auto r = client.run(q.value(), Duration(30'000'000));
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\n", r.error().to_string().c_str());
    return 1;
  }
  const auto& res = r.value();
  if (res.count_only) {
    std::printf("%llu matching objects (result set left distributed as '%s')\n",
                static_cast<unsigned long long>(res.total_count),
                q.value().result_set_name().c_str());
  } else {
    std::printf("%zu result(s)\n", res.ids.size());
    for (const ObjectId& id : res.ids) {
      std::printf("  %s\n", id.to_string().c_str());
    }
    for (const auto& v : res.values) {
      std::printf("  %s = %s\n", res.slot_names[v.slot].c_str(),
                  v.value.to_string().c_str());
    }
  }
  if (want_trace) {
    std::printf("%s", res.trace.to_text().c_str());
    if (!trace_json_path.empty()) {
      std::ofstream tout(trace_json_path);
      if (!tout) {
        std::fprintf(stderr, "cannot write %s\n", trace_json_path.c_str());
        return 1;
      }
      tout << res.trace.to_json() << "\n";
      std::printf("wrote trace to %s\n", trace_json_path.c_str());
    }
  }
  return 0;
}
