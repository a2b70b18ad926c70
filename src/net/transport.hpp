// Names kept for perfbench/e2e.cpp, the end-to-end benchmark program, which
// is frozen so its numbers stay comparable across commits and still spells
// the socket transport the way it did when there were two backends. There is
// one: EpollNetwork (net/epoll.hpp). New code uses EpollNetwork::create; these
// names can go once that program is next revised.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/epoll.hpp"

namespace hyperfile {

enum class TcpBackend { kEpoll };

using SocketTransport = EpollNetwork;

inline Result<std::unique_ptr<SocketTransport>> make_socket_transport(
    TcpBackend /*backend*/, SiteId self, std::vector<TcpPeer> peers) {
  return EpollNetwork::create(self, std::move(peers));
}

}  // namespace hyperfile
