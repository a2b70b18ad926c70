#include "net/inproc.hpp"

#include "common/metrics.hpp"

namespace hyperfile {

void NetworkStats::record(const wire::Message& m, std::size_t bytes) {
  record_tag(m.index(), bytes);
}

void NetworkStats::record_tag(std::size_t variant_index, std::size_t bytes) {
  // Mirror into the process-wide registry: every transport that records a
  // delivered frame here shows up in metrics dumps and bench JSON.
  static Counter& msgs = metrics().counter("net.messages_sent");
  static Counter& nbytes = metrics().counter("net.bytes_sent");
  msgs.inc();
  nbytes.inc(bytes);
  ++messages_sent;
  bytes_sent += bytes;
  switch (variant_index) {
    case 0:
      ++deref_messages;
      break;
    case 1:
      ++start_messages;
      break;
    case 2:
      ++result_messages;
      break;
    case 3:
      ++done_messages;
      break;
    case 6:
      ++batch_deref_messages;
      break;
  }
}

NetworkStats& NetworkStats::operator+=(const NetworkStats& o) {
  messages_sent += o.messages_sent;
  bytes_sent += o.bytes_sent;
  deref_messages += o.deref_messages;
  batch_deref_messages += o.batch_deref_messages;
  result_messages += o.result_messages;
  start_messages += o.start_messages;
  done_messages += o.done_messages;
  return *this;
}

class InProcEndpoint final : public MessageEndpoint {
 public:
  InProcEndpoint(InProcNetwork& net, SiteId self) : net_(net), self_(self) {}

  SiteId self() const override { return self_; }

  Result<void> send(SiteId to, wire::Message message) override {
    return net_.send(self_, to, std::move(message));
  }

  std::optional<wire::Envelope> recv(Duration timeout) override {
    return net_.mailboxes_[self_]->pop_wait(timeout);
  }

  void wake_recv() override { net_.mailboxes_[self_]->interrupt(); }

 private:
  InProcNetwork& net_;
  SiteId self_;
};

InProcNetwork::InProcNetwork(std::size_t endpoints) {
  mailboxes_.reserve(endpoints);
  for (std::size_t i = 0; i < endpoints; ++i) {
    mailboxes_.push_back(std::make_unique<Channel<wire::Envelope>>());
  }
}

InProcNetwork::~InProcNetwork() { shutdown(); }

std::unique_ptr<MessageEndpoint> InProcNetwork::endpoint(SiteId self) {
  return std::make_unique<InProcEndpoint>(*this, self);
}

void InProcNetwork::shutdown() {
  for (auto& m : mailboxes_) m->close();
}

void InProcNetwork::close_endpoint(SiteId site) {
  if (site < mailboxes_.size()) mailboxes_[site]->close();
}

void InProcNetwork::reopen_endpoint(SiteId site) {
  if (site < mailboxes_.size()) mailboxes_[site]->reopen();
}

NetworkStats InProcNetwork::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

Result<void> InProcNetwork::send(SiteId from, SiteId to, wire::Message message) {
  if (to >= mailboxes_.size()) {
    return make_error(Errc::kNotFound, "no such site " + std::to_string(to));
  }
  // Round-trip through the wire format: the receiver sees exactly what a
  // socket peer would, and encoding bugs surface in every test run. The
  // scratch encoder is reused across sends on this thread — the bytes are
  // consumed by decode_envelope before returning.
  static thread_local wire::Encoder enc;
  wire::encode_envelope(wire::Envelope{from, to, std::move(message)}, enc);
  auto env = wire::decode_envelope(enc.bytes());
  if (!env.ok()) {
    return make_error(Errc::kInternal,
                      "wire round-trip failed: " + env.error().to_string());
  }
  // Record stats only after the mailbox accepts the frame: counting before
  // the push meant a send to a closed (stopped) site still bumped
  // messages_sent, so "messages sent" drifted above "frames delivered" and
  // the chaos tests' conservation law could never balance.
  const std::size_t variant_index = env.value().message.index();
  if (!mailboxes_[to]->push(std::move(env).value())) {
    return make_error(Errc::kClosed, "site " + std::to_string(to) + " shut down");
  }
  MutexLock lock(stats_mu_);
  stats_.record_tag(variant_index, enc.size());
  return {};
}

}  // namespace hyperfile
