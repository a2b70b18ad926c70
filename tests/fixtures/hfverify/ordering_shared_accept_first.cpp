// Seeded violation: the shared accept step (termination accounting of a
// computation message) runs before the duplicate check — a duplicated
// frame would repay its weight and engage or ack twice.
// HFVERIFY-RULE: ordering
// HFVERIFY-EXPECT: calls side effect accept() before the already_seen() dedup check

struct DerefRequest {
  std::uint64_t msg_seq = 0;
};

class Server {
 public:
  void handle_deref(int src, DerefRequest dr) {
    Participation* p = open_context(src);
    if (p == nullptr) return;
    accept(*p, src);
    if (already_seen(src, dr.msg_seq)) return;
    admit(*p, dr.msg_seq);
  }

  struct Participation {};
  Participation* open_context(int src);
  void accept(Participation& p, int src);
  void admit(Participation& p, std::uint64_t item);
  bool already_seen(int src, std::uint64_t seq);
};
