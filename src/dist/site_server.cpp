#include "dist/site_server.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "query/rewrite.hpp"
#include "store/snapshot.hpp"

namespace hyperfile {
namespace {

/// Record (src, seq) in the per-context dedup map; true iff the message was
/// already processed. seq 0 marks an unsequenced message and is never
/// suppressed.
bool already_seen(
    std::unordered_map<SiteId, std::unordered_set<std::uint64_t>>& seen,
    SiteId src, std::uint64_t seq) {
  if (seq == 0) return false;
  return !seen[src].insert(seq).second;
}

/// High-water-mark variant for process-lifetime streams (summary adverts):
/// true iff (epoch, seq) is at or below the highest already processed from
/// src. Bounded at one record per sender where a set would grow one entry
/// per advert forever; the epoch scopes the mark to the sender's
/// incarnation so a restarted sender's fresh adverts (seq counter back at
/// 1, epoch strictly higher) pass immediately. See the summary_seen_
/// member comment for why suppressing reordered older adverts is sound.
bool already_seen(std::unordered_map<SiteId, SummaryAdvertHighWater>& marks,
                  SiteId src, std::uint64_t epoch, std::uint64_t seq) {
  if (seq == 0) return false;
  auto [it, fresh] = marks.try_emplace(src);
  SummaryAdvertHighWater& hw = it->second;
  if (!fresh) {
    if (epoch < hw.epoch) return true;  // straggler from an older incarnation
    if (epoch == hw.epoch && seq <= hw.seq) return true;
  }
  hw.epoch = epoch;
  hw.seq = seq;
  return false;
}

/// Persist the boot counter write-then-fsync-then-rename: a crash at any
/// point leaves either the old sidecar or the new one, never a truncated
/// file whose empty read would restart the epoch at 1 and hand pre-crash
/// summaries their pruning authority back.
bool write_boot_epoch(const std::string& path, std::uint64_t epoch) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  bool ok =
      std::fprintf(f, "%llu", static_cast<unsigned long long>(epoch)) > 0;
  ok = std::fflush(f) == 0 && ok;
  ok = ::fsync(::fileno(f)) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::chrono::steady_clock::time_point now_tick() {
  return std::chrono::steady_clock::now();
}

std::uint64_t us_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now_tick() - t0)
          .count());
}

}  // namespace

SiteServer::SiteServer(std::unique_ptr<MessageEndpoint> endpoint, SiteStore store,
                       SiteServerOptions options)
    : endpoint_(std::move(endpoint)),
      store_(std::move(store)),
      names_(store_.site()),
      options_(std::move(options)) {
  // Recovery first: a durable site's checkpoint + WAL are the authoritative
  // store state, superseding whatever the caller passed in. Births are then
  // registered from the *recovered* store.
  if (!options_.wal_dir.empty()) recover_durable_state();
  // Summary epoch (DESIGN.md §16): durable sites count their boots in a
  // sidecar file, so summaries advertised after a crash-restart carry a
  // higher epoch and supersede pre-crash ones at every peer — the store's
  // own version counter alone cannot order across incarnations.
  if (options_.summary_interval > Duration(0)) {
    if (!options_.wal_dir.empty()) {
      const std::string boot_path = options_.wal_dir + "/site_" +
                                    std::to_string(store_.site()) + ".boot";
      std::uint64_t boots = 0;
      if (std::ifstream in(boot_path); in) in >> boots;
      summary_epoch_ = boots + 1;
      if (!write_boot_epoch(boot_path, summary_epoch_)) {
        HF_WARN << "site " << store_.site()
                << ": cannot persist boot epoch to " << boot_path
                << " — a crash may resurrect pre-crash summary authority";
      }
    } else {
      // Volatile sites have no sidecar and their version counter restarts
      // at zero, so without an epoch a restarted site's fresh summaries
      // would lose the (epoch, version) race to its own pre-crash records
      // still circulating via gossip — and with no TTL configured peers
      // would false-prune it forever. Stamp each incarnation with the boot
      // wall clock: strictly increasing across restarts, and only ever
      // compared against this site's own earlier epochs.
      summary_epoch_ = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
    }
  }
  // Everything currently stored here was (as far as we know) born here.
  for (const ObjectId& id : store_.all_ids()) names_.register_birth(id);
  if (options_.drain_workers > 0) {
    drain_pool_ = std::make_unique<WorkerPool>(options_.drain_workers);
  }
  // Pre-register the replication instruments so every metrics dump of a
  // replicating deployment carries them — a zero reads as "configured but
  // quiet", an absent name as "not measured" (DESIGN.md §12, §18).
  if (options_.replication_interval > Duration(0)) {
    metrics().counter("dist.wal_segments_shipped");
    metrics().counter("dist.replica_applies");
    metrics().counter("dist.failovers");
    metrics().histogram("dist.replica_lag_us");
  }
}

void SiteServer::recover_durable_state() {
  const std::string base =
      options_.wal_dir + "/site_" + std::to_string(store_.site());
  const std::string ckpt_path = base + ".ckpt";
  const std::string wal_path = base + ".wal";

  bool had_checkpoint = false;
  if (auto restored = load_snapshot(ckpt_path); restored.ok()) {
    store_ = std::move(restored).value();
    had_checkpoint = true;
  }
  auto replayed = replay_wal(wal_path);
  if (!replayed.ok()) {
    // An unreadable log is a durability problem, not an availability one:
    // serve from what we have (checkpoint or caller store) and start fresh.
    HF_ERROR << "site " << store_.site() << ": WAL replay failed: "
             << replayed.error().message;
    replayed = WalReplay{};
  }
  for (const WalRecord& rec : replayed.value().records) {
    store_.apply_wal_record(rec);
  }
  if (replayed.value().torn) {
    HF_WARN << "site " << store_.site() << ": WAL tail torn after "
            << replayed.value().records.size()
            << " records; truncating to last good record";
  }
  auto wal = WriteAheadLog::open(wal_path, replayed.value());
  if (!wal.ok()) {
    HF_ERROR << "site " << store_.site() << ": cannot open WAL: "
             << wal.error().message << " — running without durability";
    return;
  }
  wal_ = std::make_unique<WriteAheadLog>(std::move(wal).value());
  store_.attach_wal(wal_.get());
  // Ship epoch (DESIGN.md §18): like the summary boot epoch, but counting
  // WAL generations — bumped here per boot (a crash may have lost appends a
  // follower already applied, so pre-crash offsets must die with it) and on
  // every checkpoint truncation. Bootstrapped before the initial checkpoint
  // below so that checkpoint rolls it like any other.
  if (options_.replication_interval > Duration(0)) {
    const std::string ship_path = base + ".ship";
    std::uint64_t generations = 0;
    if (std::ifstream in(ship_path); in) in >> generations;
    ship_epoch_ = generations + 1;
    if (!write_boot_epoch(ship_path, ship_epoch_)) {
      HF_WARN << "site " << store_.site()
              << ": cannot persist ship epoch to " << ship_path
              << " — followers may mistake a stale WAL tail for a live one";
    }
  }
  if (!had_checkpoint && replayed.value().records.empty() &&
      store_.size() > 0) {
    // A seeded store with no durable history yet (first boot from a
    // snapshot argument): checkpoint it immediately, or a crash before the
    // first periodic checkpoint would lose the seed on a no-snapshot
    // restart.
    if (auto r = do_checkpoint(); !r.ok()) {
      HF_WARN << "site " << store_.site() << ": initial checkpoint failed: "
              << r.error().message;
    }
  }
  if (had_checkpoint || !replayed.value().records.empty()) {
    metrics().counter("dist.crash_recoveries").inc();
    HF_INFO << "site " << store_.site() << ": recovered "
            << store_.size() << " objects (checkpoint: "
            << (had_checkpoint ? "yes" : "no") << ", WAL records: "
            << replayed.value().records.size() << ")";
  }
}

Result<void> SiteServer::do_checkpoint() {
  if (wal_ == nullptr) {
    return make_error(Errc::kInvalidArgument,
                      "site has no wal_dir; nothing to checkpoint");
  }
  const std::string base =
      options_.wal_dir + "/site_" + std::to_string(store_.site());
  const std::string ckpt_path = base + ".ckpt";
  const std::string tmp_path = ckpt_path + ".tmp";
  // Write-then-rename so a crash mid-checkpoint leaves the previous
  // checkpoint intact; the WAL is only truncated once the new one is the
  // durable state.
  // hfverify: allow-blocking(checkpoint): checkpoints run on the loop by
  // design — the snapshot must see a quiescent store (DESIGN.md §13).
  if (auto r = save_snapshot(store_, tmp_path); !r.ok()) return r.error();
  // hfverify: allow-blocking(checkpoint): atomic install, same pause.
  if (std::rename(tmp_path.c_str(), ckpt_path.c_str()) != 0) {
    return make_error(Errc::kIo, "cannot install checkpoint " + ckpt_path);
  }
  // The rename is durable only once the directory entry itself is synced
  // (save_snapshot fsynced the *bytes*, not the *name*). Truncating the WAL
  // before that would leave a crash window where neither the WAL records
  // nor the checkpoint that subsumed them survive — acknowledged mutations
  // silently lost.
  // hfverify: allow-blocking(checkpoint): durability barrier, same pause.
  if (auto r = fsync_parent_dir(ckpt_path); !r.ok()) return r;
  metrics().counter("dist.checkpoints").inc();
  // hfverify: allow-blocking(checkpoint): WAL reset is part of the pause.
  if (auto r = wal_->truncate(); !r.ok()) return r;
  // Truncation invalidates every byte offset shipped so far: roll the WAL
  // generation and resync followers via snapshot. The sidecar write is
  // best-effort — a lost bump is re-covered by the next boot's bump, and
  // until then the worst case is a follower resyncing once more than
  // strictly needed.
  ++ship_epoch_;
  if (options_.replication_interval > Duration(0)) {
    // hfverify: allow-blocking(checkpoint): epoch sidecar, same pause.
    (void)write_boot_epoch(base + ".ship", ship_epoch_);
    for (auto& [follower, ship] : followers_) ship.needs_catchup = true;
  }
  return {};
}

Result<void> SiteServer::checkpoint() {
  return run_exclusive([this] { return do_checkpoint(); });
}

Result<void> SiteServer::run_exclusive(
    const std::function<Result<void>()>& fn) {
  if (!running_.load()) return fn();  // stopped: the caller owns the state
  auto waiter = std::make_shared<CtlWaiter>();
  {
    MutexLock lock(ctl_mu_);
    ctl_.push_back(CtlTask{fn, waiter});
  }
  // The loop parks in recv() until traffic or a deadline; kick it so the
  // task runs now instead of at the next wakeup.
  endpoint_->wake_recv();
  MutexLock lock(waiter->mu);
  while (!waiter->done) waiter->cv.wait(lock);
  return waiter->result;
}

void SiteServer::drain_ctl() {
  std::vector<CtlTask> tasks;
  {
    MutexLock lock(ctl_mu_);
    tasks.swap(ctl_);
  }
  for (CtlTask& task : tasks) {
    Result<void> r = task.fn();
    {
      MutexLock lock(task.waiter->mu);
      task.waiter->result = std::move(r);
      task.waiter->done = true;
    }
    task.waiter->cv.notify_all();
  }
}

SiteServer::~SiteServer() { stop(); }

void SiteServer::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);
  // hfverify: allow-role(thread-entry): the lambda body IS the event-loop
  // thread; start() only launches it.
  thread_ = std::thread([this] { run_loop(); });
}

void SiteServer::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  endpoint_->wake_recv();  // don't wait out a parked recv() to notice
  if (thread_.joinable()) thread_.join();
  running_.store(false);
  // Serve any run_exclusive calls that raced the shutdown — their callers
  // are blocked waiting; with the loop thread gone this thread owns the
  // loop-confined state.
  // hfverify: allow-role(loop-joined): the loop thread is joined above;
  // this thread is the sole owner of the loop-confined state now.
  drain_ctl();
  // Fold stats of any still-live contexts (e.g. queries interrupted by
  // shutdown) into the totals; safe now that the loop thread is gone.
  // Snapshot before taking stats_mu_: exec->stats() acquires the engine's
  // own stats lock, and stats_mu_ is a leaf (DESIGN.md §10 rule 2).
  EngineStats interrupted;
  // hfverify: allow-role(loop-joined): same — loop thread is gone.
  for (auto& [qid, p] : contexts_) {
    interrupted += p.exec->stats();
    for (auto& [primary, se] : p.shadow_execs) interrupted += se->stats();
  }
  // hfverify: allow-role(loop-joined): same — loop thread is gone.
  contexts_.clear();
  {
    MutexLock lock(stats_mu_);
    total_stats_ += interrupted;
    context_count_cache_ = 0;
  }
}

EngineStats SiteServer::engine_stats() const {
  MutexLock lock(stats_mu_);
  return total_stats_;
}

std::size_t SiteServer::context_count() const {
  MutexLock lock(stats_mu_);
  return context_count_cache_;
}

std::size_t SiteServer::summary_count() const {
  MutexLock lock(stats_mu_);
  return summary_count_cache_;
}

SiteServer::ReplicaProbe SiteServer::replica_probe(SiteId primary) {
  ReplicaProbe probe;
  (void)run_exclusive([&]() -> Result<void> {
    // hfverify: allow-role(run-exclusive): this closure holds exclusive
    // ownership of the loop-confined state — it runs on the loop thread,
    // or inline only once the loop has stopped.
    auto it = replicas_.find(primary);
    // hfverify: allow-role(run-exclusive): same exclusive closure.
    if (it == replicas_.end()) return {};
    probe.exists = true;
    probe.ship_epoch = it->second->watermark.ship_epoch;
    probe.wal_offset = it->second->watermark.wal_offset;
    probe.covers_tail = it->second->watermark.covers(it->second->primary_tail);
    probe.shadow = it->second->shadow;
    return {};
  });
  return probe;
}

SiteStore SiteServer::store_copy() {
  SiteStore copy(store_.site());
  (void)run_exclusive([&]() -> Result<void> {
    copy = store_;
    return {};
  });
  // The copy must not shadow mutations into the live server's WAL.
  copy.attach_wal(nullptr);
  return copy;
}

void SiteServer::run_loop() {
  Gauge& contexts_gauge =
      metrics().gauge("dist.contexts", "site=" + std::to_string(store_.site()));
  last_sweep_ = now_tick();
  last_checkpoint_ = last_sweep_;
  last_liveness_check_ = last_sweep_;
  // First tick builds and advertises immediately: a freshly (re)started
  // site re-announces itself without waiting out a full interval.
  last_summary_advert_ = last_sweep_ - options_.summary_interval;
  last_replication_ = last_sweep_ - options_.replication_interval;
  while (!stopping_.load()) {
    // The wait is bounded by recv_budget() (the nearest periodic deadline,
    // capped at 1s); traffic, run_exclusive, stop() and failure reports
    // cut it short through wake_recv().
    // hfverify: allow-blocking(recv-wait): bounded wait, see above.
    auto env = endpoint_->recv(recv_budget());
    if (env.has_value()) handle(std::move(*env));
    // Reachability the transport noticed between sends: act on a dead
    // connection now (frames it held took their termination weight with
    // them) instead of waiting out the silence window or the context TTL,
    // and re-check a revived peer instead of waiting for its ping slot.
    for (const PeerEvent& ev : endpoint_->take_peer_events()) {
      if (ev.up) {
        peer_reachable(ev.peer);
      } else {
        peer_failed(ev.peer);
      }
    }
    drain_ctl();
    sweep_contexts();
    check_liveness();
    check_summaries();
    check_replication();
    if (options_.checkpoint_interval > Duration(0) && wal_ != nullptr &&
        wal_->record_count() > 0 &&
        now_tick() - last_checkpoint_ >= options_.checkpoint_interval) {
      last_checkpoint_ = now_tick();
      if (auto r = do_checkpoint(); !r.ok()) {
        HF_WARN << "site " << store_.site()
                << ": periodic checkpoint failed: " << r.error().message;
      }
    }
    contexts_gauge.set(static_cast<std::int64_t>(contexts_.size()));
    MutexLock lock(stats_mu_);
    context_count_cache_ = contexts_.size();
    summary_count_cache_ = peer_summaries_.size();
  }
}

Duration SiteServer::recv_budget() const {
  const auto now = now_tick();
  // 1s cap: a cheap heartbeat through the loop even when every periodic
  // duty is idle (and a backstop should a wakeup ever be missed).
  Duration budget = Duration(1'000'000);
  const auto consider = [&](std::chrono::steady_clock::time_point last,
                            Duration period) {
    if (period <= Duration(0)) return;
    const Duration elapsed =
        std::chrono::duration_cast<Duration>(now - last);
    budget = std::min(budget,
                      elapsed >= period ? Duration(0) : period - elapsed);
  };
  consider(last_sweep_, options_.context_ttl / 4);
  if (options_.suspect_after > Duration(0)) {
    consider(last_liveness_check_, options_.suspect_after / 4);
  }
  consider(last_summary_advert_, options_.summary_interval);
  if (wal_ != nullptr && wal_->record_count() > 0) {
    consider(last_checkpoint_, options_.checkpoint_interval);
  }
  consider(last_replication_, options_.replication_interval);
  return budget;
}

Result<void> SiteServer::send_with_retry(SiteId to, const wire::Message& m,
                                         TraceSpan* span) {
  static Counter& retries = metrics().counter("dist.send_retries");
  static Counter& busy_backoffs = metrics().counter("dist.busy_backoffs");
  auto r = endpoint_->send(to, m);
  Duration backoff = options_.retry_backoff;
  for (int attempt = 0; !r.ok() && attempt < options_.send_retries;
       ++attempt) {
    const Errc c = r.error().code;
    if (c == Errc::kNotFound || c == Errc::kInvalidArgument) break;
    // kBusy is the epoll backend's backpressure signal: the peer's bounded
    // send queue is full, nothing was lost, and the frame slot reopens as
    // the loop drains — exactly what the backoff below is for. Tracked
    // separately from transport failures so saturation is visible.
    if (c == Errc::kBusy) busy_backoffs.inc();
    // hfverify: allow-blocking(retry-backoff): bounded exponential backoff
    // (send_retries * max backoff), accepted loop stall on a sick peer.
    std::this_thread::sleep_for(backoff);
    backoff *= 2;
    retries.inc();
    if (span != nullptr) ++span->retries;
    r = endpoint_->send(to, m);
  }
  // A send that still fails after the retry budget is a loud death signal
  // (dead fd, closed mailbox) — at least as strong as a silence window, and
  // available *now* rather than after suspect_after of quiet. Record it for
  // the next check_liveness pass (not suspect_peer() here: that force-
  // finishes originations, and this path runs mid-drain with live
  // Participation references) so the next routing decision fails over to
  // the peer's replica (DESIGN.md §18) instead of re-dropping an item per
  // query. A wrong verdict (transient connect hiccup) heals exactly like a
  // real revival: check_liveness keeps pinging suspects, and any reply
  // revives the peer. kBusy is excluded — backpressure means the peer is
  // alive and draining, the opposite of dead.
  if (!r.ok() && r.error().code != Errc::kBusy &&
      options_.suspect_after > Duration(0)) {
    liveness_.try_emplace(to).first->second.send_failed = true;
  }
  return r;
}

void SiteServer::peer_failed(SiteId peer) {
  if (options_.suspect_after <= Duration(0) || peer == store_.site()) return;
  // Not mid-drain (run_loop calls this between messages), so the verdict
  // can land at once: queries whose weight rode the lost frames finish
  // partial now, and new work fails over to the peer's replica.
  liveness_.try_emplace(peer);
  suspect_peer(peer);
}

void SiteServer::peer_reachable(SiteId peer) {
  auto it = liveness_.find(peer);
  if (it == liveness_.end() || !it->second.suspected) return;
  // The revival ping goes out now; its reply clears the suspicion.
  it->second.last_ping = now_tick();
  (void)endpoint_->send(peer, wire::PingMessage{true});
}

void SiteServer::note_engagement(Participation& p, std::uint32_t hop,
                                 const std::vector<SiteId>& path) {
  std::vector<SiteId> with_self = path;
  if (with_self.size() < TraceSpan::kMaxPath) {
    with_self.push_back(store_.site());
  }
  if (p.span.messages == 0 || hop < p.span.first_hop) {
    p.span.first_hop = hop;
    p.span.path = with_self;
  }
  ++p.span.messages;
  p.current_hop = hop;
  p.out_path = std::move(with_self);
}

bool SiteServer::stale_own_query(const wire::QueryId& qid, SiteId src) {
  if (qid.originator != store_.site()) return false;
  if (find_origination(qid) != nullptr) return false;
  // A retried or wire-duplicated message outlived the query it belongs to.
  // Re-announce completion (the sender's QueryDone may have been the lost
  // message) instead of recreating a context that nothing would ever close.
  if (src != store_.site() && src != kNoSite) {
    (void)endpoint_->send(src, wire::QueryDone{qid});
  }
  return true;
}

void SiteServer::sweep_contexts() {
  const auto now = now_tick();
  if (now - last_sweep_ < options_.context_ttl / 4) return;
  last_sweep_ = now;

  // Expired originations: termination can no longer be detected (weight or
  // acks were lost in flight) — answer with everything that did arrive,
  // flagged partial. "Partial results are better than none at all."
  std::vector<wire::QueryId> expired;
  for (auto& [qid, o] : originated_) {
    if (!o.replied && now - o.last_activity >= options_.context_ttl) {
      expired.push_back(qid);
    }
  }
  for (const auto& qid : expired) {
    auto it = originated_.find(qid);
    if (it == originated_.end()) continue;
    HF_DEBUG << "site " << store_.site() << ": query " << qid.to_string()
             << " idle past TTL; forcing partial reply";
    maybe_finish(qid, it->second, /*force=*/true);
  }

  // Participant contexts: re-flush stashed results while fresh; once idle
  // past the TTL (our QueryDone was lost, or the originator expired), one
  // final flush attempt and then discard.
  std::vector<wire::QueryId> flush;
  std::vector<wire::QueryId> dead;
  for (auto& [qid, p] : contexts_) {
    if (find_origination(qid) != nullptr) continue;  // dies with origination
    const bool pending = !p.pending_ids.empty() || !p.pending_values.empty() ||
                         p.pending_count > 0 ||
                         (p.executions_idle() && p.weight.holding());
    const bool stale = now - p.last_activity >= options_.context_ttl;
    if (stale) {
      dead.push_back(qid);
    } else if (pending) {
      flush.push_back(qid);
    }
  }
  for (const auto& qid : flush) drain_and_flush(qid);
  if (!dead.empty()) {
    metrics().counter("dist.ttl_context_discards").inc(dead.size());
  }
  for (const auto& qid : dead) {
    drain_and_flush(qid);  // last chance for results + weight to get home
    discard_context(qid);
  }
}

void SiteServer::check_liveness() {
  if (options_.suspect_after <= Duration(0)) return;
  const auto now = now_tick();
  if (now - last_liveness_check_ < options_.suspect_after / 4) return;
  const auto previous_check = last_liveness_check_;
  last_liveness_check_ = now;

  // Peers of interest: anyone a live query of ours is waiting on. For an
  // origination that is every involved site; for a participation it is the
  // originator (whose QueryDone we are waiting for).
  std::unordered_set<SiteId> interest;
  for (const auto& [qid, o] : originated_) {
    if (o.replied) continue;
    for (SiteId s : o.involved) interest.insert(s);
  }
  for (const auto& [qid, p] : contexts_) {
    if (qid.originator != store_.site()) interest.insert(qid.originator);
  }
  // A follower is permanently interested in the primaries it replicates:
  // failover (route_remote serving from the shadow store) triggers on *our
  // own* suspicion of the primary, and the WAL stream refreshing last_seen
  // makes that verdict timely — silence on a stream that ticks every
  // replication_interval is the strongest death signal this site has.
  if (options_.replication_interval > Duration(0)) {
    for (const auto& [primary, follower] : options_.replica_assignment) {
      if (follower == store_.site()) interest.insert(primary);
    }
  }
  // A recorded loud send failure is interest enough: the query that hit it
  // may already have replied (partial), but the verdict must still land so
  // the *next* query fails over instead of re-dropping.
  for (const auto& [peer, pl] : liveness_) {
    if (pl.send_failed) interest.insert(peer);
  }
  interest.erase(store_.site());

  const Duration probe_after = options_.suspect_after / 3;
  std::vector<SiteId> newly_suspect;
  for (SiteId peer : interest) {
    auto [it, fresh] = liveness_.try_emplace(peer);
    PeerLiveness& pl = it->second;
    const bool resumed = fresh || pl.interested_at != previous_check;
    pl.interested_at = now;
    if (pl.send_failed) {
      // Loud failure: suspect without waiting out the silence window.
      pl.send_failed = false;
      if (!pl.suspected) newly_suspect.push_back(peer);
      continue;
    }
    if (resumed) {
      // First interest in this peer, or the first since a pass without
      // any (no query was waiting on it, so it had no reason to talk):
      // give it a full window from now rather than suspecting it for
      // silence predating our interest.
      pl.last_seen = now;
      continue;
    }
    if (pl.suspected) continue;
    const auto silent = now - pl.last_seen;
    if (silent >= options_.suspect_after) {
      newly_suspect.push_back(peer);
    } else if (silent >= probe_after && now - pl.last_ping >= probe_after) {
      pl.last_ping = now;
      // Fire-and-forget probe. A *loud* failure (kClosed: dead fd, closed
      // mailbox) is already a verdict — no need to wait out the window.
      if (auto r = endpoint_->send(peer, wire::PingMessage{true}); !r.ok()) {
        newly_suspect.push_back(peer);
      }
    }
  }
  for (SiteId peer : newly_suspect) suspect_peer(peer);

  // Suspicion must heal: a crashed site that restarts (or a partition that
  // mends) never sends us anything unsolicited, so keep pinging suspects —
  // independent of query interest — and let the reply's arrival in handle()
  // revive them. Failures just mean the suspect is still dead.
  for (auto& [peer, pl] : liveness_) {
    if (!pl.suspected || now - pl.last_ping < probe_after) continue;
    pl.last_ping = now;
    (void)endpoint_->send(peer, wire::PingMessage{true});
  }
}

void SiteServer::check_summaries() {
  if (options_.summary_interval <= Duration(0)) return;
  const auto now = now_tick();
  if (summary_built_ &&
      now - last_summary_advert_ < options_.summary_interval) {
    return;
  }
  last_summary_advert_ = now;
  if (!summary_built_ || store_.version() != own_summary_.version) {
    own_summary_ = index::SiteSummary::build(store_);
    own_summary_.epoch = summary_epoch_;
    summary_built_ = true;
    metrics().counter("dist.summary_builds").inc();
  }

  auto to_record = [](const index::SiteSummary& s) {
    wire::SummaryRecord rec;
    rec.origin = s.origin;
    rec.epoch = s.epoch;
    rec.version = s.version;
    rec.hash_count = s.filter.hash_count();
    rec.entries = s.filter.entries();
    rec.bits = s.filter.bytes();
    return rec;
  };
  wire::SummaryMessage sm;
  sm.records.push_back(to_record(own_summary_));  // own record: age 0
  if (options_.summary_gossip) {
    for (const auto& [peer, cached] : peer_summaries_) {
      // Relay with the age the record has accrued here (installed is
      // origin-anchored, so inherited age compounds across hops). A record
      // past the TTL has no authority left to spread — don't gossip it.
      const Duration age = std::chrono::duration_cast<Duration>(
          now - cached.installed);
      if (options_.summary_ttl > Duration(0) && age >= options_.summary_ttl) {
        continue;
      }
      wire::SummaryRecord rec = to_record(cached.summary);
      rec.age_us = static_cast<std::uint64_t>(std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::microseconds>(age)
                 .count()));
      sm.records.push_back(std::move(rec));
    }
  }
  // Fire-and-forget, like pings: adverts are periodic and idempotent, so a
  // lost one is simply superseded by the next; retrying would stall the
  // loop against a dead peer for nothing.
  for (SiteId peer : options_.summary_peers) {
    if (peer == store_.site()) continue;
    wire::SummaryMessage copy = sm;
    copy.msg_seq = next_msg_seq_++;
    if (endpoint_->send(peer, wire::Message(std::move(copy))).ok()) {
      metrics().counter("dist.summary_exchanges").inc();
    }
  }
}

void SiteServer::handle_summary(SiteId src, wire::SummaryMessage sm) {
  // Dedup before any install: a wire-duplicated advert must not count as a
  // fresh exchange nor re-run the install scan. The sender's own record
  // leads the message (check_summaries pushes it first) and its epoch
  // names the sender's incarnation, scoping the seq high-water mark; a
  // malformed message without that leading record deduces epoch 0 and is
  // conservatively suppressed once a real incarnation has been seen.
  std::uint64_t sender_epoch = 0;
  if (!sm.records.empty() && sm.records.front().origin == src) {
    sender_epoch = sm.records.front().epoch;
  }
  if (already_seen(summary_seen_, src, sender_epoch, sm.msg_seq)) {
    metrics().counter("dist.dedup_hits").inc();
    return;
  }
  const auto now = now_tick();
  for (wire::SummaryRecord& rec : sm.records) {
    install_summary(std::move(rec), now);
  }
  // Deliberately no liveness touch here: a gossiped record is hearsay about
  // its origin, not a frame from it. Only the envelope-level heartbeat in
  // handle() — which saw `src` itself on the wire — may refresh a clock, so
  // a stale relayed record can never resurrect a suspected peer.
}

void SiteServer::install_summary(wire::SummaryRecord rec,
                                 std::chrono::steady_clock::time_point now) {
  if (rec.origin == store_.site() || rec.origin == kNoSite) return;
  // Wire sanity: hash_count bounds every maybe_contains probe loop on the
  // route_remote hot path, so a corrupt or hostile value (up to 2^32) is a
  // per-probe DoS, not just noise. Builders emit k=7 over a ≥32-byte
  // bitmap; anything outside [1, 64] or bitmap-less is no summary we can
  // trust — drop the origin's cached entry too, falling back to
  // never-prune for it.
  if (rec.hash_count < 1 || rec.hash_count > 64 || rec.bits.empty()) {
    peer_summaries_.erase(rec.origin);
    metrics().counter("dist.summary_rejects").inc();
    HF_WARN << "site " << store_.site()
            << ": rejecting malformed summary record from origin "
            << rec.origin << " (hash_count=" << rec.hash_count
            << ", bits=" << rec.bits.size() << ")";
    return;
  }
  auto it = peer_summaries_.find(rec.origin);
  if (it != peer_summaries_.end()) {
    const index::SiteSummary& cached = it->second.summary;
    const bool newer =
        rec.epoch > cached.epoch ||
        (rec.epoch == cached.epoch && rec.version > cached.version);
    const bool expired =
        options_.summary_ttl > Duration(0) &&
        now - it->second.installed >= options_.summary_ttl;
    // Strictly-newer wins; an expired cache entry carries no authority and
    // yields to anything, including a version regression (the origin may
    // have restarted volatile, resetting its counters).
    if (!newer && !expired) return;
  }
  index::SiteSummary s;
  s.origin = rec.origin;
  s.epoch = rec.epoch;
  s.version = rec.version;
  s.filter = index::BloomFilter::from_parts(std::move(rec.bits),
                                            rec.hash_count, rec.entries);
  // Anchor the staleness clock at the origin: the record arrives already
  // age_us old, and installing it must not hand that age back. Clamp the
  // wire value to the TTL — anything at or past it is equally dead, and
  // the clamp keeps a hostile 2^64 age from wrapping the time_point the
  // other way (into the future, i.e. eternally fresh).
  std::chrono::steady_clock::time_point installed = now;
  if (options_.summary_ttl > Duration(0)) {
    const std::uint64_t ttl_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            options_.summary_ttl)
            .count());
    installed -= std::chrono::microseconds(std::min(rec.age_us, ttl_us));
  }
  peer_summaries_[rec.origin] = CachedSummary{std::move(s), installed};
  metrics().counter("dist.summary_installs").inc();
}

bool SiteServer::summary_prunes(SiteId dest, const Query& query,
                                std::uint32_t start, const ObjectId& oid) {
  if (options_.summary_interval <= Duration(0)) return false;
  auto it = peer_summaries_.find(dest);
  if (it == peer_summaries_.end()) return false;  // unknown: never prune
  if (options_.summary_ttl > Duration(0) &&
      now_tick() - it->second.installed >= options_.summary_ttl) {
    return false;  // expired: staleness never prunes
  }
  return !it->second.summary.may_contribute(query, start, oid);
}

void SiteServer::suspect_peer(SiteId peer) {
  auto it = liveness_.find(peer);
  if (it == liveness_.end() || it->second.suspected) return;
  it->second.suspected = true;
  metrics().counter("dist.suspicions").inc();
  HF_WARN << "site " << store_.site() << ": suspecting site " << peer;

  // The suspect's cached summary dies with the suspicion: if the site comes
  // back — possibly volatile, with new content and a reset version counter —
  // a stale summary must not keep pruning work it could now serve.
  peer_summaries_.erase(peer);

  // Originations waiting on the suspect: force-finish as partial *now* —
  // the whole point of suspicion is answering within this window instead of
  // the much larger context_ttl. The suspicion is annotated on the
  // originator's own span before the reply assembles the trace.
  std::vector<wire::QueryId> to_finish;
  for (auto& [qid, o] : originated_) {
    if (!o.replied && o.involved.count(peer) != 0) to_finish.push_back(qid);
  }
  for (const auto& qid : to_finish) {
    auto oit = originated_.find(qid);
    if (oit == originated_.end()) continue;
    if (auto cit = contexts_.find(qid); cit != contexts_.end()) {
      ++cit->second.span.suspicions;
    }
    HF_INFO << "site " << store_.site() << ": query " << qid.to_string()
            << " involves suspected site " << peer
            << "; forcing partial reply";
    maybe_finish(qid, oit->second, /*force=*/true);
  }

  // Participations whose originator is the suspect: nobody is left to send
  // QueryDone. One final flush (results + weight head home the moment the
  // originator revives and its mailbox drains) and discard.
  std::vector<wire::QueryId> orphaned;
  for (const auto& [qid, p] : contexts_) {
    if (qid.originator == peer) orphaned.push_back(qid);
  }
  for (const auto& qid : orphaned) {
    drain_and_flush(qid);
    discard_context(qid);
  }
}

// --- WAL replication (DESIGN.md §18) ---------------------------------------

ReplicaTail* SiteServer::replica_slot(SiteId primary) {
  auto it = options_.replica_assignment.find(primary);
  if (it == options_.replica_assignment.end() ||
      it->second != store_.site() || primary == store_.site()) {
    return nullptr;
  }
  auto [rit, fresh] = replicas_.try_emplace(primary);
  if (rit->second == nullptr) {
    rit->second = std::make_unique<ReplicaTail>(primary);
  }
  return rit->second.get();
}

void SiteServer::check_replication() {
  if (options_.replication_interval <= Duration(0)) return;
  const auto now = now_tick();
  if (now - last_replication_ < options_.replication_interval) return;
  last_replication_ = now;

  // Follower half: (re)subscribe to assigned primaries whose stream has
  // gone quiet. One path covers the initial subscribe, a lost subscribe, a
  // primary reboot, and the gap/corruption resyncs apply_segment requests.
  constexpr auto kNever = std::chrono::steady_clock::time_point{};
  for (const auto& [primary, follower] : options_.replica_assignment) {
    if (follower != store_.site() || primary == store_.site()) continue;
    ReplicaTail* rt = replica_slot(primary);
    if (rt == nullptr) continue;
    const bool quiet = rt->last_heard == kNever ||
                       now - rt->last_heard >= 4 * options_.replication_interval;
    if (!quiet) continue;
    if (rt->last_subscribe != kNever &&
        now - rt->last_subscribe < options_.replication_interval) {
      continue;  // one announce per tick is plenty
    }
    if (peer_suspected(primary)) continue;  // nobody home; revival re-arms
    send_subscribe(primary, *rt);
  }

  // Primary half: ship our WAL tail to every subscribed follower. Volatile
  // sites (no WAL) never ship — there is no redo stream to speak of.
  if (wal_ == nullptr) return;
  for (auto& [follower, ship] : followers_) {
    if (peer_suspected(follower)) continue;
    ship_to(follower, ship);
  }
}

void SiteServer::send_subscribe(SiteId primary, ReplicaTail& rt) {
  wire::WalSubscribe ws;
  ws.follower = store_.site();
  ws.ship_epoch = rt.watermark.ship_epoch;
  ws.wal_offset = rt.watermark.wal_offset;
  // Deliberately unsequenced (msg_seq 0, never suppressed): a subscribe is
  // an idempotent cursor placement, and a seq high-water mark would eat a
  // rebooted follower's first subscribe — its counter restarts below the
  // primary's mark, and a follower has no persisted epoch of its own to
  // scope the mark with (ship_epoch here is the *primary's*).
  ws.msg_seq = 0;
  rt.last_subscribe = now_tick();
  if (endpoint_->send(primary, wire::Message(std::move(ws))).ok()) {
    metrics().counter("dist.wal_subscribes_sent").inc();
  }
}

void SiteServer::handle_wal_subscribe(SiteId src, wire::WalSubscribe ws) {
  // Subscribes travel unsequenced (see send_subscribe), so this guard never
  // suppresses anything — it short-circuits on msg_seq 0 without touching
  // the mark. It exists because the dedup-before-side-effects contract
  // (tools/hfverify ordering rule) is checked uniformly over every handler
  // of a sequenced message type, and an exception here would be a standing
  // invitation to add a sequenced send path without a guard.
  if (already_seen(wal_stream_seen_, src, ws.ship_epoch, ws.msg_seq)) {
    metrics().counter("dist.dedup_hits").inc();
    return;
  }
  if (options_.replication_interval <= Duration(0) || wal_ == nullptr ||
      src == store_.site() || src == kNoSite) {
    return;  // not a replicating primary (volatile, or the feature is off)
  }
  FollowerShip& ship = followers_[src];
  ship.ship_epoch = ws.ship_epoch;
  ship.shipped = ws.wal_offset;
  // A generation mismatch (either side rebooted, or we truncated) — or an
  // offset past our tail (we truncated *and* re-filled) — means tail replay
  // from the follower's position is meaningless: snapshot it instead.
  ship.needs_catchup =
      ws.ship_epoch != ship_epoch_ || ws.wal_offset > wal_->byte_size();
  metrics().counter("dist.wal_subscribes").inc();
}

void SiteServer::ship_to(SiteId follower, FollowerShip& ship) {
  if (ship.ship_epoch != ship_epoch_) ship.needs_catchup = true;
  if (ship.needs_catchup) {
    const std::uint64_t tail = wal_->byte_size();
    wire::WalCatchup wc;
    wc.primary = store_.site();
    wc.ship_epoch = ship_epoch_;
    wc.wal_offset = tail;
    wc.snapshot = snapshot_store(store_);
    wc.msg_seq = next_msg_seq_++;
    // Fire-and-forget like summary adverts: a lost shipment surfaces as a
    // quiet stream at the follower, whose re-subscribe re-aims the cursor.
    if (endpoint_->send(follower, wire::Message(std::move(wc))).ok()) {
      ship.ship_epoch = ship_epoch_;
      ship.shipped = tail;
      ship.needs_catchup = false;
      metrics().counter("dist.wal_catchups_shipped").inc();
    }
    return;
  }
  if (ship.shipped >= wal_->byte_size()) return;  // follower is current
  // hfverify: allow-blocking(wal-ship): bounded file read (one
  // replication_segment_bytes batch) in the same loop pause that already
  // absorbs WAL appends; shipping from the file keeps no second copy.
  auto seg = read_wal_segment(wal_->path(), ship.shipped,
                              options_.replication_segment_bytes);
  if (!seg.ok()) {
    HF_WARN << "site " << store_.site() << ": cannot read WAL segment at "
            << ship.shipped << ": " << seg.error().message;
    return;
  }
  if (seg.value().records.empty()) {
    // A torn record at the read offset can never frame a full record again;
    // resync via snapshot rather than re-reading the tear forever.
    if (seg.value().torn) ship.needs_catchup = true;
    return;
  }
  wire::WalSegment wg;
  wg.primary = store_.site();
  wg.ship_epoch = ship_epoch_;
  wg.from_offset = ship.shipped;
  wg.end_offset = seg.value().end_offset;
  wg.records = std::move(seg.value().records);
  wg.msg_seq = next_msg_seq_++;
  const std::uint64_t end = wg.end_offset;
  const std::uint64_t count = wg.records.size();
  if (endpoint_->send(follower, wire::Message(std::move(wg))).ok()) {
    ship.shipped = end;
    metrics().counter("dist.wal_segments_shipped").inc();
    metrics().counter("dist.wal_records_shipped").inc(count);
  }
}

void SiteServer::handle_wal_segment(SiteId src, wire::WalSegment wg) {
  // Dedup before any apply: a wire-duplicated segment must not re-run its
  // records nor advance the watermark twice. Epoch-scoped high-water, like
  // summary adverts and for the same reboot reason; true positional
  // arbitration (gaps, reorders across loss) lives in apply_segment.
  if (already_seen(wal_stream_seen_, src, wg.ship_epoch, wg.msg_seq)) {
    metrics().counter("dist.dedup_hits").inc();
    return;
  }
  apply_segment(src, wg.ship_epoch, wg.from_offset, wg.end_offset,
                std::move(wg.records));
}

void SiteServer::handle_wal_catchup(SiteId src, wire::WalCatchup wc) {
  // Same stream, same mark as WalSegment: segments and catchups from one
  // primary interleave on one msg_seq sequence.
  if (already_seen(wal_stream_seen_, src, wc.ship_epoch, wc.msg_seq)) {
    metrics().counter("dist.dedup_hits").inc();
    return;
  }
  apply_catchup(src, wc.ship_epoch, wc.wal_offset, std::move(wc.snapshot));
}

void SiteServer::apply_segment(SiteId primary, std::uint64_t ship_epoch,
                               std::uint64_t from_offset,
                               std::uint64_t end_offset,
                               std::vector<wire::Bytes> records) {
  ReplicaTail* rt = replica_slot(primary);
  if (rt == nullptr) return;  // stray shipment: we don't follow this site
  rt->last_heard = now_tick();
  // Whatever else happens below, the segment proves the primary's WAL
  // reaches end_offset — remember the freshest tail we have evidence of,
  // so covers() honestly reports lag across gaps and epoch rolls.
  if (ship_epoch > rt->primary_tail.ship_epoch ||
      (ship_epoch == rt->primary_tail.ship_epoch &&
       end_offset > rt->primary_tail.wal_offset)) {
    rt->primary_tail.ship_epoch = ship_epoch;
    rt->primary_tail.wal_offset = end_offset;
  }
  ReplicationWatermark& wm = rt->watermark;
  if (ship_epoch != wm.ship_epoch || from_offset != wm.wal_offset) {
    // Positional mismatch. At-or-behind the watermark in the same epoch is
    // a transport retry of something already applied — drop it. Anything
    // else (a gap, an unseen epoch) means tail replay cannot proceed:
    // re-announce our position and let the primary pick tail vs snapshot.
    if (ship_epoch == wm.ship_epoch && end_offset <= wm.wal_offset) {
      metrics().counter("dist.replica_duplicate_segments").inc();
      return;
    }
    send_subscribe(primary, *rt);
    return;
  }
  auto applied = apply_segment_records(rt->shadow, records);
  if (!applied.ok()) {
    HF_WARN << "site " << store_.site() << ": WAL segment from primary "
            << primary << " corrupt: " << applied.error().message
            << "; resyncing via snapshot";
    // A prefix may have applied; that is safe (the snapshot that answers
    // the resubscribe supersedes the whole shadow), but the watermark must
    // not claim the segment. Reset it so nothing positional matches again.
    rt->watermark = ReplicationWatermark{};
    send_subscribe(primary, *rt);
    return;
  }
  wm.wal_offset = end_offset;
  wm.store_version = rt->shadow.version();
  rt->last_advance = rt->last_heard;
  metrics().counter("dist.replica_applies").inc(applied.value());
}

void SiteServer::apply_catchup(SiteId primary, std::uint64_t ship_epoch,
                               std::uint64_t wal_offset, wire::Bytes snapshot) {
  ReplicaTail* rt = replica_slot(primary);
  if (rt == nullptr) return;
  rt->last_heard = now_tick();
  ReplicationWatermark& wm = rt->watermark;
  // Never rewind onto an older snapshot: a reordered catchup from an
  // earlier generation (or an earlier tail of this one) would roll the
  // shadow back past records already applied.
  if (ship_epoch < wm.ship_epoch ||
      (ship_epoch == wm.ship_epoch && wal_offset <= wm.wal_offset)) {
    metrics().counter("dist.replica_duplicate_segments").inc();
    return;
  }
  auto restored = restore_store(snapshot);
  if (!restored.ok()) {
    HF_WARN << "site " << store_.site() << ": catchup snapshot from primary "
            << primary << " does not restore: " << restored.error().message;
    return;  // stay on the old shadow; the resubscribe path will retry
  }
  // Move-assign into the existing object: failover executions hold
  // references to rt->shadow, which must stay address-stable.
  rt->shadow = std::move(restored).value();
  wm.ship_epoch = ship_epoch;
  wm.wal_offset = wal_offset;
  wm.store_version = rt->shadow.version();
  if (wm.covers(rt->primary_tail)) rt->primary_tail = wm;
  rt->last_advance = rt->last_heard;
  metrics().counter("dist.replica_catchups").inc();
}

SiteExecution& SiteServer::shadow_execution(const wire::QueryId& qid,
                                            Participation& p, SiteId primary) {
  auto it = p.shadow_execs.find(primary);
  if (it != p.shadow_execs.end()) return *it->second;
  SiteStore& shadow = replica_slot(primary)->shadow;
  ExecutionOptions opts;
  opts.discipline = options_.discipline;
  opts.is_local = [&shadow](const ObjectId& id) { return shadow.contains(id); };
  opts.remote_sink = [this, qid](WorkItem&& item) {
    auto cit = contexts_.find(qid);
    if (cit == contexts_.end()) return;
    Participation& ctx = cit->second;
    if (store_.contains(item.id)) {
      // A pointer out of the shadow landing on our *own* store: feed the
      // main execution directly instead of bouncing through the wire.
      ++ctx.span.items;
      ctx.exec->add_item(std::move(item));
      return;
    }
    route_remote(qid, ctx, std::move(item));
  };
  // Always the serial engine, even when a drain pool exists: failover work
  // is the degraded path, and one engine shape keeps the shadow store's
  // event-loop confinement trivially true.
  auto [nit, inserted] = p.shadow_execs.emplace(
      primary,
      std::make_unique<QueryExecution>(p.exec->query(), shadow,
                                       std::move(opts)));
  (void)inserted;
  return *nit->second;
}

void SiteServer::handle(wire::Envelope env) {
  const SiteId src = env.src;
  // Piggybacked heartbeat: any frame from a peer proves it alive. Seeing a
  // *suspected* peer again clears the suspicion — new work routes to it
  // once more (its durable store recovered whatever it acknowledged).
  if (options_.suspect_after > Duration(0) && src != store_.site() &&
      src != kNoSite) {
    auto [it, fresh] = liveness_.try_emplace(src);
    it->second.last_seen = now_tick();
    it->second.send_failed = false;  // the frame outranks a stale failure
    if (!fresh && it->second.suspected) {
      it->second.suspected = false;
      metrics().counter("dist.peer_revivals").inc();
      HF_INFO << "site " << store_.site() << ": site " << src
              << " seen alive again";
    }
  }
  if (auto* pg = std::get_if<wire::PingMessage>(&env.message)) {
    // Answer probes immediately; replies (want_reply=false) were only ever
    // for the last-seen refresh above.
    if (pg->want_reply && src != store_.site() && src != kNoSite) {
      (void)endpoint_->send(src, wire::PingMessage{false});
    }
    return;
  }
  if (auto* dr = std::get_if<wire::DerefRequest>(&env.message)) {
    handle_deref(src, std::move(*dr));
  } else if (auto* bd = std::get_if<wire::BatchDerefRequest>(&env.message)) {
    handle_batch_deref(src, std::move(*bd));
  } else if (auto* sq = std::get_if<wire::StartQuery>(&env.message)) {
    handle_start(src, std::move(*sq));
  } else if (auto* rm = std::get_if<wire::ResultMessage>(&env.message)) {
    handle_result(src, std::move(*rm));
  } else if (auto* cr = std::get_if<wire::ClientRequest>(&env.message)) {
    handle_client_request(src, std::move(*cr));
  } else if (auto* ta = std::get_if<wire::TermAck>(&env.message)) {
    handle_term_ack(src, *ta);
  } else if (auto* mc = std::get_if<wire::MoveCommand>(&env.message)) {
    handle_move_command(src, *mc);
  } else if (auto* md = std::get_if<wire::MoveData>(&env.message)) {
    handle_move_data(std::move(*md));
  } else if (auto* lu = std::get_if<wire::LocationUpdate>(&env.message)) {
    handle_location_update(*lu);
  } else if (auto* sm = std::get_if<wire::SummaryMessage>(&env.message)) {
    handle_summary(src, std::move(*sm));
  } else if (auto* ws = std::get_if<wire::WalSubscribe>(&env.message)) {
    handle_wal_subscribe(src, std::move(*ws));
  } else if (auto* wg = std::get_if<wire::WalSegment>(&env.message)) {
    handle_wal_segment(src, std::move(*wg));
  } else if (auto* wcu = std::get_if<wire::WalCatchup>(&env.message)) {
    handle_wal_catchup(src, std::move(*wcu));
  } else if (auto* qd = std::get_if<wire::QueryDone>(&env.message)) {
    handle_done(*qd);
  }
  // ClientReply at a server: stray, ignore.
}

SiteServer::Origination* SiteServer::find_origination(const wire::QueryId& qid) {
  auto it = originated_.find(qid);
  return it == originated_.end() ? nullptr : &it->second;
}

SiteServer::Participation& SiteServer::participation(const wire::QueryId& qid,
                                                     const Query& query) {
  auto it = contexts_.find(qid);
  if (it != contexts_.end()) return it->second;

  ExecutionOptions opts;
  opts.discipline = options_.discipline;
  opts.is_local = [this](const ObjectId& id) { return store_.contains(id); };
  opts.remote_sink = [this, qid](WorkItem&& item) {
    auto cit = contexts_.find(qid);
    if (cit == contexts_.end()) return;
    route_remote(qid, cit->second, std::move(item));
  };

  auto [nit, inserted] = contexts_.emplace(qid, Participation{});
  (void)inserted;
  nit->second.last_activity = now_tick();
  nit->second.span.site = store_.site();
  if (drain_pool_ != nullptr) {
    nit->second.exec = std::make_unique<ParallelExecution>(
        query, store_, *drain_pool_, std::move(opts));
  } else {
    nit->second.exec =
        std::make_unique<QueryExecution>(query, store_, std::move(opts));
  }
  return nit->second;
}

Weight SiteServer::borrow_weight(const wire::QueryId& qid, Participation& p) {
  if (using_ds()) return Weight::zero();  // D-S messages carry no weight
  if (Origination* o = find_origination(qid)) return o->term.borrow();
  return p.weight.borrow();
}

void SiteServer::repay_weight(const wire::QueryId& qid, Participation& p,
                              Weight w) {
  if (w.is_zero()) return;
  if (Origination* o = find_origination(qid)) {
    o->term.repay(std::move(w));
  } else {
    p.weight.receive(std::move(w));
  }
}

void SiteServer::ds_on_computation_message(const wire::QueryId& qid,
                                           Participation& p, SiteId src) {
  if (!using_ds()) return;
  if (find_origination(qid) != nullptr) {
    // The root is permanently engaged: every incoming message is acked at
    // once (its completion is subsumed by the root's own idle/deficit test).
    (void)send_with_retry(src, wire::TermAck{qid, next_msg_seq_++});
    return;
  }
  if (!p.ds_engaged) {
    p.ds_engaged = true;  // this message becomes our tree edge
    p.ds_parent = src;
    return;
  }
  (void)send_with_retry(src, wire::TermAck{qid, next_msg_seq_++});
}

void SiteServer::handle_term_ack(SiteId src, const wire::TermAck& ta) {
  auto it = contexts_.find(ta.qid);
  if (it == contexts_.end()) return;
  Participation& p = it->second;
  // A wire-duplicated ack must not decrement the deficit twice: the second
  // decrement would consume the ack of a message still outstanding and
  // declare termination early.
  if (already_seen(p.seen, src, ta.msg_seq)) return;
  p.last_activity = now_tick();
  if (p.ds_deficit > 0) --p.ds_deficit;
  ds_try_settle(ta.qid, p);
}

void SiteServer::ds_try_settle(const wire::QueryId& qid, Participation& p) {
  if (!using_ds()) return;
  if (Origination* o = find_origination(qid)) {
    maybe_finish(qid, *o);
    return;
  }
  if (p.ds_engaged && p.ds_deficit == 0 && p.executions_idle()) {
    const SiteId parent = p.ds_parent;
    p.ds_engaged = false;
    p.ds_parent = kNoSite;
    (void)send_with_retry(parent, wire::TermAck{qid, next_msg_seq_++});
  }
}

void SiteServer::route_remote(const wire::QueryId& qid, Participation& p,
                              WorkItem item) {
  const SiteId self = store_.site();
  SiteId dest;
  if (item.id.presumed_site != self && item.id.presumed_site != kNoSite) {
    dest = item.id.presumed_site;
  } else {
    // The hint points here but the object is absent (moved away, or a
    // dangling pointer). Chase it at most once per (id, start) — the name
    // registry's next hop (local hint, else birth site) decides where.
    if (!p.forwarded.emplace(item.id, item.start).second) return;
    auto hop = names_.next_hop(item.id);
    if (!hop.has_value()) return;  // final arbiter says gone: partial result
    dest = *hop;
  }

  // Route around a suspected peer. Failover first (DESIGN.md §18): if the
  // suspect has a hot standby, its work is served from the replica — from
  // our own shadow store when we are the follower, else by redirecting the
  // message to whoever is. Only when no replica can cover the item does it
  // drop as a *known* loss (reply flagged partial) — still better than
  // waiting out retries against a dead site.
  SiteId send_to = dest;
  if (peer_suspected(dest)) {
    if (ReplicaTail* rt = replica_slot(dest); rt != nullptr) {
      // We are the suspect's follower: execute against the shadow.
      if (rt->shadow.contains(item.id)) {
        ++p.span.failovers;
        metrics().counter("dist.failovers").inc();
        if (!rt->watermark.covers(rt->primary_tail)) {
          // The shadow verifiably trails the primary's last known WAL
          // tail: the answer may miss acknowledged mutations. Flag it —
          // maybe_finish degrades the reply to partial.
          ++p.span.replica_lag;
          metrics().histogram("dist.replica_lag_us")
              .observe(us_since(rt->last_advance));
        }
        shadow_execution(qid, p, dest).add_item(std::move(item));
        return;
      }
      // Not in the shadow (never shipped, or lost to lag): a known loss —
      // executing a miss here could chase stale hints in circles.
    } else if (SiteId standby = replica_for(dest);
               standby != kNoSite && standby != store_.site() &&
               !peer_suspected(standby)) {
      // Someone else holds the replica: redirect the deref there. The
      // oid keeps presuming the dead primary, which is exactly what tells
      // the standby to serve it from that primary's shadow store.
      ++p.span.failovers;
      metrics().counter("dist.failovers").inc();
      send_to = standby;
    }
    if (send_to == dest) {
      if (Origination* o = find_origination(qid)) {
        ++o->dropped_items;
      } else {
        ++p.dropped;
      }
      return;
    }
  }

  // Fan-out pruning (DESIGN.md §16): skip the message entirely when the
  // destination's cached summary is fresh and proves this item cannot
  // contribute there. Unlike the suspicion drop above this is NOT a loss —
  // the summary's never-false-negative guarantee makes the skipped work
  // provably fruitless, so the reply stays exact and unflagged.
  if (summary_prunes(dest, p.exec->query(), item.start, item.id)) {
    ++p.span.pruned;
    metrics().counter("dist.prunes").inc();
    return;
  }

  if (options_.batch_remote_derefs) {
    wire::DerefEntry entry;
    entry.oid = item.id;
    entry.oid.presumed_site = dest;
    entry.start = item.start;
    entry.iter_stack = std::move(item.iter_stack);
    p.pending_batches[send_to].push_back(std::move(entry));
    return;
  }

  Weight w = borrow_weight(qid, p);
  wire::DerefRequest dr;
  dr.qid = qid;
  dr.query = p.exec->query();
  dr.oid = item.id;
  dr.oid.presumed_site = dest;
  dr.start = item.start;
  dr.iter_stack = item.iter_stack;
  dr.weight = w.exponents();
  dr.msg_seq = next_msg_seq_++;
  dr.hop = p.current_hop + 1;
  dr.path = p.out_path;
  if (auto r = send_with_retry(send_to, wire::Message(std::move(dr)), &p.span);
      !r.ok()) {
    // Site unreachable even after retries: drop the item but keep its
    // weight, so the query terminates with partial results instead of
    // hanging (paper Section 1: "Partial results are better than none at
    // all") — and record the loss so the reply is flagged partial.
    HF_DEBUG << "site " << self << ": deref to site " << send_to
             << " failed (" << r.error().to_string() << "); dropping item";
    repay_weight(qid, p, std::move(w));
    if (Origination* o = find_origination(qid)) {
      ++o->dropped_items;
    } else {
      ++p.dropped;
    }
    return;
  }
  ds_on_send(p);
  ++p.span.forwarded;
  if (Origination* o = find_origination(qid)) o->involved.insert(send_to);
}

void SiteServer::flush_batches(const wire::QueryId& qid, Participation& p) {
  for (auto& [dest, items] : p.pending_batches) {
    if (items.empty()) continue;
    const std::uint64_t batch_size = items.size();
    Weight w = borrow_weight(qid, p);
    wire::BatchDerefRequest bd;
    bd.qid = qid;
    bd.query = p.exec->query();
    bd.items = std::move(items);
    bd.weight = w.exponents();
    bd.msg_seq = next_msg_seq_++;
    bd.hop = p.current_hop + 1;
    bd.path = p.out_path;
    if (auto r = send_with_retry(dest, wire::Message(std::move(bd)), &p.span);
        !r.ok()) {
      HF_DEBUG << "site " << store_.site() << ": batch deref to site " << dest
               << " failed (" << r.error().to_string() << "); dropping batch";
      repay_weight(qid, p, std::move(w));
      if (Origination* o = find_origination(qid)) {
        o->dropped_items += batch_size;
      } else {
        p.dropped += batch_size;
      }
      continue;
    }
    ds_on_send(p);
    p.span.forwarded += batch_size;
    if (Origination* o = find_origination(qid)) o->involved.insert(dest);
  }
  p.pending_batches.clear();
}

void SiteServer::handle_deref(SiteId src, wire::DerefRequest dr) {
  if (stale_own_query(dr.qid, src)) return;
  Participation& p = participation(dr.qid, dr.query);
  // Dedup before any bookkeeping: repaying a replayed message's weight a
  // second time would push held weight past one, and acking it under D-S
  // would cancel an ack the sender is still owed.
  if (already_seen(p.seen, src, dr.msg_seq)) {
    ++p.span.duplicates;
    metrics().counter("dist.dedup_hits").inc();
    return;
  }
  p.last_activity = now_tick();
  note_engagement(p, dr.hop, dr.path);
  ds_on_computation_message(dr.qid, p, src);
  repay_weight(dr.qid, p, Weight::from_exponents(dr.weight));

  // Prune effectiveness accounting: if our own current summary would have
  // pruned this message, the sender paid for it anyway — its cache of us
  // was missing or stale, or a Bloom false positive let it through.
  if (summary_built_ &&
      !own_summary_.may_contribute(dr.query, dr.start, dr.oid)) {
    metrics().counter("dist.prune_false_positives").inc();
  }

  WorkItem item;
  item.id = dr.oid;
  item.start = dr.start;
  item.next = dr.start;
  item.iter_stack = dr.iter_stack.empty() ? std::vector<std::uint32_t>{1}
                                          : dr.iter_stack;
  if (store_.contains(item.id)) {
    ++p.span.items;
    p.exec->add_item(std::move(item));
  } else {
    route_remote(dr.qid, p, std::move(item));
  }
  drain_and_flush(dr.qid);
}

void SiteServer::handle_batch_deref(SiteId src, wire::BatchDerefRequest bd) {
  if (stale_own_query(bd.qid, src)) return;
  Participation& p = participation(bd.qid, bd.query);
  if (already_seen(p.seen, src, bd.msg_seq)) {  // see handle_deref
    ++p.span.duplicates;
    metrics().counter("dist.dedup_hits").inc();
    return;
  }
  p.last_activity = now_tick();
  note_engagement(p, bd.hop, bd.path);
  ds_on_computation_message(bd.qid, p, src);
  repay_weight(bd.qid, p, Weight::from_exponents(bd.weight));
  for (wire::DerefEntry& entry : bd.items) {
    WorkItem item;
    item.id = entry.oid;
    item.start = entry.start;
    item.next = entry.start;
    item.iter_stack = entry.iter_stack.empty() ? std::vector<std::uint32_t>{1}
                                               : std::move(entry.iter_stack);
    if (store_.contains(item.id)) {
      ++p.span.items;
      p.exec->add_item(std::move(item));
    } else {
      route_remote(bd.qid, p, std::move(item));
    }
  }
  drain_and_flush(bd.qid);
}

void SiteServer::handle_start(SiteId src, wire::StartQuery sq) {
  if (stale_own_query(sq.qid, src)) return;
  Participation& p = participation(sq.qid, sq.query);
  if (already_seen(p.seen, src, sq.msg_seq)) {  // see handle_deref
    ++p.span.duplicates;
    metrics().counter("dist.dedup_hits").inc();
    return;
  }
  p.last_activity = now_tick();
  note_engagement(p, sq.hop, sq.path);
  ds_on_computation_message(sq.qid, p, src);
  repay_weight(sq.qid, p, Weight::from_exponents(sq.weight));

  for (const ObjectId& id : sq.ids) {
    WorkItem item = WorkItem::initial(id);
    if (store_.contains(id)) {
      ++p.span.items;
      p.exec->add_item(std::move(item));
    } else {
      route_remote(sq.qid, p, std::move(item));
    }
  }
  if (!sq.local_set_name.empty()) p.exec->seed_local_set(sq.local_set_name);
  drain_and_flush(sq.qid);
}

void SiteServer::drain_and_flush(const wire::QueryId& qid) {
  auto it = contexts_.find(qid);
  if (it == contexts_.end()) return;
  Participation& p = it->second;
  const auto drain_t0 = now_tick();
  p.exec->drain();
  if (!p.shadow_execs.empty()) {
    // Joint fixpoint with the failover executions: draining one can feed
    // another (shadow pointer landing on our store, our pointer landing on
    // a suspect's shadow), so loop until every engine is simultaneously
    // idle. Keys are snapshotted per round — route_remote may grow the map
    // mid-drain when a chase reaches a second suspected primary.
    bool moved = true;
    while (moved) {
      moved = false;
      std::vector<SiteId> primaries;
      primaries.reserve(p.shadow_execs.size());
      for (const auto& [primary, se] : p.shadow_execs) {
        primaries.push_back(primary);
      }
      for (SiteId primary : primaries) {
        auto sit = p.shadow_execs.find(primary);
        if (sit != p.shadow_execs.end() && !sit->second->idle()) {
          sit->second->drain();
          moved = true;
        }
      }
      if (!p.exec->idle()) {
        p.exec->drain();
        moved = true;
      }
    }
  }
  const std::uint64_t drain_us = us_since(drain_t0);
  ++p.span.drains;
  p.span.drain_us += drain_us;
  metrics().histogram("dist.drain_us").observe(drain_us);
  flush_batches(qid, p);

  const Query& query = p.exec->query();
  std::vector<ObjectId> ids = p.exec->take_result_ids();
  std::vector<Retrieved> vals = p.exec->take_retrieved();
  for (auto& [primary, se] : p.shadow_execs) {
    // Failover results surface through this site's reply stream; the
    // originator dedups ids, so overlap with the primary's own earlier
    // answers is harmless.
    std::vector<ObjectId> sids = se->take_result_ids();
    ids.insert(ids.end(), sids.begin(), sids.end());
    for (Retrieved& r : se->take_retrieved()) vals.push_back(std::move(r));
  }
  p.span.results += ids.size() + vals.size();

  // count_only: results stay here, bound under the result set name; only
  // the count travels (paper Section 5's distributed-set optimisation).
  std::uint64_t local_count = 0;
  if (query.count_only()) {
    p.retained.insert(p.retained.end(), ids.begin(), ids.end());
    local_count = ids.size();
    if (!query.result_set_name().empty() && !ids.empty()) {
      store_.create_set(query.result_set_name(), p.retained);
    }
    ids.clear();
    vals.clear();
  }

  if (Origination* o = find_origination(qid)) {
    if (query.count_only()) {
      o->total_count += local_count;
      o->site_counts[store_.site()] += local_count;
    } else {
      for (const ObjectId& id : ids) {
        if (o->ids_seen.insert(id).second) o->ids.push_back(id);
      }
      for (Retrieved& r : vals) {
        o->values.push_back({r.slot, r.source, std::move(r.value)});
      }
    }
    o->last_activity = now_tick();
    maybe_finish(qid, *o);
    return;
  }

  // Participant: results + every bit of held weight go straight to the
  // originating site ("no intermediate site need be involved"). Results
  // stashed by an earlier failed send ride along.
  wire::ResultMessage rm;
  rm.qid = qid;
  rm.count_only = query.count_only();
  rm.local_count = local_count + p.pending_count;
  rm.ids = std::move(p.pending_ids);
  for (const ObjectId& id : ids) rm.ids.push_back(id);
  rm.values = std::move(p.pending_values);
  for (Retrieved& r : vals) {
    rm.values.push_back({r.slot, r.source, std::move(r.value)});
  }
  rm.dropped_items = p.dropped;
  rm.msg_seq = next_msg_seq_++;
  rm.spans = {p.span};
  Weight held = p.weight.release_all();
  rm.weight = held.exponents();
  p.pending_ids.clear();
  p.pending_values.clear();
  p.pending_count = 0;
  const wire::Message msg(std::move(rm));
  if (auto r = send_with_retry(qid.originator, msg, &p.span); !r.ok()) {
    // Keep everything: weight back in the participant's purse, results in
    // the pending stash. The TTL sweep re-attempts delivery, so a transient
    // outage loses nothing and a permanent one still terminates (the
    // originator's own TTL answers partial).
    HF_DEBUG << "site " << store_.site() << ": result to originator "
             << qid.originator << " failed: " << r.error().to_string();
    const auto& failed = std::get<wire::ResultMessage>(msg);
    p.weight.receive(std::move(held));
    p.pending_ids = failed.ids;
    p.pending_values = failed.values;
    p.pending_count = failed.local_count;
  } else {
    // D-S: result messages are tree messages too — the originator acks
    // them, which is what keeps termination from racing ahead of results.
    ds_on_send(p);
    p.dropped = 0;  // reported
  }
  ds_try_settle(qid, p);
}

void SiteServer::handle_result(SiteId src, wire::ResultMessage rm) {
  Origination* o = find_origination(rm.qid);
  if (o == nullptr) {
    // Stale result for a finished (or expired) query: the sender evidently
    // missed QueryDone — re-announce it so the participant context closes,
    // but merge nothing.
    if (src != store_.site()) {
      (void)endpoint_->send(src, wire::QueryDone{rm.qid});
    }
    return;
  }
  // Dedup BEFORE weight/count/ack bookkeeping: a replayed ResultMessage
  // would double-count local_count, re-insert values, over-repay weight
  // (Weight::add past one throws), and under D-S cancel an ack the sender
  // is still owed.
  if (already_seen(o->seen, src, rm.msg_seq)) {
    metrics().counter("dist.dedup_hits").inc();
    return;
  }
  o->last_activity = now_tick();
  // Merge piggybacked span snapshots. Field-wise max keeps this idempotent,
  // so even a duplicate that slipped past msg_seq dedup (e.g. a retry with
  // a fresh seq) cannot inflate the trace.
  for (const TraceSpan& s : rm.spans) merge_into(o->spans[s.site], s);
  if (using_ds()) {
    (void)send_with_retry(src, wire::TermAck{rm.qid, next_msg_seq_++});
  }
  o->involved.insert(src);
  o->term.repay(Weight::from_exponents(rm.weight));
  o->dropped_items += rm.dropped_items;
  if (rm.count_only) {
    o->total_count += rm.local_count;
    o->site_counts[src] += rm.local_count;
  } else {
    for (const ObjectId& id : rm.ids) {
      if (o->ids_seen.insert(id).second) o->ids.push_back(id);
    }
    for (auto& v : rm.values) o->values.push_back(std::move(v));
  }
  maybe_finish(rm.qid, *o);
}

void SiteServer::handle_client_request(SiteId src, wire::ClientRequest cr) {
  auto reply_error = [&](const Error& err) {
    wire::ClientReply reply;
    reply.client_seq = cr.client_seq;
    reply.ok = false;
    reply.error = err.to_string();
    (void)endpoint_->send(src, std::move(reply));
  };

  if (auto v = cr.query.validate(); !v.ok()) {
    reply_error(v.error());
    return;
  }
  // Simplify once at origination: every subsequent message (one per remote
  // pointer!) carries the rewritten, smaller body.
  if (options_.rewrite_queries) cr.query = rewrite_query(cr.query);

  metrics().counter("dist.queries_originated").inc();
  const wire::QueryId qid{store_.site(), next_query_seq_++};
  Origination o;
  o.query = cr.query;
  o.client = src;
  o.client_seq = cr.client_seq;
  o.last_activity = now_tick();
  o.started = o.last_activity;
  originated_.emplace(qid, std::move(o));
  Origination& origin = originated_.at(qid);
  Participation& p = participation(qid, cr.query);
  // The client request engages the originator at hop 0; every computation
  // message fanned out from here starts the path at this site.
  note_engagement(p, 0, {});

  // Seed the initial set. A named set that a previous count_only query left
  // *distributed* is seeded by fanning StartQuery to the sites holding
  // portions; anything else resolves locally (remote members of a local set
  // travel as ordinary dereferences).
  bool seeded = false;
  const std::string& set_name = cr.query.initial_set_name();
  if (!set_name.empty()) {
    auto dit = distributed_sets_.find(set_name);
    if (dit != distributed_sets_.end()) {
      for (SiteId s : dit->second) {
        if (s == store_.site()) {
          p.exec->seed_local_set(set_name);
          continue;
        }
        Weight w = borrow_weight(qid, p);
        wire::StartQuery sq;
        sq.qid = qid;
        sq.query = cr.query;
        sq.local_set_name = set_name;
        sq.weight = w.exponents();
        sq.msg_seq = next_msg_seq_++;
        sq.hop = 1;
        sq.path = p.out_path;
        if (auto r = send_with_retry(s, wire::Message(std::move(sq)), &p.span);
            !r.ok()) {
          repay_weight(qid, p, std::move(w));
          ++origin.dropped_items;  // that site's whole portion is lost
          continue;
        }
        ds_on_send(p);
        ++p.span.forwarded;
        origin.involved.insert(s);
      }
      seeded = true;
    }
  }
  if (!seeded) {
    if (auto r = p.exec->seed_initial(); !r.ok()) {
      reply_error(r.error());
      discard_context(qid);
      originated_.erase(qid);
      return;
    }
  }
  drain_and_flush(qid);
}

void SiteServer::maybe_finish(const wire::QueryId& qid, Origination& o,
                              bool force) {
  if (o.replied) return;
  if (!force) {
    auto cit = contexts_.find(qid);
    if (cit == contexts_.end()) return;
    if (!cit->second.executions_idle()) return;
    const bool quiescent = using_ds() ? cit->second.ds_deficit == 0
                                      : o.term.all_weight_home();
    if (!quiescent) return;
  }
  o.replied = true;

  const Query& query = o.query;
  if (!query.result_set_name().empty()) {
    if (query.count_only()) {
      std::vector<SiteId> sites;
      for (const auto& [site, count] : o.site_counts) {
        if (count > 0) sites.push_back(site);
      }
      distributed_sets_[query.result_set_name()] = std::move(sites);
    } else {
      store_.create_set(query.result_set_name(), o.ids);
    }
  }

  // Merge the originator's own (still-live) span into the trace before the
  // partial verdict: its replica_lag flag feeds that verdict like every
  // participant's does.
  if (auto cit = contexts_.find(qid); cit != contexts_.end()) {
    merge_into(o.spans[store_.site()], cit->second.span);
  }
  bool replica_lagged = false;
  for (const auto& [site, span] : o.spans) {
    if (span.replica_lag > 0) replica_lagged = true;
  }

  wire::ClientReply reply;
  reply.client_seq = o.client_seq;
  reply.ok = true;
  reply.ids = o.ids;
  reply.values = o.values;
  reply.count_only = query.count_only();
  reply.total_count = query.count_only() ? o.total_count : o.ids.size();
  // A forced finish means termination never arrived — some site may still
  // hold unreported results, so the answer is partial even when no loss
  // was positively observed. A lagging replica answer (DESIGN.md §18) is
  // the same epistemic state: nothing provably wrong arrived, but
  // acknowledged mutations may be missing.
  reply.partial = force || o.dropped_items > 0 || replica_lagged;
  reply.dropped_items = o.dropped_items;
  if (force) metrics().counter("dist.ttl_force_finish").inc();
  if (reply.partial) metrics().counter("dist.queries_partial").inc();

  // Assemble the trace: participant snapshots merged so far, plus the
  // originator's own span, sorted by site for the client.
  reply.qid = qid;
  reply.elapsed_us = us_since(o.started);
  for (const auto& [site, span] : o.spans) reply.spans.push_back(span);
  std::sort(reply.spans.begin(), reply.spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) { return a.site < b.site; });

  if (o.client != kNoSite) {
    (void)send_with_retry(o.client, wire::Message(std::move(reply)));
  }

  // Global termination: tell every involved site to discard its context.
  // QueryDone is idempotent (it only ever discards), so retries are safe
  // and a site that misses it falls back to its context TTL.
  for (SiteId s : o.involved) {
    if (s == store_.site()) continue;
    (void)send_with_retry(s, wire::QueryDone{qid});
  }
  discard_context(qid);
  originated_.erase(qid);
}

void SiteServer::handle_done(const wire::QueryDone& qd) { discard_context(qd.qid); }

void SiteServer::handle_move_command(SiteId src, const wire::MoveCommand& mc) {
  // Forwarded commands carry the client's address explicitly; a command
  // straight from the client may predate that field being set.
  const SiteId reply_to = mc.reply_to != kNoSite ? mc.reply_to : src;
  auto reply_error = [&](const std::string& message) {
    wire::MoveReply reply;
    reply.client_seq = mc.client_seq;
    reply.ok = false;
    reply.error = message;
    (void)endpoint_->send(reply_to, std::move(reply));
  };

  if (!store_.contains(mc.id)) {
    // Stale hint: chase the object like a dereference would, with a fuse.
    if (mc.hops_left == 0) {
      reply_error("object not found (forwarding fuse exhausted)");
      return;
    }
    auto hop = names_.next_hop(mc.id);
    if (!hop.has_value()) {
      reply_error("object " + mc.id.to_string() + " does not exist");
      return;
    }
    wire::MoveCommand forwarded = mc;
    forwarded.reply_to = reply_to;
    --forwarded.hops_left;
    if (auto r = endpoint_->send(*hop, forwarded); !r.ok()) {
      reply_error("forwarding failed: " + r.error().to_string());
    }
    return;
  }

  if (mc.to == store_.site()) {  // already home: trivially done
    wire::MoveReply reply;
    reply.client_seq = mc.client_seq;
    reply.now_at = store_.site();
    (void)endpoint_->send(reply_to, std::move(reply));
    return;
  }

  // Hint first, then take: a dereference arriving in between still finds a
  // forwarding route (the brief not-yet-installed window at the new home
  // degrades to partial results, never a hang).
  names_.record_departure(mc.id, mc.to);
  auto obj = store_.take(mc.id);
  if (!obj.has_value()) {
    reply_error("object vanished during move");
    return;
  }
  wire::MoveData md;
  md.object = std::move(*obj);
  md.reply_to = reply_to;
  md.client_seq = mc.client_seq;
  // Sent by copy so the object can be reinstalled if the send fails.
  if (auto r = endpoint_->send(mc.to, md); !r.ok()) {
    store_.put(std::move(md.object));
    names_.forget_hint(mc.id);
    reply_error("destination unreachable: " + r.error().to_string());
  }
}

void SiteServer::handle_move_data(wire::MoveData md) {
  const ObjectId id = md.object.id();
  store_.put(std::move(md.object));
  if (id.birth_site == store_.site()) {
    names_.record_location(id, store_.site());
  } else {
    (void)endpoint_->send(id.birth_site,
                          wire::LocationUpdate{id, store_.site()});
  }
  // We are the object's home now; drop any stale departure hint.
  names_.forget_hint(id);

  wire::MoveReply reply;
  reply.client_seq = md.client_seq;
  reply.now_at = store_.site();
  (void)endpoint_->send(md.reply_to, std::move(reply));
}

void SiteServer::handle_location_update(const wire::LocationUpdate& lu) {
  names_.record_location(lu.id, lu.now_at);
}

void SiteServer::discard_context(const wire::QueryId& qid) {
  auto it = contexts_.find(qid);
  if (it == contexts_.end()) return;
  // Snapshot before taking stats_mu_: exec->stats() acquires the engine's
  // own stats lock, and stats_mu_ is a leaf (DESIGN.md §10 rule 2).
  EngineStats finished = it->second.exec->stats();
  for (auto& [primary, se] : it->second.shadow_execs) {
    finished += se->stats();
  }
  {
    MutexLock lock(stats_mu_);
    total_stats_ += finished;
  }
  contexts_.erase(it);
}

}  // namespace hyperfile
