#include "rpc/replicator.hh"

#include <chrono>
#include <thread>

#include "fleet/backoff.hh"
#include "fleet/ring.hh"
#include "rpc/server.hh"

namespace mopt {

namespace {

// Call budgets: best-effort calls must never wedge on a dead peer.
constexpr long kReplPushDeadlineMs = 1000;
constexpr long kReplPullDeadlineMs = 2000;
constexpr long kReplPingDeadlineMs = 250;

// Bounds on queued-but-unpushed records (overflow is dropped, never
// backs up the solve path) and on each quarantined peer's spool
// (oldest drop first). Anti-entropy repairs whatever either drops.
constexpr std::size_t kMaxReplQueue = 1024;
constexpr std::size_t kMaxSpoolPerPeer = 1024;

// Attempts (with jittered exponential backoff) before a spool.
constexpr int kReplPushAttempts = 3;
constexpr long kReplPushBackoffMs = 50;

// The idle tick of run(): probes and the anti-entropy schedule.
constexpr long kReplLoopSliceMs = 50;

} // namespace

Replicator::Transport
Replicator::clientTransport(const std::vector<RpcEndpoint> &peers)
{
    auto clients = std::make_shared<std::vector<Client>>();
    clients->reserve(peers.size());
    for (const RpcEndpoint &ep : peers)
        clients->emplace_back(ep);
    return [clients](std::size_t peer, const RpcRequest &req,
                     RpcResponse &resp, long deadline_ms) {
        Client &c = (*clients)[peer];
        std::string err;
        if (c.call(req, resp, &err, Deadline::in(deadline_ms)) && resp.ok)
            return true;
        c.disconnect(); // Reconnect fresh next time.
        return false;
    };
}

Replicator::Replicator(SolutionCache *cache, std::uint64_t machine_fp,
                       std::uint64_t settings_fp,
                       const ServerOptions &options,
                       ServerCounters &counters)
    : cache_(cache), machine_fp_(machine_fp), settings_fp_(settings_fp),
      options_(options), counters_(counters)
{}

void
Replicator::join(std::size_t peers, Transport transport)
{
    fleet_size_ = peers + 1;
    transport_ = std::move(transport);
    // Liveness defaults: 3 strikes to Down, 100..2000 ms jittered
    // half-open quarantine.
    peers_ = std::make_unique<PeerTable>(peers, PeerTableOptions{});
    spools_.assign(peers, {});
    ae_.assign(peers, AeState{});
    if (!cache_)
        return;
    // Delta prefetch: the journal's high-water sequence survived a
    // restart, so ask each peer only for what came after it (a fresh
    // node pulls everything). No slot filter: a rejoining node warms
    // fully so it can serve any key a client fails over to it with.
    const std::int64_t since = cache_->journalSeq();
    counters_.repl_prefetch_since.store(since, std::memory_order_relaxed);
    for (std::size_t i = 0; i < peers_->size(); ++i)
        counters_.repl_prefetched.fetch_add(
            pullFrom(i, since, /*for_slot=*/false),
            std::memory_order_relaxed);
}

void
Replicator::enqueue(SolutionCacheRecord rec)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_)
            return; // Shutting down; the record is already cached.
        if (queue_.size() >= kMaxReplQueue) {
            counters_.repl_push_failed.fetch_add(
                static_cast<std::int64_t>(fleet_size_ - 1),
                std::memory_order_relaxed);
            return;
        }
        queue_.push_back(std::move(rec));
    }
    cv_.notify_one();
}

void
Replicator::run()
{
    const std::chrono::milliseconds period(options_.anti_entropy_ms);
    auto next_ae = std::chrono::steady_clock::now() + period;
    for (;;) {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::milliseconds(kReplLoopSliceMs),
                     [this] { return stop_ || !queue_.empty(); });
        if (stop_)
            return; // Best-effort: drop what is still queued.
        if (!queue_.empty()) {
            const SolutionCacheRecord rec = std::move(queue_.front());
            queue_.pop_front();
            lock.unlock();
            pushRecord(rec);
            continue; // Drain fresh inserts before housekeeping.
        }
        lock.unlock();
        probeDownPeers();
        if (period.count() > 0 &&
            std::chrono::steady_clock::now() >= next_ae) {
            antiEntropy();
            next_ae = std::chrono::steady_clock::now() + period;
        }
    }
}

void
Replicator::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
}

std::int64_t
Replicator::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::int64_t>(queue_.size());
}

/** The one outbound call: false at once after stop(), else sends
 *  @p req under its deadline and, when @p report, feeds the outcome
 *  to the peer table. True = @p resp is a usable answer. */
bool
Replicator::callPeer(std::size_t peer, RpcRequest &req, RpcResponse &resp,
                     long deadline_ms, bool report)
{
    if (stop_)
        return false; // Do not wait out deadlines at shutdown.
    req.deadline_ms = deadline_ms;
    // A digest request answered without a digest is no answer.
    const bool ok = transport_(peer, req, resp, deadline_ms) &&
                    (!req.repl_digest || resp.repl_has_digest);
    if (report && ok)
        peers_->reportSuccess(peer);
    else if (report)
        peers_->reportFailure(peer);
    return ok;
}

void
Replicator::pushRecord(const SolutionCacheRecord &rec)
{
    // Walk the ring from the key's owner until F members hold a live
    // copy — the successor order the ShardRouter fails over along.
    // Quarantined members spool and do not count as live.
    const std::size_t n = fleet_size_;
    const std::size_t want =
        resolveReplicationFactor(options_.replication_factor, n);
    const std::size_t owner = static_cast<std::size_t>(rec.key.hash() % n);
    const std::size_t self =
        static_cast<std::size_t>(options_.fleet_index) % n;
    const auto spool = [&](std::size_t peer) {
        auto &q = spools_[peer];
        if (q.size() >= kMaxSpoolPerPeer) {
            q.pop_front(); // Oldest first.
            counters_.repl_push_failed.fetch_add(
                1, std::memory_order_relaxed);
        }
        q.push_back(rec);
        counters_.repl_spooled.fetch_add(1, std::memory_order_relaxed);
    };
    std::size_t live = 0;
    for (std::size_t off = 0; off < n && live < want; ++off) {
        const std::size_t slot = (owner + off) % n;
        const bool member = off < want; // In the static replica set.
        if (slot == self) {
            ++live; // This node just inserted the record locally.
            continue;
        }
        const std::size_t peer = slotToPeerIndex(slot, self);
        if (!peers_->offerable(peer)) {
            // Quarantined: a member gets the record on its return via
            // the spool; a spillover candidate is simply skipped.
            if (member)
                spool(peer);
            continue;
        }
        if (pushToPeer(peer, rec)) {
            ++live;
            // The push doubled as a half-open probe: a recovered
            // member may have records waiting from its quarantine.
            drainSpool(peer);
        } else if (member) {
            spool(peer);
        }
    }
}

bool
Replicator::pushToPeer(std::size_t peer, const SolutionCacheRecord &rec)
{
    RpcRequest req = request();
    req.has_record = true;
    req.repl_record = rec;
    for (int attempt = 1; attempt <= kReplPushAttempts; ++attempt) {
        RpcResponse resp;
        if (callPeer(peer, req, resp, kReplPushDeadlineMs)) {
            counters_.repl_pushed.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        if (stop_)
            return false; // Shutting down: no backoff, no failure.
        if (peers_->isDown(peer))
            break; // Struck out: quarantine, don't keep hammering.
        if (attempt < kReplPushAttempts) {
            counters_.repl_push_retries.fetch_add(
                1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                backoffDelayMs(kReplPushBackoffMs, attempt, rng_)));
        }
    }
    counters_.repl_push_failed.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
Replicator::drainSpool(std::size_t peer)
{
    auto &spool = spools_[peer];
    while (!spool.empty()) {
        if (!peers_->offerable(peer) || !pushToPeer(peer, spool.front()))
            return; // Failed again; keep the rest for the next drain.
        spool.pop_front();
    }
}

void
Replicator::probeDownPeers()
{
    for (std::size_t i = 0; i < peers_->size(); ++i) {
        const PeerInfo info = peers_->info(i);
        if (info.state != PeerState::Down || info.retry_in_ms > 0)
            continue; // Up/Suspect heal via pushes; quarantine holds.
        counters_.repl_probes.fetch_add(1, std::memory_order_relaxed);
        RpcRequest ping;
        ping.op = RpcOp::Ping;
        RpcResponse resp;
        // Failure re-arms the quarantine inside callPeer.
        if (callPeer(i, ping, resp, kReplPingDeadlineMs))
            drainSpool(i);
    }
}

void
Replicator::antiEntropy()
{
    if (!cache_)
        return;
    for (std::size_t i = 0; i < peers_->size(); ++i) {
        if (peers_->isDown(i))
            continue; // Down peers heal via probes first.
        RpcRequest req = request();
        req.repl_digest = true;
        req.repl_for = options_.fleet_index;
        RpcResponse resp;
        if (!callPeer(i, req, resp, kReplPullDeadlineMs))
            continue;
        AeState &ae = ae_[i];
        const bool changed = resp.repl_digest_fp != ae.last_fp ||
                             resp.repl_digest_count != ae.last_count;
        if (changed) {
            ae.last_fp = resp.repl_digest_fp;
            ae.last_count = resp.repl_digest_count;
            ae.full_done = false;
        }
        // Our own answer to the same request: the same slot subset.
        const RpcResponse mine = answer(req);
        if (resp.repl_digest_count == mine.repl_digest_count &&
            resp.repl_digest_fp == mine.repl_digest_fp)
            continue; // Converged with this peer.
        // Delta pull first. When the same mismatched digest survives a
        // delta round, the gap predates our cursor (a pre-sequence
        // record, a dropped spool): one full slot pull per digest.
        const bool full = !changed && !ae.full_done;
        const std::int64_t applied =
            pullFrom(i, full ? -1 : cache_->journalSeq(), true);
        if (full)
            ae.full_done = true;
        counters_.repl_ae_applied.fetch_add(applied,
                                            std::memory_order_relaxed);
    }
}

/** Pull records (seq > since when since > 0; this node's ring slot
 *  only when @p for_slot) and apply the missing ones. Unreported: a
 *  failed pull must not take a peer out of the anti-entropy rounds. */
std::int64_t
Replicator::pullFrom(std::size_t peer, std::int64_t since, bool for_slot)
{
    RpcRequest req = request();
    req.repl_pull = true;
    if (since > 0)
        req.repl_since = since;
    if (for_slot)
        req.repl_for = options_.fleet_index;
    RpcResponse resp;
    if (!callPeer(peer, req, resp, kReplPullDeadlineMs, /*report=*/false))
        return 0;
    std::int64_t applied = 0;
    for (const SolutionCacheRecord &r : resp.repl_records)
        if (ours(r.key)) // Foreign identity never enters the cache.
            applied += absorb(r);
    return applied;
}

/** Insert @p rec (identity already checked) when it is new. */
bool
Replicator::absorb(const SolutionCacheRecord &rec)
{
    if (!cache_ || cache_->contains(rec.key))
        return false;
    // applyReplica absorbs the origin's sequence into our journal
    // high-water mark, so fleet sequences stay loosely comparable and
    // a later delta pull starts past this record.
    cache_->applyReplica(rec.key, rec.sol, rec.seq);
    return true;
}

std::vector<SolutionCacheRecord>
Replicator::slotRecords(std::int64_t slot, std::int64_t since) const
{
    if (!cache_)
        return {};
    std::vector<SolutionCacheRecord> recs = cache_->exportEntries(since);
    if (slot >= 0) {
        const std::size_t n = fleet_size_;
        const std::size_t s = static_cast<std::size_t>(slot) % n;
        std::erase_if(recs, [&](const SolutionCacheRecord &r) {
            return !slotHoldsKey(r.key.hash(), n,
                                 options_.replication_factor, s);
        });
    }
    return recs;
}

RpcRequest
Replicator::request() const
{
    RpcRequest req;
    req.op = RpcOp::Replicate;
    req.machine_fp = machine_fp_;
    req.settings_fp = settings_fp_;
    return req;
}

RpcResponse
Replicator::answer(const RpcRequest &req)
{
    RpcResponse resp;
    resp.ok = true;
    resp.op = RpcOp::Replicate;
    if (req.repl_digest) {
        // Anti-entropy digest over the entries the *requester's* ring
        // slot should hold, so both sides compare the same subset even
        // at F < fleet size. No "for" = the whole cache.
        resp.repl_has_digest = true;
        for (const SolutionCacheRecord &r : slotRecords(req.repl_for, -1)) {
            ++resp.repl_digest_count;
            resp.repl_digest_fp ^= mix64(r.key.hash()); // Any order.
        }
        return resp;
    }
    if (req.repl_pull) {
        // Records past the requester's cursor ("since") in its ring
        // slot ("for"); it applies what it is missing.
        resp.repl_is_pull = true;
        resp.repl_records = slotRecords(req.repl_for, req.repl_since);
        return resp;
    }
    // Push: take the record if it is ours and new. The record's own
    // fingerprints are checked (not just the request envelope's): a
    // misconfigured peer must not seed us with foreign plans.
    if (!ours(req.repl_record.key))
        return rpcErrorResponse(
            "replicate: record fingerprint does not match this "
            "server's identity");
    if (absorb(req.repl_record)) {
        resp.repl_applied = 1;
        counters_.repl_applied.fetch_add(1, std::memory_order_relaxed);
    }
    return resp;
}

} // namespace mopt
