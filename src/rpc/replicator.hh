/**
 * @file
 * Warm-entry replication (optional, --replicate): when a cold solve
 * inserts a fresh entry, the scheduler's on_insert hook enqueues the
 * journal record and the replication thread pushes it to the key's
 * replica set — the ring owner (hash % fleet size) and its
 * replication_factor - 1 followers — via the protocol's "replicate"
 * op, asynchronously with bounded-backoff retries. Peer liveness
 * lives in a fleet/peer_table.hh PeerTable: every call feeds it, a
 * Down peer stops receiving pushes (its records spool and ride the
 * drain when a half-open probe succeeds) and the walk spills over to
 * the next live ring slot so the fleet still holds F live copies. At
 * start, the node *pulls* from its peers — entries newer than its own
 * journal high-water sequence (the "since" cursor), so a rejoining
 * node converges via delta, not a full transfer. A periodic
 * low-priority anti-entropy round exchanges (count, fingerprint)
 * digests with every peer that is not Down and pulls only what this
 * node is missing, so even a blackholed push is eventually repaired.
 *
 * Every outbound call (push, ping, digest, pull) goes through one
 * Transport function, so tests drive a fleet with no sockets. The
 * Server runs run() on its replication thread and forwards the
 * "replicate" op to answer().
 */

#ifndef MOPT_RPC_REPLICATOR_HH
#define MOPT_RPC_REPLICATOR_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hh"
#include "fleet/peer_table.hh"
#include "rpc/client.hh"
#include "rpc/protocol.hh"
#include "service/solution_cache.hh"

namespace mopt {

struct ServerOptions;
struct ServerCounters;

/** One node's replication engine. enqueue(), answer(), stop() and
 *  queueDepth() are thread-safe; the rest runs on one thread. */
class Replicator
{
  public:
    /** Send @p req to peer @p peer (ring order, this node skipped)
     *  within @p deadline_ms; true when it answered ok into @p resp. */
    using Transport =
        std::function<bool(std::size_t peer, const RpcRequest &req,
                           RpcResponse &resp, long deadline_ms)>;

    /** A Transport over one Client per endpoint; a failed call drops
     *  its connection so the next one reconnects. */
    static Transport clientTransport(const std::vector<RpcEndpoint> &peers);

    /** Reads @p options' ring settings and writes @p counters' repl_*
     *  members; none of the pointees is owned (@p cache may be null). */
    Replicator(SolutionCache *cache, std::uint64_t machine_fp,
               std::uint64_t settings_fp, const ServerOptions &options,
               ServerCounters &counters);

    /** Join a fleet of @p peers other nodes reached via @p transport,
     *  pulling from each what came after this node's journal. */
    void join(std::size_t peers, Transport transport);

    /** Scheduler on_insert target: queue a fresh record for push. */
    void enqueue(SolutionCacheRecord rec);

    /** Push queued records; when idle, probe Down peers and run the
     *  anti-entropy schedule. Returns after stop(). */
    void run();

    /** End run(); from now on enqueue() drops and every step below
     *  returns without a call. */
    void stop();

    /** Answer a "replicate" request (identity already checked): a
     *  digest, a pull, or a push to apply. */
    RpcResponse answer(const RpcRequest &req);

    std::int64_t queueDepth() const; //!< Records awaiting push.

    // run()'s steps, public so tests can drive them one at a time.

    /** Push to the record's replica set (see the file comment). */
    void pushRecord(const SolutionCacheRecord &rec);

    /** Ping each Down peer whose quarantine expired; drain on success. */
    void probeDownPeers();

    /** Swap digests with every peer that is not Down and pull what
     *  is missing. */
    void antiEntropy();

  private:
    /** Per-peer anti-entropy state: escalate from delta to full pull
     *  only when the same mismatched digest survives a delta round. */
    struct AeState
    {
        std::uint64_t last_fp = 0;    //!< Peer digest, last round.
        std::int64_t last_count = -1; //!< -1 = no round yet.
        bool full_done = false; //!< Full pull tried for this digest.
    };

    bool callPeer(std::size_t peer, RpcRequest &req, RpcResponse &resp,
                  long deadline_ms, bool report = true);
    bool pushToPeer(std::size_t peer, const SolutionCacheRecord &rec);
    void drainSpool(std::size_t peer);
    std::int64_t pullFrom(std::size_t peer, std::int64_t since,
                          bool for_slot);
    bool absorb(const SolutionCacheRecord &rec);

    /** Cached records with seq > @p since that ring slot @p slot
     *  holds; slot < 0 = every slot. The one ring-slot filter. */
    std::vector<SolutionCacheRecord> slotRecords(std::int64_t slot,
                                                 std::int64_t since) const;

    RpcRequest request() const; //!< Replicate op, this identity.
    bool ours(const CacheKey &k) const //!< Carries this identity.
    { return k.machine_fp == machine_fp_ && k.settings_fp == settings_fp_; }

    SolutionCache *cache_;
    std::uint64_t machine_fp_;
    std::uint64_t settings_fp_;
    const ServerOptions &options_;
    ServerCounters &counters_;

    std::size_t fleet_size_ = 1; //!< Peers + this node.
    Transport transport_;
    std::unique_ptr<PeerTable> peers_; //!< Sized by join().
    std::vector<std::deque<SolutionCacheRecord>> spools_;
    std::vector<AeState> ae_;
    Rng rng_{0x5265706c696361ull}; //!< Push backoff jitter.

    mutable std::mutex mu_; //!< Guards queue_; stop_ is set under it.
    std::condition_variable cv_;
    std::deque<SolutionCacheRecord> queue_;
    std::atomic<bool> stop_{false};
};

} // namespace mopt

#endif // MOPT_RPC_REPLICATOR_HH
