/**
 * @file
 * moptd: the long-lived optimizer server. Answers the line-delimited
 * JSON protocol (rpc/protocol.hh) through one shared NetworkOptimizer
 * and one shared, optionally persistent, SolutionCache.
 *
 * Concurrency model (the readiness core): a single epoll(7) event
 * loop — the thread that called serve() — owns every socket. The
 * listener and all client connections are registered non-blocking;
 * the loop does readiness-driven reads into per-connection LineReader
 * buffers (fragmented frames resume across reads for free) and
 * dispatches only *complete* request lines to the worker pool. The
 * workers never touch a socket: they parse, run the solve through the
 * shared SolveScheduler, serialize, and hand the response bytes back
 * to the loop over a completion queue + wakeup pipe; the loop writes
 * them out, falling back to EPOLLOUT-driven flushing when a client's
 * receive window is full. The ownership split is strict — the loop
 * owns fds, the workers own solves — so N workers serve thousands of
 * mostly-idle connections: an idle connection costs one registered fd
 * and a buffer, not a thread.
 *
 * Cache lookups run lock-free across workers (the cache is sharded);
 * cache *misses* — actual optimizeConv solves — go through one shared
 * SolveScheduler (service/solve_scheduler.hh): duplicate concurrent
 * requests coalesce onto a single in-flight solve (workers block on
 * its shared future, not a mutex queue), while distinct shapes solve
 * concurrently up to the --solve-concurrency budget, each on a
 * partition of the thread-pool width. Solves are width-independent
 * (docs/ARCHITECTURE.md), so responses are byte-identical for any
 * budget, and a budget of 1 reproduces the historical serialized
 * behavior.
 *
 * Admission control: new connections are shed when the dispatched-
 * request backlog is saturated (max_pending_conns) or the peer is
 * over its per-client connection cap — both with an explicit
 * "overloaded" refusal (protocol.hh error code) written under a
 * bounded deadline (shed_write_ms), so a well-behaved client backs
 * off and retries another shard instead of timing out blind. A
 * request carrying "deadline_ms" is refused up front when already
 * expired and bounds the worker's solve wait; either way the worker
 * answers "deadline_exceeded" instead of burning time on an answer
 * nobody is waiting for.
 *
 * Warm-entry replication (optional, --replicate) is a Replicator
 * (rpc/replicator.hh): the server runs its loop on one dedicated
 * thread and forwards the "replicate" op to it.
 *
 * Shutdown paths: a "shutdown" RPC, or stop() from another thread.
 * Both retire the listener and read-side half-close every connection:
 * clients see EOF, in-flight solves complete and their responses
 * still flush (bounded by shed_write_ms), new work is refused.
 */

#ifndef MOPT_RPC_SERVER_HH
#define MOPT_RPC_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"
#include "rpc/client.hh"
#include "rpc/protocol.hh"
#include "rpc/replicator.hh"
#include "rpc/tcp.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"
#include "service/solve_scheduler.hh"

namespace mopt {

/** Construction-time options of a Server. */
struct ServerOptions
{
    /** Bind address. Loopback by default: exposing the fleet beyond
     *  the host is a deliberate act. */
    std::string host = "127.0.0.1";

    /** Listen port; 0 = kernel-assigned (read back via port()). */
    int port = 0;

    /** Request-handling worker threads (parse + solve + serialize;
     *  they never touch a socket). */
    int workers = 4;

    /** Requests longer than this (bytes, excluding the newline) are
     *  answered with an error and the connection is dropped. */
    std::size_t max_request_bytes = 1 << 20;

    /** Concurrent cold-miss solves (the SolveScheduler budget). 1 =
     *  the historical one-solve-at-a-time behavior; higher values
     *  split the solver thread-pool width across that many flights.
     *  Plans are byte-identical either way. */
    int solve_concurrency = 1;

    /** Bound on dispatched requests awaiting (or inside) a worker.
     *  Past it, *new connections* are answered "overloaded" (code on
     *  the wire) and closed instead of queueing unboundedly —
     *  shedding early keeps the refusal latency flat while the fleet
     *  retries elsewhere. Idle connections are free and never count
     *  against this. */
    int max_pending_conns = 128;

    /** Concurrent connections served per client address (peer IP);
     *  0 = unlimited. The cap bounds one misbehaving client's share
     *  of the connection table; excess connections are refused with
     *  the same "overloaded" code. */
    int max_per_client = 0;

    /** Budget for flushing a refusal (or, during shutdown, a final
     *  response) to a slow client, in ms. A client too slow to take
     *  even the error line is simply dropped. */
    long shed_write_ms = 1000;

    /** Peer endpoints ("host:port[,host:port...]") for warm-entry
     *  replication; empty = replication off. Fresh cold-solve inserts
     *  are pushed to the key's replica set (see replication_factor),
     *  and start() prefetches what the peers hold past this node's
     *  own journal high-water sequence. */
    std::string replicate;

    /** Replica-set size F: a fresh insert lands on the key's ring
     *  owner (CacheKey::hash() % fleet size) and its F - 1 ring
     *  followers. 0 (or >= the fleet size) = every node — the
     *  historical full-fanout behavior and the default. */
    int replication_factor = 0;

    /** This node's slot on the fleet ring: its position in the
     *  fleet's endpoint order (self + peers must agree fleet-wide).
     *  Shard-aware push and anti-entropy digests key off it. */
    int fleet_index = 0;

    /** Anti-entropy period in ms; <= 0 disables. Each round swaps a
     *  (count, fingerprint) digest with every Up peer and pulls only
     *  the records this node is missing. */
    long anti_entropy_ms = 1000;

    /** Calibration provenance surfaced by the stats op. The server
     *  never rescales the machine itself — the CLI applies
     *  Calibration::applyTo before constructing it — so these only
     *  report what the operator chose to serve with. */
    std::int64_t calib_samples = 0; //!< Samples behind the correction.
    bool calib_active = false;      //!< Non-identity fit applied.
};

/** Monotonic server counters (snapshot-read; updated with relaxed
 *  atomics by the loop and the workers). */
struct ServerCounters
{
    std::atomic<std::int64_t> connections{0};
    std::atomic<std::int64_t> requests{0};
    std::atomic<std::int64_t> errors{0}; //!< Error responses sent.

    // Admission control (each shed also counts toward errors when a
    // refusal was actually written).
    std::atomic<std::int64_t> shed_overload{0}; //!< Pending budget hit.
    std::atomic<std::int64_t> shed_client{0};   //!< Per-client cap hit.
    std::atomic<std::int64_t> shed_deadline{0}; //!< Deadline expired.

    // Warm-entry replication (all 0 unless --replicate).
    std::atomic<std::int64_t> repl_pushed{0};      //!< Records delivered.
    std::atomic<std::int64_t> repl_push_failed{0}; //!< Pushes dropped.
    std::atomic<std::int64_t> repl_applied{0};     //!< Peer pushes taken.
    std::atomic<std::int64_t> repl_prefetched{0};  //!< Pulled at join.

    // Self-healing fabric (all 0 unless --replicate).
    std::atomic<std::int64_t> repl_push_retries{0}; //!< Backoff retries.
    std::atomic<std::int64_t> repl_spooled{0};  //!< Held for a Down peer.
    std::atomic<std::int64_t> repl_probes{0};   //!< Half-open pings sent.
    std::atomic<std::int64_t> repl_ae_applied{0}; //!< Anti-entropy pulls.
    /** Gauge, not a counter: the "since" cursor the join-time prefetch
     *  sent (0 = fresh journal, full pull). */
    std::atomic<std::int64_t> repl_prefetch_since{0};
};

/**
 * The moptd server. Construct, start() (binds, prefetches from
 * replication peers, spawns workers), then serve() from the thread
 * that should run the event loop. Thread-safe: stop() may be called
 * from anywhere, including a request handler (the shutdown op does
 * exactly that).
 */
class Server
{
  public:
    /**
     * @param machine  machine description every solve targets
     * @param opts     search settings applied to every solve
     * @param cache    shared solution cache (not owned; may be null)
     * @param options  socket and worker configuration
     */
    Server(const MachineSpec &machine, const OptimizerOptions &opts,
           SolutionCache *cache, ServerOptions options = {});

    /** Joins workers; equivalent to stop() + serve() returning. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, prefetch from replication peers, and spawn the
     *  worker pool. False + @p err when the address cannot be bound
     *  (a dead replication peer is *not* an error — the fleet heals
     *  through pushes later). */
    bool start(std::string *err = nullptr);

    /** The bound port (valid after start()), or -1. */
    int port() const { return listener_.port(); }

    /**
     * Run the event loop on the calling thread until stop() or a
     * shutdown RPC, then drain in-flight work and join the workers.
     * Returns the number of connections accepted.
     */
    std::int64_t serve();

    /** Request shutdown: wake the loop, which retires the listener
     *  and drains every connection. */
    void stop();

    /** True once stop() (or a shutdown RPC) has been requested. */
    bool stopping() const
    {
        return stopping_.load(std::memory_order_acquire);
    }

    const ServerCounters &counters() const { return counters_; }

    /** The single-flight scheduler's counters (also on the stats RPC). */
    SolveSchedulerStats schedulerStats() const
    {
        return scheduler_.stats();
    }

    /** Handle one already-parsed request (exposed for unit tests;
     *  the wire path goes through exactly this). */
    RpcResponse handle(const RpcRequest &req);

  private:
    /** Per-connection state owned exclusively by the event loop
     *  (defined in server.cc). */
    struct Conn;

    /** One complete request line dispatched to a worker. */
    struct Job
    {
        std::uint64_t conn_id = 0;
        std::string line;
    };

    /** A worker's finished response heading back to the loop. */
    struct Completion
    {
        std::uint64_t conn_id = 0;
        std::string bytes;     //!< Serialized response + '\n'.
        bool shutdown = false; //!< Successful shutdown op: stop after.
    };

    void workerLoop();
    void joinWorkers(); //!< Close the queue, join, drop every conn.

    /** Poke the event loop's wakeup pipe (worker completion or
     *  stop()). Safe from any thread while the loop may run. */
    void wakeLoop();

    // Event-loop internals (serve() thread only).
    void acceptReady(std::int64_t *served);
    void admitConn(TcpSocket sock);
    Conn *addConn(TcpSocket sock, std::uint32_t events); //!< Or null.
    void shedNewConn(TcpSocket sock, const std::string &msg);
    bool connReadable(Conn &c);  //!< false = conn destroyed.
    bool flushConn(Conn &c);     //!< false = conn destroyed.
    bool extractLines(Conn &c);  //!< false = conn destroyed.
    bool pumpConn(Conn &c);      //!< Dispatch pending work.
    /** Queue @p bytes on @p c's output buffer and flush what the
     *  socket will take now. false = conn destroyed. */
    bool appendOutput(Conn &c, const std::string &bytes);
    bool maybeCloseConn(Conn &c);//!< false = conn destroyed.
    void updateEvents(Conn &c);
    void destroyConn(std::uint64_t id);
    void processCompletions();
    void beginDrain();
    int loopTimeoutMs() const;
    void expireWriteDeadlines();

    RpcResponse handleSolve(const RpcRequest &req, const Deadline &dl);
    RpcResponse handleSolveNetwork(const RpcRequest &req,
                                   const Deadline &dl);
    RpcResponse handleStats();

    /** Fingerprint guard: nonzero client fingerprints must match the
     *  server's identity. Returns false and fills @p resp on reject. */
    bool checkIdentity(const RpcRequest &req, RpcResponse &resp) const;

    MachineSpec machine_;
    OptimizerOptions opts_;
    SolutionCache *cache_;
    ServerOptions options_;
    std::uint64_t machine_fp_;
    std::uint64_t settings_fp_;

    ServerCounters counters_;

    // Declared before scheduler_ on purpose: on_insert may fire while
    // the scheduler is being destroyed, so the replicator it targets
    // must outlive it (members are destroyed in reverse order).
    Replicator replicator_;
    std::thread repl_thread_; //!< Runs replicator_.run().

    /** Single-flight, bounded-concurrency solve admission for every
     *  miss (both solve and solve_network go through it, so their
     *  duplicate shapes coalesce against one table). */
    SolveScheduler scheduler_;
    NetworkOptimizer optimizer_;

    TcpListener listener_;
    std::vector<std::thread> workers_;
    std::atomic<bool> stopping_{false};

    // Dispatch queue: complete request lines, loop -> workers.
    std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    std::deque<Job> queue_;
    bool queue_closed_ = false;

    // Completion queue: response bytes, workers -> loop.
    std::mutex done_mu_;
    std::deque<Completion> done_;

    int epfd_ = -1;    //!< epoll instance (created by start()).
    int wake_rd_ = -1; //!< Wakeup pipe, read end (registered in epoll).
    int wake_wr_ = -1; //!< Wakeup pipe, write end (workers / stop()).

    // Loop-owned state: only the serve() thread touches these, so no
    // locks (stop() communicates through stopping_ + the wake pipe).
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    std::unordered_map<std::string, int> client_conns_;
    std::uint64_t next_conn_id_ = 2; //!< 0 = listener, 1 = wake pipe.
    int inflight_jobs_ = 0; //!< Dispatched, completion not yet applied.
    bool drain_begun_ = false;
};

} // namespace mopt

#endif // MOPT_RPC_SERVER_HH
