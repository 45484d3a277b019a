/**
 * @file
 * Faultline: an in-process TCP proxy that injects faults between an
 * RPC client and a moptd server, on a deterministic schedule — the
 * test harness for the serving stack's failure model.
 *
 * Point a client at proxy.port() instead of the server; each accepted
 * connection is assigned a FaultKind from the schedule by its accept
 * index (connection k gets schedule[k % schedule.size()]), so a test
 * decides *exactly* which connection hits which failure and a seed
 * makes the garbage bytes reproducible. Tests assert behavior under
 * fault ("no call outlives its deadline", "plans byte-identical to a
 * fault-free run"), not fault-free luck.
 *
 * Faults:
 *  - None: transparent bidirectional pipe.
 *  - Delay: every forwarded chunk is held delay_ms first (a slow
 *    link; exercises deadlines and hedging).
 *  - Drop: the connection is cut the moment the server's response
 *    arrives — the request was fully delivered and *processed*, the
 *    answer lost (the nastiest retry case: retries must be safe,
 *    which byte-identical deterministic plans make true).
 *  - PartialWrite: only the first partial_bytes of the response are
 *    delivered, then the connection is cut (a torn frame; exercises
 *    the reader's incomplete-line handling).
 *  - Garbage: the response is replaced by seeded random bytes ending
 *    in a newline (a corrupted frame; exercises parse-failure
 *    handling — the client must drop the stream, not trust it).
 *  - Blackhole: the connection accepts and swallows bytes forever,
 *    never contacting the server (a dead peer with a live TCP
 *    window; *only* a deadline gets a client out of this).
 *  - Flapping: the peer cycles up flap_up_ms / down flap_down_ms on
 *    a proxy-global clock. During an up window the connection pipes
 *    transparently; a down window cuts it immediately — including
 *    mid-pump (a crash-looping or link-flapping peer; exercises the
 *    membership state machine's Suspect/Down/half-open transitions).
 *
 * Test infrastructure: it lives in the tests' support library, which
 * only the suites that drive it link.
 */

#ifndef MOPT_TESTS_SUPPORT_FAULTLINE_HH
#define MOPT_TESTS_SUPPORT_FAULTLINE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "rpc/tcp.hh"

namespace mopt {

/** What a faultline connection does to its traffic. */
enum class FaultKind {
    None,
    Delay,
    Drop,
    PartialWrite,
    Garbage,
    Blackhole,
    Flapping,
};

/** Printable fault name (for logs and test diagnostics). */
std::string faultKindName(FaultKind kind);

/** Construction-time options of a FaultlineProxy. */
struct FaultlineOptions
{
    /** The real server to proxy to. */
    std::string upstream_host = "127.0.0.1";
    int upstream_port = 0;

    /** Per-connection fault assignment: accepted connection k gets
     *  schedule[k % schedule.size()]. Empty = every connection None. */
    std::vector<FaultKind> schedule;

    /** Delay per forwarded chunk (ms) for Delay connections. */
    long delay_ms = 200;

    /** Response bytes delivered before the cut, for PartialWrite. */
    std::size_t partial_bytes = 5;

    /** Flapping duty cycle (ms up, then ms down, repeating on a
     *  proxy-global clock from start()). */
    long flap_up_ms = 200;
    long flap_down_ms = 200;

    /** Garbage-byte generator seed (deterministic). */
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/** Monotonic proxy counters (snapshot via stats()). */
struct FaultlineStats
{
    std::int64_t connections = 0; //!< Accepted connections.
    std::int64_t faults = 0;      //!< Connections given a non-None kind.
    std::int64_t delays = 0;
    std::int64_t drops = 0;
    std::int64_t partial_writes = 0;
    std::int64_t garbage = 0;
    std::int64_t blackholes = 0;
    std::int64_t flapping = 0;
};

/**
 * The proxy. start() binds an ephemeral port and spawns the accept
 * loop; every accepted connection gets its own pump thread. stop()
 * (or destruction) joins everything and closes the listener —
 * in-flight connections are cut, which is fine: this is a fault
 * injector.
 */
class FaultlineProxy
{
  public:
    explicit FaultlineProxy(FaultlineOptions options);

    /** stop()s. */
    ~FaultlineProxy();

    FaultlineProxy(const FaultlineProxy &) = delete;
    FaultlineProxy &operator=(const FaultlineProxy &) = delete;

    /** Bind (loopback, ephemeral) and start accepting. False + @p err
     *  when the listener cannot bind. */
    bool start(std::string *err = nullptr);

    /** The port clients should connect to (valid after start()). */
    int port() const { return listener_.port(); }

    /** Join the accept loop and all pump threads, then close the
     *  listener. Idempotent. */
    void stop();

    FaultlineStats stats() const;

  private:
    void acceptLoop();
    void runConnection(TcpSocket client, FaultKind kind, Rng rng);

    /** True when the proxy-global flapping clock is in a down window
     *  (always false with a non-positive duty cycle). */
    bool flapDown() const;

    /** Pipe client<->server applying @p kind to the response path.
     *  Returns when either side closes, a fault cuts the stream, or
     *  stop() is requested. @p rng feeds the Garbage bytes. */
    void pump(TcpSocket &client, TcpSocket &server, FaultKind kind,
              Rng &rng);

    FaultlineOptions options_;
    TcpListener listener_;
    /** Flapping phase reference, set by start(). */
    std::chrono::steady_clock::time_point flap_epoch_;
    std::thread accept_thread_;
    std::vector<std::thread> pumps_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> started_{false};

    mutable std::mutex mu_; //!< Guards pumps_ and stats_.
    FaultlineStats stats_;
};

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_FAULTLINE_HH
