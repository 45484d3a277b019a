/**
 * @file
 * PeerTable — per-peer liveness shared by everything that talks to
 * the fleet. One table instance sits behind the ShardRouter's
 * mark-down decisions and another behind the Replicator's calls, but
 * both run the same state machine, so "down" means the same thing on
 * both paths:
 *
 *     reportSuccess                    reportFailure
 *   ┌──────────────┐              (consecutive >= down_after)
 *   ▼              │                           │
 *  Up ──failure──> Suspect ──failure…──> Down ─┘
 *   ▲                                     │ half-open: offerable()
 *   └────────── reportSuccess ────────────┘ after a backoff window
 *
 * A Down peer is quarantined: offerable() is false until its
 * next-probe deadline, after which exactly the half-open pattern
 * applies — the peer is offered again, one success resets it to Up,
 * one more failure re-arms a doubled (capped, optionally jittered)
 * quarantine. Callers never sleep on the table; they read a peer's
 * info().retry_in_ms and fold it into their own waits.
 *
 * The table is deliberately signal-agnostic: a "failure" may be a
 * refused connect, a push timeout, or a failed ping probe. Whoever
 * observes the evidence reports it; the table only decides standing.
 */

#ifndef MOPT_FLEET_PEER_TABLE_HH
#define MOPT_FLEET_PEER_TABLE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.hh"

namespace mopt {

enum class PeerState { Up, Suspect, Down };

struct PeerTableOptions {
    /** Consecutive failures before a peer goes Down. 1 means the
     *  first failure quarantines (the router's historical mark-down);
     *  higher values pass through Suspect first. */
    int down_after = 3;

    /** Base and cap of the half-open probe backoff. Equal base and
     *  cap with jitter off gives a fixed quarantine window — exactly
     *  the router's markdown_ms behavior. */
    long probe_backoff_ms = 100;
    long probe_backoff_cap_ms = 2000;
    bool jitter = true;

    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/** Snapshot of one peer for status reporting. */
struct PeerInfo {
    PeerState state = PeerState::Up;
    int failures = 0;     ///< consecutive failures so far
    long retry_in_ms = 0; ///< Down only: ms until the half-open probe
};

class PeerTable {
  public:
    explicit PeerTable(std::size_t n, PeerTableOptions options = {});

    std::size_t size() const { return n_; }

    bool isDown(std::size_t i) const;

    /** True when the peer should be offered traffic: Up, Suspect, or
     *  Down with its half-open window open. */
    bool offerable(std::size_t i) const;

    /** A request to the peer succeeded: reset to Up. */
    void reportSuccess(std::size_t i);

    /** A request to the peer failed: bump the consecutive-failure
     *  count; at down_after the peer goes Down and its next half-open
     *  probe is scheduled with doubling backoff. */
    void reportFailure(std::size_t i);

    PeerInfo info(std::size_t i) const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Peer {
        PeerState state = PeerState::Up;
        int failures = 0;       // consecutive
        int down_rounds = 0;    // backoff exponent while Down
        Clock::time_point next_probe{};
    };

    PeerTableOptions options_;
    std::size_t n_;
    mutable std::mutex mu_;
    std::vector<Peer> peers_;
    Rng rng_;
};

} // namespace mopt

#endif // MOPT_FLEET_PEER_TABLE_HH
