/**
 * @file
 * The fleet's single backoff policy: doubling, capped, jittered
 * retry delays, shared by every path that re-attempts a peer — the
 * client's retry loop (rpc/client.cc), the Replicator's push
 * retries, and the PeerTable's half-open probe schedule. One policy
 * means one tuning knob and one set of tested edge cases (base <= 0,
 * attempt overflow against the cap) instead of three divergent ones.
 */

#ifndef MOPT_FLEET_BACKOFF_HH
#define MOPT_FLEET_BACKOFF_HH

#include <algorithm>

#include "common/rng.hh"

namespace mopt {

/** Backoff cap: retries are for transient blips; anything that needs
 *  longer than this is the mark-down path's problem. */
constexpr long kMaxBackoffMs = 2000;

/**
 * Delay in ms before retry @p attempt (1-based): @p base_ms doubled
 * per attempt, capped at @p cap_ms, plus up to +50% deterministic
 * jitter from @p rng so a thundering herd of retriers doesn't
 * re-arrive in lockstep. @p jitter false gives the bare capped
 * doubling (the router's fixed-quarantine mark-down uses that with
 * base == cap).
 */
inline long
backoffDelayMs(long base_ms, int attempt, Rng &rng,
               long cap_ms = kMaxBackoffMs, bool jitter = true)
{
    long base = base_ms > 0 ? base_ms : 1;
    const long cap = cap_ms > 0 ? cap_ms : 1;
    for (int i = 1; i < attempt && base < cap; ++i)
        base *= 2;
    base = std::min(base, cap);
    return base + (jitter ? rng.uniformInt(0, base / 2) : 0);
}

} // namespace mopt

#endif // MOPT_FLEET_BACKOFF_HH
