/**
 * @file
 * Unit tests of the fleet-membership layer (src/fleet/): the ring
 * placement math replica sets and digests key off, the shared backoff
 * policy, and the PeerTable state machine (Up -> Suspect -> Down ->
 * half-open probe) that both the ShardRouter's mark-down path and the
 * Replicator consult; and the Replicator (src/rpc/replicator.hh)
 * itself, driven through a fake transport with no sockets.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <vector>
#include <thread>

#include "common/rng.hh"
#include "fleet/backoff.hh"
#include "fleet/peer_table.hh"
#include "fleet/ring.hh"
#include "rpc/replicator.hh"
#include "rpc/server.hh"

namespace mopt {
namespace {

TEST(Ring, ResolveReplicationFactor)
{
    // 0 and out-of-range mean "every node" — the historical fanout.
    EXPECT_EQ(resolveReplicationFactor(0, 3), 3u);
    EXPECT_EQ(resolveReplicationFactor(-1, 3), 3u);
    EXPECT_EQ(resolveReplicationFactor(3, 3), 3u);
    EXPECT_EQ(resolveReplicationFactor(7, 3), 3u);
    EXPECT_EQ(resolveReplicationFactor(1, 3), 1u);
    EXPECT_EQ(resolveReplicationFactor(2, 3), 2u);
    EXPECT_EQ(resolveReplicationFactor(1, 1), 1u);
}

TEST(Ring, ReplicaSlotsOwnerFirstRingOrder)
{
    // owner = hash % n, followers are the ring successors, wrapping.
    const auto slots = replicaSlots(/*key_hash=*/7, /*n=*/3,
                                    /*factor=*/2);
    ASSERT_EQ(slots.size(), 2u);
    EXPECT_EQ(slots[0], 1u); // 7 % 3
    EXPECT_EQ(slots[1], 2u);

    const auto wrap = replicaSlots(/*key_hash=*/2, /*n=*/3,
                                   /*factor=*/2);
    ASSERT_EQ(wrap.size(), 2u);
    EXPECT_EQ(wrap[0], 2u);
    EXPECT_EQ(wrap[1], 0u); // Wraps past the end of the ring.

    EXPECT_TRUE(replicaSlots(1, 0, 2).empty());
    EXPECT_EQ(replicaSlots(5, 4, 0).size(), 4u); // factor 0 = all.
}

TEST(Ring, SlotHoldsKeyAgreesWithReplicaSlots)
{
    // Membership test and enumeration must be the same set, for every
    // (hash, factor) over a small fleet.
    const std::size_t n = 5;
    for (std::uint64_t hash = 0; hash < 11; ++hash) {
        for (int factor = 0; factor <= 5; ++factor) {
            const auto slots = replicaSlots(hash, n, factor);
            const std::set<std::size_t> set(slots.begin(), slots.end());
            for (std::size_t slot = 0; slot < n; ++slot)
                EXPECT_EQ(slotHoldsKey(hash, n, factor, slot),
                          set.count(slot) == 1)
                    << "hash=" << hash << " factor=" << factor
                    << " slot=" << slot;
        }
    }
    // Out-of-range slot is never a holder.
    EXPECT_FALSE(slotHoldsKey(0, n, 0, n));
    EXPECT_FALSE(slotHoldsKey(0, 0, 0, 0));
}

TEST(Ring, SlotToPeerIndexSkipsSelf)
{
    // A peers list is the ring with self removed; slots after self
    // shift down by one.
    EXPECT_EQ(slotToPeerIndex(0, /*self=*/2), 0u);
    EXPECT_EQ(slotToPeerIndex(1, /*self=*/2), 1u);
    EXPECT_EQ(slotToPeerIndex(3, /*self=*/2), 2u);
    EXPECT_EQ(slotToPeerIndex(1, /*self=*/0), 0u);
}

TEST(Ring, Mix64DecorrelatesAndIsStable)
{
    // Deterministic, nonzero on small inputs, and distinct across
    // adjacent values (the property the XOR digest fold relies on).
    EXPECT_EQ(mix64(1), mix64(1));
    std::set<std::uint64_t> seen;
    for (std::uint64_t x = 0; x < 100; ++x)
        seen.insert(mix64(x));
    EXPECT_EQ(seen.size(), 100u);
}

TEST(Backoff, DoublesToCapWithoutJitter)
{
    Rng rng(1);
    EXPECT_EQ(backoffDelayMs(100, 1, rng, 2000, false), 100);
    EXPECT_EQ(backoffDelayMs(100, 2, rng, 2000, false), 200);
    EXPECT_EQ(backoffDelayMs(100, 3, rng, 2000, false), 400);
    EXPECT_EQ(backoffDelayMs(100, 8, rng, 2000, false), 2000); // Capped.
    EXPECT_EQ(backoffDelayMs(100, 100, rng, 2000, false), 2000);
    // Equal base and cap: a fixed window at every attempt (the
    // router's markdown_ms configuration).
    EXPECT_EQ(backoffDelayMs(500, 1, rng, 500, false), 500);
    EXPECT_EQ(backoffDelayMs(500, 9, rng, 500, false), 500);
    // Degenerate inputs clamp instead of looping or returning 0.
    EXPECT_GE(backoffDelayMs(0, 1, rng, 0, false), 1);
}

TEST(Backoff, JitterIsBoundedAndDeterministic)
{
    Rng a(42), b(42);
    for (int attempt = 1; attempt <= 6; ++attempt) {
        const long da = backoffDelayMs(100, attempt, a, 2000, true);
        const long db = backoffDelayMs(100, attempt, b, 2000, true);
        EXPECT_EQ(da, db); // Same seed, same schedule.
        long base = 100;
        for (int i = 1; i < attempt && base < 2000; ++i)
            base *= 2;
        base = std::min(base, 2000l);
        EXPECT_GE(da, base);
        EXPECT_LE(da, base + base / 2);
    }
}

TEST(PeerTable, SuspectThenDownThenHalfOpenProbe)
{
    PeerTableOptions po;
    po.down_after = 3;
    po.probe_backoff_ms = 40;
    po.probe_backoff_cap_ms = 40; // Fixed window: test-friendly.
    po.jitter = false;
    PeerTable table(2, po);
    ASSERT_EQ(table.size(), 2u);

    // Fresh peers are Up and offerable; no probe is scheduled.
    EXPECT_EQ(table.info(0).state, PeerState::Up);
    EXPECT_TRUE(table.offerable(0));
    EXPECT_EQ(table.info(0).retry_in_ms, 0);

    // Strikes one and two: Suspect, still offered (pushes keep
    // probing it for free).
    table.reportFailure(0);
    EXPECT_EQ(table.info(0).state, PeerState::Suspect);
    EXPECT_TRUE(table.offerable(0));
    table.reportFailure(0);
    EXPECT_EQ(table.info(0).state, PeerState::Suspect);
    EXPECT_EQ(table.info(0).failures, 2);

    // Strike three: Down and quarantined.
    table.reportFailure(0);
    EXPECT_TRUE(table.isDown(0));
    EXPECT_FALSE(table.offerable(0));
    EXPECT_GT(table.info(0).retry_in_ms, 0);
    // The other peer is untouched.
    EXPECT_EQ(table.info(1).state, PeerState::Up);

    // After the window the peer re-opens half-way: offerable while
    // still Down, so exactly one caller probes it.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_TRUE(table.isDown(0));
    EXPECT_TRUE(table.offerable(0));
    EXPECT_EQ(table.info(0).retry_in_ms, 0);

    // A success during half-open resets everything.
    table.reportSuccess(0);
    EXPECT_EQ(table.info(0).state, PeerState::Up);
    EXPECT_EQ(table.info(0).failures, 0);
    EXPECT_EQ(table.info(0).retry_in_ms, 0);
}

TEST(PeerTable, FailedProbeReArmsDoubledQuarantine)
{
    PeerTableOptions po;
    po.down_after = 1; // First failure quarantines.
    po.probe_backoff_ms = 50;
    po.probe_backoff_cap_ms = 400;
    po.jitter = false;
    PeerTable table(1, po);

    table.reportFailure(0);
    EXPECT_TRUE(table.isDown(0));
    const long first = table.info(0).retry_in_ms;
    EXPECT_GT(first, 0);
    EXPECT_LE(first, 50);

    // A failure while Down doubles the next window (capped).
    table.reportFailure(0);
    const long second = table.info(0).retry_in_ms;
    EXPECT_GT(second, first);
    EXPECT_LE(second, 100);
    for (int i = 0; i < 10; ++i)
        table.reportFailure(0);
    EXPECT_LE(table.info(0).retry_in_ms, 400); // Capped, jitter off.
}

TEST(PeerTable, RouterConfigHoldsExactlyMarkdownWindow)
{
    // down_after = 1 with base == cap and no jitter reproduces the
    // router's historical markdown_ms semantics: every failure holds
    // the node for the same fixed window.
    PeerTableOptions po;
    po.down_after = 1;
    po.probe_backoff_ms = 80;
    po.probe_backoff_cap_ms = 80;
    po.jitter = false;
    PeerTable table(3, po);

    table.reportFailure(2);
    EXPECT_TRUE(table.isDown(2));
    EXPECT_FALSE(table.offerable(2));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(table.offerable(2));
    // Another failure after the window: the same 80 ms hold again
    // (base == cap defeats the doubling).
    table.reportFailure(2);
    EXPECT_FALSE(table.offerable(2));
    EXPECT_LE(table.info(2).retry_in_ms, 80);
}

/** A cache key of a fixed identity whose ring owner in a fleet of
 *  @p n is @p owner (the k extent is searched until it lands there). */
CacheKey
keyOwnedBy(std::size_t owner, std::size_t n, std::int64_t skip = 0)
{
    CacheKey key;
    key.problem.k = 1;
    key.machine_fp = 0x11;
    key.settings_fp = 0x22;
    for (std::int64_t found = -1; found < skip; ++key.problem.k)
        if (key.hash() % n == owner && ++found == skip)
            break;
    return key;
}

/** A fleet of peers behind a Replicator::Transport: each peer answers
 *  ok while up, logs every call, and remembers the sequence of each
 *  record pushed to it. */
struct FakeFleet
{
    std::vector<bool> up;
    std::vector<int> calls;
    std::vector<std::vector<std::int64_t>> pushed;
    std::vector<RpcRequest> log;
    RpcResponse digest;      //!< Answer to digest requests.
    bool pulls_fail = false; //!< Up peers still fail pull requests.

    explicit FakeFleet(std::size_t peers)
        : up(peers, true), calls(peers, 0), pushed(peers)
    {}

    Replicator::Transport transport()
    {
        return [this](std::size_t peer, const RpcRequest &req,
                      RpcResponse &resp, long) {
            ++calls[peer];
            log.push_back(req);
            if (!up[peer] || (req.repl_pull && pulls_fail))
                return false;
            resp = req.repl_digest ? digest : RpcResponse{};
            resp.ok = true;
            resp.op = req.op;
            resp.repl_is_pull = req.repl_pull;
            if (req.has_record)
                pushed[peer].push_back(req.repl_record.seq);
            return true;
        };
    }
};

TEST(Replicator, QuarantinedMemberSpoolsSpilloverSkipsAndSpoolDrains)
{
    // Fleet of 4, this node at slot 0, F = 2: a key owned by slot 1
    // lives on slots {1, 2}; slot 3 is the first spill-over candidate.
    // Peer index = slot - 1.
    ServerOptions so;
    so.replication_factor = 2;
    ServerCounters counters;
    Replicator repl(nullptr, 0x11, 0x22, so, counters);
    FakeFleet fleet(3);
    repl.join(3, fleet.transport());
    const auto rec = [](std::int64_t seq) {
        return SolutionCacheRecord{keyOwnedBy(1, 4, seq), {}, seq};
    };

    // Member slot 1 and spill-over slot 3 strike out (three attempts,
    // two backoff retries each): the record spools for the member
    // only, and slot 2 holds the remote copy.
    fleet.up[0] = fleet.up[2] = false;
    repl.pushRecord(rec(1));
    EXPECT_EQ(fleet.calls[0], 3);
    EXPECT_EQ(fleet.calls[2], 3);
    EXPECT_EQ(counters.repl_push_retries.load(), 4);
    EXPECT_EQ(fleet.pushed[1], (std::vector<std::int64_t>{1}));
    EXPECT_EQ(counters.repl_spooled.load(), 1);

    // Quarantined: the spill-over candidate is skipped without a call
    // and the member spools again. (Slot 1's quarantine may already
    // have lapsed during slot 3's retries; its half-open attempt then
    // fails once and re-arms a doubled quarantine.)
    repl.pushRecord(rec(2));
    EXPECT_EQ(fleet.calls[2], 3);
    EXPECT_LE(fleet.calls[0], 4);
    EXPECT_EQ(counters.repl_push_retries.load(), 4);
    EXPECT_EQ(fleet.pushed[1], (std::vector<std::int64_t>{1, 2}));
    EXPECT_EQ(counters.repl_spooled.load(), 2);
    EXPECT_TRUE(fleet.pushed[0].empty());

    // Slot 1 recovers; once its quarantine (at most 300 ms) lapses,
    // the first successful push drains the spool in order behind it.
    fleet.up[0] = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    repl.pushRecord(rec(3));
    EXPECT_EQ(fleet.pushed[0], (std::vector<std::int64_t>{3, 1, 2}));
    repl.pushRecord(rec(4));
    EXPECT_EQ(fleet.pushed[0], (std::vector<std::int64_t>{3, 1, 2, 4}));
    EXPECT_EQ(fleet.calls[2], 3); // {1, 2} held both copies.
}

TEST(Replicator, AntiEntropyEscalatesToFullPullOnlyWhenDigestSurvives)
{
    ServerOptions so;
    ServerCounters counters;
    SolutionCache cache;
    const CacheKey mine = keyOwnedBy(0, 2);
    ASSERT_EQ(cache.insert(mine, CachedSolution{}), 1);
    Replicator repl(&cache, 0x11, 0x22, so, counters);
    FakeFleet fleet(1);
    repl.join(1, fleet.transport());
    ASSERT_EQ(fleet.log.size(), 1u); // The join-time delta pull.
    EXPECT_TRUE(fleet.log[0].repl_pull);
    EXPECT_EQ(fleet.log[0].repl_since, 1);
    EXPECT_EQ(fleet.log[0].repl_for, -1);

    // Each round: the digest exchange, then the pull's cursor (-1 =
    // full slot pull), or -2 when the digests agreed.
    const auto round = [&] {
        fleet.log.clear();
        repl.antiEntropy();
        EXPECT_TRUE(fleet.log.at(0).repl_digest);
        EXPECT_EQ(fleet.log.at(0).repl_for, 0);
        if (fleet.log.size() == 1)
            return std::int64_t{-2};
        EXPECT_TRUE(fleet.log.at(1).repl_pull);
        EXPECT_EQ(fleet.log.at(1).repl_for, 0);
        return fleet.log.at(1).repl_since;
    };
    fleet.digest.repl_has_digest = true;
    fleet.digest.repl_digest_count = 5;
    fleet.digest.repl_digest_fp = 0x1234;
    EXPECT_EQ(round(), 1);  // New digest: delta first.
    EXPECT_EQ(round(), -1); // Survived a delta round: one full pull.
    EXPECT_EQ(round(), 1);  // Full pull spent on this digest: delta.
    fleet.digest.repl_digest_count = 6;
    EXPECT_EQ(round(), 1);  // A different digest starts over.
    EXPECT_EQ(round(), -1);
    fleet.digest.repl_digest_count = 1;
    fleet.digest.repl_digest_fp = mix64(mine.hash());
    EXPECT_EQ(round(), -2); // Converged: no pull at all.
    EXPECT_EQ(counters.repl_ae_applied.load(), 0);
}

TEST(Replicator, FailedPullsKeepThePeerInAntiEntropyRounds)
{
    // The first node of a fleet starts before its peer: its join pull
    // fails. Once the peer is up, anti-entropy must still reach it, and
    // a pull that fails after a good digest must not end the rounds.
    ServerOptions so;
    ServerCounters counters;
    SolutionCache cache;
    Replicator repl(&cache, 0x11, 0x22, so, counters);
    FakeFleet fleet(1);
    fleet.up[0] = false;
    repl.join(1, fleet.transport());
    EXPECT_EQ(fleet.calls[0], 1);
    fleet.up[0] = true;
    fleet.digest.repl_has_digest = true;
    fleet.digest.repl_digest_count = 3; // Mismatched: a pull follows.
    fleet.pulls_fail = true;
    for (int round = 0; round < 3; ++round) {
        fleet.log.clear();
        repl.antiEntropy();
        ASSERT_EQ(fleet.log.size(), 2u) << "round " << round;
        EXPECT_TRUE(fleet.log[0].repl_digest);
        EXPECT_TRUE(fleet.log[1].repl_pull);
    }
}

TEST(Replicator, PeerThatFailsOneDigestIsAskedAgainAndReturnsToUp)
{
    // Only Down peers leave the anti-entropy rounds (probes heal
    // them): a peer that failed one digest exchange is Suspect and
    // must be asked again in the next round.
    ServerOptions so;
    ServerCounters counters;
    SolutionCache cache;
    Replicator repl(&cache, 0x11, 0x22, so, counters);
    FakeFleet fleet(1);
    repl.join(1, fleet.transport());
    fleet.digest.repl_has_digest = true; // Empty on both sides.
    const auto round = [&] {
        fleet.calls[0] = 0;
        repl.antiEntropy();
        return fleet.calls[0];
    };
    fleet.up[0] = false;
    EXPECT_EQ(round(), 1);
    fleet.up[0] = true;
    EXPECT_EQ(round(), 1); // Suspect, asked again: it answers.

    // Back to Up: it again takes three consecutive failures (down_after)
    // to go Down, after which the rounds skip it.
    fleet.up[0] = false;
    EXPECT_EQ(round(), 1);
    EXPECT_EQ(round(), 1);
    EXPECT_EQ(round(), 1);
    EXPECT_EQ(round(), 0);
}

TEST(Replicator, StepsAfterStopReturnWithoutACall)
{
    ServerOptions so;
    ServerCounters counters;
    SolutionCache cache;
    Replicator repl(&cache, 0x11, 0x22, so, counters);
    FakeFleet fleet(1);
    repl.join(1, fleet.transport());
    fleet.calls[0] = 0;
    repl.stop();
    repl.pushRecord({keyOwnedBy(1, 2), {}, 1});
    repl.probeDownPeers();
    repl.antiEntropy();
    repl.run(); // Returns at once.
    repl.enqueue({keyOwnedBy(1, 2), {}, 2});
    EXPECT_EQ(fleet.calls[0], 0);
    EXPECT_EQ(repl.queueDepth(), 0);
    EXPECT_EQ(counters.repl_push_failed.load(), 0);
}

TEST(Replicator, FleetOfTwoConvergesThroughAnswerWithoutSockets)
{
    // Two Replicators wired to each other's answer(): a push lands in
    // the peer's cache once, a foreign record is refused, and a fresh
    // node's join pulls everything its peer holds.
    ServerOptions so;
    ServerCounters ca, cb;
    SolutionCache cache_a, cache_b;
    Replicator a(&cache_a, 0x11, 0x22, so, ca);
    Replicator b(&cache_b, 0x11, 0x22, so, cb);
    const auto to = [](Replicator &peer) -> Replicator::Transport {
        return [&peer](std::size_t, const RpcRequest &req,
                       RpcResponse &resp, long) {
            resp = peer.answer(req);
            return resp.ok;
        };
    };
    a.join(1, to(b));
    const CacheKey key = keyOwnedBy(1, 2);
    const std::int64_t seq = cache_a.insert(key, CachedSolution{});
    a.pushRecord({key, {}, seq});
    a.pushRecord({key, {}, seq});
    EXPECT_TRUE(cache_b.contains(key));
    EXPECT_EQ(cb.repl_applied.load(), 1);
    EXPECT_EQ(ca.repl_pushed.load(), 2);

    RpcRequest foreign;
    foreign.op = RpcOp::Replicate;
    foreign.has_record = true;
    foreign.repl_record.key = keyOwnedBy(0, 2);
    foreign.repl_record.key.machine_fp = 0x99;
    EXPECT_FALSE(b.answer(foreign).ok);

    SolutionCache cache_c;
    ServerCounters cc;
    Replicator c(&cache_c, 0x11, 0x22, so, cc);
    c.join(1, to(a));
    EXPECT_TRUE(cache_c.contains(key));
    EXPECT_EQ(cc.repl_prefetched.load(), 1);
    EXPECT_EQ(cache_c.journalSeq(), seq);
}

} // namespace
} // namespace mopt
