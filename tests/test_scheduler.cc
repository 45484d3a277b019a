/**
 * @file
 * Tests of the single-flight solve scheduler: concurrent requests for
 * one key coalesce onto exactly one solver invocation, distinct keys
 * overlap in time up to the concurrency budget, plans are
 * byte-identical for any budget and match the optimizer at any thread
 * count, the runners are the only threads a scheduler adds, and a
 * throwing solve reaches every waiter while leaving the key retryable
 * (no poisoned entries).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "machine/machine.hh"
#include "service/network_optimizer.hh"
#include "service/solution_cache.hh"
#include "service/solve_scheduler.hh"
#include "support/thread_count.hh"

namespace mopt {
namespace {

ConvProblem
smallProblem(std::int64_t k = 32, std::int64_t c = 16, std::int64_t hw = 14)
{
    ConvProblem p;
    p.name = "sched";
    p.n = 1;
    p.k = k;
    p.c = c;
    p.r = 3;
    p.s = 3;
    p.h = hw;
    p.w = hw;
    return p;
}

OptimizerOptions
fastOpts()
{
    OptimizerOptions o;
    o.effort = OptimizerOptions::Effort::Fast;
    o.parallel = true;
    o.threads = 4;
    return o;
}

MachineSpec
tiny()
{
    return machineByName("tiny");
}

TEST(SolveScheduler, ColdSolveThenCacheHit)
{
    SolutionCache cache;
    SolveScheduler sched(tiny(), fastOpts(), &cache,
                         SolveSchedulerOptions{2});

    const ScheduledSolve cold = sched.submit(smallProblem()).wait();
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_FALSE(cold.coalesced);
    EXPECT_GT(cold.solve_seconds, 0.0);
    EXPECT_GT(cold.solver_evals, 0);

    const ScheduledSolve warm = sched.submit(smallProblem()).wait();
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.sol, cold.sol);
    EXPECT_EQ(warm.solve_seconds, 0.0);

    const SolveSchedulerStats st = sched.stats();
    EXPECT_EQ(st.solves, 1);
    EXPECT_EQ(st.in_flight, 0);
}

TEST(SolveScheduler, ConcurrentRequestsForOneKeyRunOneSolve)
{
    SolutionCache cache;
    SolveScheduler sched(tiny(), fastOpts(), &cache,
                         SolveSchedulerOptions{4});

    constexpr int kClients = 8;
    std::latch start(kClients);
    std::vector<ScheduledSolve> results(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            results[static_cast<std::size_t>(t)] =
                sched.submit(smallProblem()).wait();
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Exactly one solver invocation; every requester got its result.
    EXPECT_EQ(sched.stats().solves, 1);
    int leaders = 0;
    for (const ScheduledSolve &r : results) {
        EXPECT_EQ(r.sol, results.front().sol);
        if (!r.cache_hit && !r.coalesced)
            ++leaders;
        else
            EXPECT_EQ(r.solve_seconds, 0.0);
    }
    EXPECT_EQ(leaders, 1);
}

TEST(SolveScheduler, DistinctKeysOverlapUpToBudget)
{
    SolutionCache cache;
    SolveScheduler sched(tiny(), fastOpts(), &cache,
                         SolveSchedulerOptions{2});
    EXPECT_EQ(sched.concurrency(), 2);

    // Submit four distinct cold shapes without blocking, then join:
    // with two runners and multi-millisecond solves, both runners
    // must have been observed in flight at once.
    std::vector<SolveTicket> tickets;
    for (int i = 0; i < 4; ++i)
        tickets.push_back(sched.submit(smallProblem(16 + 16 * i)));
    for (const SolveTicket &t : tickets) {
        const ScheduledSolve r = t.wait();
        EXPECT_FALSE(r.cache_hit);
        EXPECT_FALSE(r.coalesced);
    }

    const SolveSchedulerStats st = sched.stats();
    EXPECT_EQ(st.solves, 4);
    EXPECT_EQ(st.coalesced, 0);
    EXPECT_GE(st.peak_concurrency, 2);
    EXPECT_EQ(st.in_flight, 0);
}

TEST(SolveScheduler, BudgetDoesNotChangeSolutions)
{
    const std::vector<ConvProblem> problems{
        smallProblem(32), smallProblem(48), smallProblem(64)};

    SolutionCache cache1, cache4;
    SolveScheduler serial(tiny(), fastOpts(), &cache1,
                          SolveSchedulerOptions{1});
    SolveScheduler wide(tiny(), fastOpts(), &cache4,
                        SolveSchedulerOptions{4});

    std::vector<SolveTicket> tickets;
    for (const ConvProblem &p : problems)
        tickets.push_back(wide.submit(p));
    for (std::size_t i = 0; i < problems.size(); ++i) {
        const ScheduledSolve a = serial.submit(problems[i]).wait();
        const ScheduledSolve b = tickets[i].wait();
        EXPECT_EQ(a.sol, b.sol) << "problem " << i;
    }
}

// Every solve runs on the process-wide pool, so once that pool exists
// a scheduler adds exactly its runners, whatever width they partition
// (threads = 4 here: a private pool would add 3 helpers at concurrency
// 1 and 2 at concurrency 2).
TEST(SolveScheduler, AddsOnlyItsRunnersOnceTheSharedPoolExists)
{
    globalPool();
    const int base = threadCount();
    ASSERT_GT(base, 0);
    for (int concurrency : {1, 2}) {
        // Joined threads can linger in the count for a moment.
        for (int i = 0; i < 500 && threadCount() != base; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ASSERT_EQ(threadCount(), base);

        SolveScheduler sched(tiny(), fastOpts(), nullptr,
                             SolveSchedulerOptions{concurrency});
        EXPECT_EQ(threadCount(), base + concurrency)
            << "concurrency " << concurrency;
        sched.submit(smallProblem()).wait();
        EXPECT_EQ(threadCount(), base + concurrency)
            << "after a solve at concurrency " << concurrency;
    }
}

// The 3-argument optimizeConv and the scheduler's partitioned solves
// share one pool and one reduction order: the optimizer starts no
// threads, its top-k is the same at every thread count, and the
// scheduler's answer is its best entry.
TEST(SolveScheduler, AgreesWithTheOptimizerAtEveryThreadCount)
{
    globalPool();
    const int base = threadCount();
    ASSERT_GT(base, 0);
    std::atomic<bool> done{false};
    std::atomic<int> peak{0};
    std::thread sampler([&] {
        do {
            peak = std::max(peak.load(), threadCount());
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        } while (!done.load());
    });

    const ConvProblem p = smallProblem();
    std::vector<OptimizeOutput> outs;
    for (int threads : {1, 2, 0}) {
        OptimizerOptions o = fastOpts();
        o.threads = threads;
        outs.push_back(optimizeConv(p, tiny(), o));
    }
    done = true;
    sampler.join();
    EXPECT_EQ(peak.load(), base + 1) << "only the sampler may be added";

    const std::vector<Candidate> &want = outs.front().candidates;
    ASSERT_FALSE(want.empty());
    for (std::size_t t = 1; t < outs.size(); ++t) {
        const std::vector<Candidate> &got = outs[t].candidates;
        ASSERT_EQ(got.size(), want.size()) << "run " << t;
        EXPECT_EQ(outs[t].solver_evals, outs.front().solver_evals);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].config, want[i].config)
                << "run " << t << " rank " << i;
            EXPECT_EQ(got[i].predicted.total_seconds,
                      want[i].predicted.total_seconds);
            EXPECT_EQ(got[i].perm_label, want[i].perm_label);
        }
    }

    SolveScheduler sched(tiny(), fastOpts(), nullptr,
                         SolveSchedulerOptions{2});
    EXPECT_EQ(sched.solveWidth(), 2u);
    const ScheduledSolve s = sched.submit(p).wait();
    EXPECT_EQ(s.sol, (CachedSolution{want.front().config,
                                     want.front().predicted.total_seconds,
                                     want.front().perm_label}));
    EXPECT_EQ(s.solver_evals, outs.front().solver_evals);
}

TEST(SolveScheduler, ExceptionReachesEveryWaiterAndKeyIsRetryable)
{
    ConvProblem bad = smallProblem();
    bad.k = 0; // optimizeConv's validate() rejects this loudly.

    SolutionCache cache;
    SolveScheduler sched(tiny(), fastOpts(), &cache,
                         SolveSchedulerOptions{2});

    constexpr int kClients = 3;
    std::latch start(kClients);
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&] {
            start.arrive_and_wait();
            try {
                sched.submit(bad).wait();
            } catch (const FatalError &) {
                failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), kClients);

    // The failed flight must be gone: the key retries fresh (and
    // fails identically) instead of replaying a poisoned entry...
    const std::int64_t solves_before = sched.stats().solves;
    EXPECT_THROW(sched.submit(bad).wait(), FatalError);
    EXPECT_GT(sched.stats().solves, solves_before);
    EXPECT_EQ(sched.stats().in_flight, 0);

    // ...and the scheduler is unharmed for valid work.
    const ScheduledSolve ok = sched.submit(smallProblem()).wait();
    EXPECT_FALSE(ok.cache_hit);
    EXPECT_GT(ok.sol.predicted_seconds, 0.0);
}

TEST(NetworkOptimizer, SchedulerPlanIsByteIdenticalToSerial)
{
    // A net with duplicate shapes, so dedupe + scheduler interact.
    std::vector<ConvProblem> net;
    for (int i = 0; i < 3; ++i) {
        net.push_back(smallProblem(32));
        net.push_back(smallProblem(16 + 16 * i));
    }

    SolutionCache serial_cache;
    const NetworkOptimizer serial(tiny(), fastOpts(), &serial_cache);
    const NetworkPlan serial_plan = serial.optimize(net);

    SolutionCache cache;
    SolveScheduler sched(tiny(), fastOpts(), &cache,
                         SolveSchedulerOptions{4});
    const NetworkOptimizer piped(tiny(), fastOpts(), &cache, &sched);
    const NetworkPlan cold = piped.optimize(net);

    EXPECT_EQ(cold.str(), serial_plan.str());
    EXPECT_EQ(cold.stats.unique_shapes, serial_plan.stats.unique_shapes);
    EXPECT_EQ(cold.stats.cache_misses, serial_plan.stats.cache_misses);
    EXPECT_EQ(cold.stats.coalesced, 0u);
    EXPECT_EQ(sched.stats().solves,
              static_cast<std::int64_t>(cold.stats.cache_misses));

    // Warm pass through the scheduler: pure hits, still identical.
    const NetworkPlan warm = piped.optimize(net);
    EXPECT_EQ(warm.str(), serial_plan.str());
    EXPECT_EQ(warm.stats.cache_hits, warm.stats.unique_shapes);
    EXPECT_EQ(sched.stats().solves,
              static_cast<std::int64_t>(cold.stats.cache_misses));

    // Direct reference: every row is the plain optimizeConv winner of
    // its shape, whichever scheduler budget produced the plan.
    for (const LayerGroup &g :
         groupByKey(net, CacheKey::machineFingerprint(tiny()),
                    CacheKey::settingsFingerprint(fastOpts()))) {
        const OptimizeOutput ref =
            optimizeConv(g.key.problem, tiny(), fastOpts());
        ASSERT_FALSE(ref.candidates.empty());
        const Candidate &best = ref.candidates.front();
        for (const std::size_t li : g.layers) {
            for (const NetworkPlan *p : {&serial_plan, &cold, &warm}) {
                const Candidate &row = p->layers[li].best;
                EXPECT_EQ(row.config, best.config);
                EXPECT_EQ(row.perm_label, best.perm_label);
                EXPECT_EQ(row.predicted.total_seconds,
                          best.predicted.total_seconds);
            }
        }
    }
}

TEST(NetworkOptimizer, RejectsMismatchedScheduler)
{
    SolutionCache cache;
    OptimizerOptions other = fastOpts();
    other.seed += 1; // Different settings fingerprint.
    SolveScheduler sched(tiny(), other, &cache);
    EXPECT_THROW(NetworkOptimizer(tiny(), fastOpts(), &cache, &sched),
                 FatalError);
}

} // namespace
} // namespace mopt
