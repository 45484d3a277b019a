/**
 * @file
 * Fixed records whose encodings the byte-pinning tests compare with
 * committed strings, and which the mutation fuzz uses as seeds. Every
 * value is hand-picked, not solved, so the bytes never move with the
 * optimizer or the cost model.
 */

#ifndef MOPT_TESTS_SUPPORT_GOLDEN_RECORDS_HH
#define MOPT_TESTS_SUPPORT_GOLDEN_RECORDS_HH

#include <vector>

#include "rpc/protocol.hh"
#include "service/network_optimizer.hh"

namespace mopt {

/** A cache key for shape @p layer (0, 1 or 2) of goldenPlan(): layer 1
 *  is depthwise (groups 32) and layer 2 grouped (groups 4). */
CacheKey goldenKey(int layer);

/** A solution with a 17-digit predicted time and a label that needs
 *  escaping (quote, backslash, tab and a control character). */
CachedSolution goldenSolution();

/** A 3-layer plan at batch 2 with strided, depthwise and grouped
 *  layers. */
NetworkPlan goldenPlan();

/** A solve_network response carrying goldenPlan()'s text, one dense
 *  hit and one grouped miss. */
RpcResponse goldenNetworkResponse();

/** A solve request (grouped shape, deadline) and a solve_network
 *  request (batch 8). */
RpcRequest goldenSolveRequest();
RpcRequest goldenNetworkRequest();

/** The replicate op's request forms, in order: a push of goldenKey(1)
 *  with goldenSolution() at sequence 9, a delta pull (since 412) for
 *  ring slot 2, a digest for ring slot 1, and a ping. */
std::vector<RpcRequest> goldenReplicateRequests();

/** Their answers, in the same order: a push applied, a pull carrying
 *  two records (one with a sequence, one without), a digest and a
 *  ping. */
std::vector<RpcResponse> goldenReplicateResponses();

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_GOLDEN_RECORDS_HH
