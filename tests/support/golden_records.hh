/**
 * @file
 * Fixed records whose encodings the byte-pinning tests compare with
 * committed strings, and which the mutation fuzz uses as seeds. Every
 * value is hand-picked, not solved, so the bytes never move with the
 * optimizer or the cost model.
 */

#ifndef MOPT_TESTS_SUPPORT_GOLDEN_RECORDS_HH
#define MOPT_TESTS_SUPPORT_GOLDEN_RECORDS_HH

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

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_GOLDEN_RECORDS_HH
