/**
 * @file
 * The decoders the wire and the journals used while every line was
 * first parsed into a JsonValue tree, kept as a reference: the
 * differential fuzz in test_rpc checks that the library's one-pass
 * decoders accept, refuse and re-encode exactly as these do, with the
 * same refusal messages.
 */

#ifndef MOPT_TESTS_SUPPORT_TREE_DECODERS_HH
#define MOPT_TESTS_SUPPORT_TREE_DECODERS_HH

#include <cstdint>
#include <string>

#include "autotune/calibration.hh"
#include "rpc/protocol.hh"

namespace mopt {

/** requestFromJsonLine over a JsonValue tree. */
bool treeRequestFromJsonLine(const std::string &line, RpcRequest &out,
                             std::string *err);

/** responseFromJsonLine over a JsonValue tree. */
bool treeResponseFromJsonLine(const std::string &line, RpcResponse &out,
                              std::string *err);

/** solutionFromJsonLine over a JsonValue tree. */
bool treeSolutionFromJsonLine(const std::string &line, CacheKey &key,
                              CachedSolution &sol,
                              std::int64_t *hits = nullptr,
                              std::int64_t *seq = nullptr);

/** tuneSampleFromJsonLine over a JsonValue tree. */
bool treeTuneSampleFromJsonLine(const std::string &line, TuneSample &s);

} // namespace mopt

#endif // MOPT_TESTS_SUPPORT_TREE_DECODERS_HH
