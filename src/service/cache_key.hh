/**
 * @file
 * Canonical cache keys for the network-level solution cache: a conv2d
 * shape stripped of its layer name, a fingerprint of every
 * MachineSpec field the cost model reads, and a fingerprint of the
 * OptimizerOptions fields that change the search result. Two solves
 * share a key exactly when the optimizer is guaranteed to return the
 * same winning configuration for both, so a cached solution can be
 * replayed for any identically-shaped layer on any identically-specced
 * machine.
 *
 * Hashing is 64-bit FNV-1a over a canonical byte encoding (integers as
 * little-endian two's complement, doubles as their IEEE-754 bit
 * pattern), so key hashes are stable across runs and across processes
 * — a requirement for the persistent journal, which stores fingerprints
 * verbatim.
 */

#ifndef MOPT_SERVICE_CACHE_KEY_HH
#define MOPT_SERVICE_CACHE_KEY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "conv/problem.hh"
#include "machine/machine.hh"
#include "optimizer/mopt_optimizer.hh"

namespace mopt {

/** 64-bit FNV-1a offset basis (the seed of an empty hash). */
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/** Fold @p len bytes at @p data into the running FNV-1a state @p h. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t h = kFnvOffset);

/** Fold one 64-bit integer (canonical little-endian encoding). */
std::uint64_t fnv1aU64(std::uint64_t v, std::uint64_t h);

/** Fold one double via its IEEE-754 bit pattern (-0.0 folds as +0.0). */
std::uint64_t fnv1aDouble(double v, std::uint64_t h);

/**
 * Identity of one (problem, machine, search settings) solve.
 * Construct with make(); the fields are public so tests and the
 * journal loader can rebuild keys from their stored parts.
 */
struct CacheKey
{
    /** The shape with its layer name cleared (names never affect the
     *  solution, so "R2" and an identically-shaped "layer1.0.conv1"
     *  share one entry). */
    ConvProblem problem;

    /** Fingerprint of the machine description (all model-visible
     *  fields; the preset name is excluded). */
    std::uint64_t machine_fp = 0;

    /** Fingerprint of the search settings (parallel mode, permutation
     *  mode, effort, seed). top_k and threads are excluded: the former
     *  only truncates the ranked list below the cached winner, and the
     *  search result is thread-count invariant by design (see
     *  docs/ARCHITECTURE.md). */
    std::uint64_t settings_fp = 0;

    static CacheKey make(const ConvProblem &p, const MachineSpec &m,
                         const OptimizerOptions &opts);

    /** make() with the two fingerprints already computed, for callers
     *  that key many problems under one machine and settings. */
    static CacheKey make(const ConvProblem &p, std::uint64_t machine_fp,
                         std::uint64_t settings_fp);

    /** @p p with its name cleared (the canonical shape). */
    static ConvProblem canonicalProblem(const ConvProblem &p);

    static std::uint64_t machineFingerprint(const MachineSpec &m);
    static std::uint64_t settingsFingerprint(const OptimizerOptions &o);

    /** Stable 64-bit hash of the whole key (shard + bucket index). */
    std::uint64_t hash() const;

    bool operator==(const CacheKey &o) const = default;

    /** Compact human-readable form for logs and error messages. */
    std::string str() const;
};

} // namespace mopt

/** Unordered containers key on CacheKey::hash(). */
template <>
struct std::hash<mopt::CacheKey>
{
    std::size_t operator()(const mopt::CacheKey &k) const
    {
        return static_cast<std::size_t>(k.hash());
    }
};

#endif // MOPT_SERVICE_CACHE_KEY_HH
