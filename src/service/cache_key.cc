#include "service/cache_key.hh"

#include <cmath>
#include <cstring>
#include <sstream>

namespace mopt {

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    constexpr std::uint64_t kPrime = 1099511628211ull;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kPrime;
    }
    return h;
}

std::uint64_t
fnv1aU64(std::uint64_t v, std::uint64_t h)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    return fnv1a(bytes, sizeof(bytes), h);
}

std::uint64_t
fnv1aDouble(double v, std::uint64_t h)
{
    if (v == 0.0)
        v = 0.0; // Collapse -0.0 onto +0.0.
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return fnv1aU64(bits, h);
}

ConvProblem
CacheKey::canonicalProblem(const ConvProblem &p)
{
    ConvProblem c = p;
    c.name.clear();
    return c;
}

std::uint64_t
CacheKey::machineFingerprint(const MachineSpec &m)
{
    std::uint64_t h = kFnvOffset;
    h = fnv1aU64(static_cast<std::uint64_t>(m.cores), h);
    h = fnv1aU64(static_cast<std::uint64_t>(m.vec_lanes), h);
    h = fnv1aU64(static_cast<std::uint64_t>(m.fma_units), h);
    h = fnv1aU64(static_cast<std::uint64_t>(m.fma_latency), h);
    h = fnv1aU64(static_cast<std::uint64_t>(m.vec_registers), h);
    h = fnv1aDouble(m.freq_ghz, h);
    for (const MemLevel &lvl : m.levels) {
        h = fnv1aU64(static_cast<std::uint64_t>(lvl.capacity_bytes), h);
        h = fnv1aDouble(lvl.bw_seq_gbps, h);
        h = fnv1aDouble(lvl.bw_par_gbps, h);
    }
    h = fnv1aDouble(m.t_call, h);
    h = fnv1aDouble(m.t_sync, h);
    return h;
}

std::uint64_t
CacheKey::settingsFingerprint(const OptimizerOptions &o)
{
    std::uint64_t h = kFnvOffset;
    h = fnv1aU64(o.parallel ? 1 : 0, h);
    h = fnv1aU64(static_cast<std::uint64_t>(o.perm_mode), h);
    h = fnv1aU64(static_cast<std::uint64_t>(o.effort), h);
    h = fnv1aU64(o.seed, h);
    return h;
}

CacheKey
CacheKey::make(const ConvProblem &p, const MachineSpec &m,
               const OptimizerOptions &opts)
{
    return make(p, machineFingerprint(m), settingsFingerprint(opts));
}

CacheKey
CacheKey::make(const ConvProblem &p, std::uint64_t machine_fp,
               std::uint64_t settings_fp)
{
    CacheKey k;
    k.problem = canonicalProblem(p);
    k.machine_fp = machine_fp;
    k.settings_fp = settings_fp;
    return k;
}

std::uint64_t
CacheKey::hash() const
{
    std::uint64_t h = kFnvOffset;
    h = fnv1aU64(static_cast<std::uint64_t>(problem.n), h);
    h = fnv1aU64(static_cast<std::uint64_t>(problem.k), h);
    h = fnv1aU64(static_cast<std::uint64_t>(problem.c), h);
    h = fnv1aU64(static_cast<std::uint64_t>(problem.r), h);
    h = fnv1aU64(static_cast<std::uint64_t>(problem.s), h);
    h = fnv1aU64(static_cast<std::uint64_t>(problem.h), h);
    h = fnv1aU64(static_cast<std::uint64_t>(problem.w), h);
    h = fnv1aU64(static_cast<std::uint64_t>(problem.stride), h);
    h = fnv1aU64(static_cast<std::uint64_t>(problem.dilation), h);
    // groups participates unconditionally: hashes are recomputed at
    // runtime (never persisted), so folding it in cannot invalidate
    // old journals, and grouped shapes must never collide with their
    // dense twins.
    h = fnv1aU64(static_cast<std::uint64_t>(problem.groups), h);
    h = fnv1aU64(machine_fp, h);
    h = fnv1aU64(settings_fp, h);
    return h;
}

std::string
CacheKey::str() const
{
    std::ostringstream oss;
    oss << "CacheKey{" << problem.summary() << ", machine=" << std::hex
        << machine_fp << ", settings=" << settings_fp << std::dec << "}";
    return oss.str();
}

} // namespace mopt
