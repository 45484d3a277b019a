#include "common/rng.hh"

#include "common/logging.hh"

namespace mopt {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    checkInvariant(lo <= hi, "uniformInt: lo > hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t r;
    do {
        r = next();
    } while (r >= limit);
    return lo + static_cast<std::int64_t>(r % span);
}

double
Rng::uniform01()
{
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniform01();
}

std::size_t
Rng::index(std::size_t n)
{
    checkInvariant(n > 0, "Rng::index on empty range");
    return static_cast<std::size_t>(uniformInt(0, static_cast<std::int64_t>(n) - 1));
}

} // namespace mopt
