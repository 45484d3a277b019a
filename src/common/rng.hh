/**
 * @file
 * Deterministic random-number utilities.
 *
 * All stochastic components of the library (grid sampler, auto-tuner,
 * multi-start solver) accept an explicit Rng so experiments are
 * reproducible run-to-run.
 */

#ifndef MOPT_COMMON_RNG_HH
#define MOPT_COMMON_RNG_HH

#include <cstdint>
#include <vector>

namespace mopt {

/**
 * A small deterministic RNG (xoshiro256** core) with convenience
 * sampling helpers. Cheap to copy; copies diverge independently.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (splitmix64-expanded state). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform01();

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Pick a uniformly random element index of a size-@p n container. */
    std::size_t index(std::size_t n);

    /** Pick a uniformly random element of @p v (must be non-empty). */
    template <typename T>
    const T &
    choice(const std::vector<T> &v)
    {
        return v[index(v.size())];
    }

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = index(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    std::uint64_t s_[4];
};

} // namespace mopt

#endif // MOPT_COMMON_RNG_HH
