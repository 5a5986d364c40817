/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic element of the simulator (workload walks, sampled
 * policies, dependence draws) derives from Pcg32 streams seeded from
 * (workload, instance, purpose) tuples, so that any experiment replays
 * bit-identically.
 */

#ifndef GARIBALDI_COMMON_RNG_HH
#define GARIBALDI_COMMON_RNG_HH

#include <cstdint>
#include <vector>


namespace garibaldi
{

/**
 * PCG32 (XSH-RR): small, fast, statistically solid generator with an
 * explicit stream id, ideal for reproducible simulation.
 */
class Pcg32
{
  public:
    /** Construct from a seed and stream selector. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next uniformly distributed 32-bit value. */
    std::uint32_t next();

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint32_t nextBounded(std::uint32_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p);

    /** Uniform 64-bit value. */
    std::uint64_t next64();

  private:
    // An Rng stream belongs to exactly one core/workload; sharing one
    // across workers would make draw order schedule-dependent.
    std::uint64_t state;
    std::uint64_t inc;
};

/**
 * Zipf(alpha) sampler over [0, n) with O(1) amortized draws via the
 * rejection-inversion method of Hormann & Derflinger.  alpha == 0
 * degenerates to uniform.
 */
class ZipfSampler
{
  public:
    /**
     * @param n population size (> 0)
     * @param alpha skew exponent (>= 0); larger = more skewed
     */
    ZipfSampler(std::uint64_t n, double alpha);

    /** Draw a rank in [0, n); rank 0 is the most popular element. */
    std::uint64_t sample(Pcg32 &rng) const;

    std::uint64_t population() const { return n; }
    double skew() const { return alpha; }

  private:
    double h(double x) const;
    double hInv(double x) const;

    std::uint64_t n;
    double alpha;
    double hx0;
    double hxn;
    double s;
};

/**
 * Deterministically shuffle [0, n) with a Feistel-style permutation —
 * used to scatter page allocations across the physical address space
 * without storing a table.
 */
std::uint64_t feistelPermute(std::uint64_t x, std::uint64_t n,
                             std::uint64_t key);

} // namespace garibaldi

#endif // GARIBALDI_COMMON_RNG_HH
