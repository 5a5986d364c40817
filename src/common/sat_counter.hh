/**
 * @file
 * Saturating counter: the GHB prefetcher's 2-bit confidence and
 * Hawkeye's 3-bit PC predictor entries.
 */

#ifndef GARIBALDI_COMMON_SAT_COUNTER_HH
#define GARIBALDI_COMMON_SAT_COUNTER_HH

#include <cstdint>

#include "common/logging.hh"

namespace garibaldi
{

/**
 * An n-bit unsigned saturating counter.  Increments stick at 2^n - 1,
 * decrements stick at 0.  Two bytes: both fields fit a byte because
 * n is at most 8.
 */
class SatCounter
{
  public:
    SatCounter() = default;

    /**
     * @param bits counter width in bits (1..8)
     * @param initial initial value, clamped into range
     */
    explicit SatCounter(unsigned bits, unsigned initial = 0)
        : maxVal(static_cast<std::uint8_t>((1u << bits) - 1)),
          val(static_cast<std::uint8_t>(initial > maxVal ? maxVal
                                                         : initial))
    {
        if (bits == 0 || bits > 8)
            panic("SatCounter width out of range: ", bits);
    }

    /** Saturating increment. */
    void
    increment(unsigned by = 1)
    {
        val = static_cast<std::uint8_t>(val + by > maxVal ? maxVal
                                                          : val + by);
    }

    /** Saturating decrement. */
    void
    decrement(unsigned by = 1)
    {
        val = static_cast<std::uint8_t>(by > val ? 0 : val - by);
    }

    /** Current value. */
    unsigned value() const { return val; }

    /** Maximum representable value. */
    unsigned max() const { return maxVal; }

    /** True when the counter is in its upper half (weakly/strongly set). */
    bool isSet() const { return val > maxVal / 2; }

    /** Force a value (clamped). */
    void
    set(unsigned v)
    {
        val = static_cast<std::uint8_t>(v > maxVal ? maxVal : v);
    }

    /** Reset to zero. */
    void reset() { val = 0; }

  private:
    std::uint8_t maxVal = 1;
    std::uint8_t val = 0;
};
static_assert(sizeof(SatCounter) == 2, "SatCounter must stay two bytes");

} // namespace garibaldi

#endif // GARIBALDI_COMMON_SAT_COUNTER_HH
