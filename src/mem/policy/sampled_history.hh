/**
 * @file
 * The sampled history Hawkeye and Mockingjay train on.  Both papers
 * keep, for each sampled set, the last access (PC signature, time) of
 * the lines touched in a window of about 8 x associativity accesses;
 * Hawkeye's OPTgen and Mockingjay's sampled cache read reuse from it.
 */

#ifndef GARIBALDI_MEM_POLICY_SAMPLED_HISTORY_HH
#define GARIBALDI_MEM_POLICY_SAMPLED_HISTORY_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "common/zeroed_array.hh"

namespace garibaldi
{

/**
 * One of every 2^sampleShift cache sets is sampled: the sets whose low
 * sampleShift bits are zero.  Per sampled set, the history holds the
 * historyLen most recently accessed distinct lines, each with the PC
 * signature and stamp of its last access.  A set's entries sit in
 * slots [0, filled) of three rows of historyLen + 1 slots: 32-bit line
 * keys, then 16-bit stamps, then 16-bit signatures (8 bytes a slot),
 * followed by rowBytes bytes the caller owns (zeroed once), all in one
 * block malloc'd on the set's first access and never cleared.  A
 * lookup scans the keys; a new line that brings the set past
 * historyLen entries evicts the one with the minimum stamp and moves
 * the last entry into its slot.  The blocks come from the heap, not
 * one mapped array: a System built after this one reuses their pages
 * instead of faulting in fresh ones.
 *
 * A key is the line number without its low log2(numSets) bits.  Every
 * line of one set, or of one bank's set in a banked cache, has the
 * same set-index and bank-select bits there, so distinct lines keep
 * distinct keys.  Line numbers are below 2^38, so a key fits 32 bits
 * in any cache of at least 64 sets; a key that does not fit panics.
 *
 * Stamps count the set's accesses, so they are unique within a set.
 * They are offsets of 16 bits: before the next one would overflow,
 * the set re-ranks its entries.  Those at most R = 2 x historyLen
 * accesses old keep their exact age; older ones keep their order and
 * are given ages just beyond R.  Reuse is thus exact up to R and above
 * R when the true reuse is, which is all Mockingjay's training (it
 * clamps at R) and OPTgen (cold from historyLen on) read, and the
 * stalest entry is the same as with unbounded stamps.
 *
 * Any line accessed in the set's last historyLen accesses is one of its
 * historyLen most recent distinct lines, so it is always still held.
 */
class SampledHistory
{
  public:
    /** What one access found, for the caller's training rule. */
    struct Access
    {
        std::uint64_t now;   //!< this access's stamp (the set's count)
        /** Accesses since the line's previous one; 0 = not held. */
        std::uint64_t reuse;
        std::uint16_t prevSig;    //!< signature of that previous access
        bool evicted;             //!< a new line pushed out the stalest
        std::uint16_t evictedSig; //!< the signature it last had
    };

    /**
     * @param num_sets sets of the cache
     * @param sample_shift sample one of every 2^sample_shift sets
     * @param history_len entries kept per sampled set (1..1024)
     * @param row_bytes size of the caller's per-set row
     */
    SampledHistory(std::uint32_t num_sets, unsigned sample_shift,
                   std::uint32_t history_len, std::size_t row_bytes = 0);
    /** Moving leaves the source without blocks to free. */
    SampledHistory(SampledHistory &&) = default;
    SampledHistory &operator=(SampledHistory &&) = delete;
    ~SampledHistory();

    /** True when cache set @p set is sampled. */
    bool
    sampled(std::uint32_t set) const
    {
        return (set & ((1u << sampleShift) - 1)) == 0;
    }

    /** Record an access to @p line, which maps to sampled set @p set,
     *  by signature @p sig. */
    Access access(std::uint32_t set, Addr line, std::uint16_t sig);

    /** The caller's row of sampled set @p set; valid once the set was
     *  accessed. */
    std::uint8_t *
    row(std::uint32_t set) const
    {
        return reinterpret_cast<std::uint8_t *>(
                   sets[set >> sampleShift].slots) +
               rowOffset;
    }

    /** Entries held by sampled set @p set (never above historyLen). */
    std::uint32_t
    filled(std::uint32_t set) const
    {
        return sets[set >> sampleShift].filled;
    }

    /** Host-prefetch @p set's header when it is sampled. */
    void
    prefetch(std::uint32_t set) const
    {
        if (sampled(set))
            __builtin_prefetch(&sets[set >> sampleShift]);
    }

  private:
    /** Longest history whose re-ranked stamps (at most 3 x historyLen)
     *  leave most of the 16-bit range for new ones. */
    static constexpr std::uint32_t kMaxHistoryLen = 1024;

    /** All-zero is a set never accessed. */
    struct Set
    {
        std::uint32_t *slots; //!< null until the first access
        std::uint64_t tick;   //!< accesses so far (OPTgen's clock)
        std::uint32_t filled;
        std::uint16_t top;    //!< stamp of the latest access
    };

    void rerank(Set &ss) const;

    unsigned sampleShift;
    unsigned keyShift; //!< log2 of the cache's set count
    std::size_t numSampled;
    std::uint32_t historyLen;
    std::size_t rowOffset; //!< bytes before the caller's row
    std::size_t blockBytes;
    ZeroedArray<Set> sets;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_SAMPLED_HISTORY_HH
