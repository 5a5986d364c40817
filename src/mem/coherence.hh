/**
 * @file
 * Directory-based MESI-lite coherence across the L2 clusters (Table 1:
 * MESI protocol, 64 B lines).  The directory lives beside the LLC and
 * tracks which 4-core L2 cluster holds each line and in what state.
 *
 * Multiprogrammed mixes never share lines across clusters, so this
 * substrate mostly idles in the paper's experiments; it is exercised
 * directly by the coherence tests and by synthetic sharing workloads.
 */

#ifndef GARIBALDI_MEM_COHERENCE_HH
#define GARIBALDI_MEM_COHERENCE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/flat_tables.hh"

namespace garibaldi
{

/** MESI stable states as tracked by the directory. */
enum class CohState : std::uint8_t { Invalid, Shared, Exclusive,
                                     Modified };

/** Human-readable state name. */
const char *cohStateName(CohState s);

/** Directory of L2-cluster sharers. */
class Directory
{
  public:
    explicit Directory(std::uint32_t num_clusters);

    /**
     * A cluster fills a line (read or write intent).
     * @param[out] invalidate clusters whose copies must be invalidated
     * @return latency penalty in cycles (0 when no remote action needed)
     */
    Cycle onFill(Addr line_addr, std::uint32_t cluster, bool is_write,
                 std::vector<std::uint32_t> &invalidate);

    /**
     * A cluster upgrades a resident Shared line for writing.
     * Semantics match onFill with write intent.
     */
    Cycle onUpgrade(Addr line_addr, std::uint32_t cluster,
                    std::vector<std::uint32_t> &invalidate);

    /** A cluster evicted its copy. */
    void onEvict(Addr line_addr, std::uint32_t cluster);

    /** Current directory state of a line. */
    CohState stateOf(Addr line_addr) const;

    /** Number of clusters holding the line. */
    std::uint32_t sharerCount(Addr line_addr) const;

    /** True when @p cluster holds the line. */
    bool isSharer(Addr line_addr, std::uint32_t cluster) const;

    StatSet stats() const;

    /** Remote invalidation round-trip cost in cycles. */
    static constexpr Cycle kInvalidateLatency = 30;

  private:
    struct Entry
    {
        std::uint64_t sharers = 0; //!< bitmask of clusters
        CohState state = CohState::Invalid;
    };

    std::uint32_t numClusters;
    FlatLineMap<Entry> dir;
    std::uint64_t nInvalidations = 0;
    std::uint64_t nUpgrades = 0;
    std::uint64_t nSharedFills = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_COHERENCE_HH
