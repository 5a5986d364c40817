#include "mem/prefetch/ispy.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

IspyPrefetcher::IspyPrefetcher(std::size_t table_entries,
                               unsigned successors)
    : indexMask(table_entries - 1),
      numSucc(successors > kMaxSucc ? kMaxSucc : successors)
{
    checkPowerOf2(table_entries, "I-SPY table size");
    tags = makeZeroedArray<Addr>(table_entries);
    table = makeZeroedArray<Succ>(table_entries);
    if (numSucc == 0)
        numSucc = 1;
}

std::size_t
IspyPrefetcher::indexOf(Addr context) const
{
    return static_cast<std::size_t>(mix64(context)) & indexMask;
}

void
IspyPrefetcher::record(Addr context, Addr next_miss_line)
{
    std::size_t idx = indexOf(context);
    Succ &e = table[idx];
    if (tags[idx] != context) {
        e = Succ{};
        tags[idx] = context;
    }
    // Reinforce an existing successor or displace the weakest.
    unsigned weakest = 0;
    for (unsigned i = 0; i < numSucc; ++i) {
        if (e.succ[i] == next_miss_line) {
            if (e.conf[i] < 3)
                ++e.conf[i];
            return;
        }
        if (e.conf[i] < e.conf[weakest])
            weakest = i;
    }
    if (e.conf[weakest] > 0) {
        --e.conf[weakest];
    } else {
        e.succ[weakest] = next_miss_line;
        e.conf[weakest] = 1;
    }
}

void
IspyPrefetcher::observe(const MemAccess &acc, bool hit,
                        std::vector<Addr> &out)
{
    if (acc.isPrefetch || !acc.isInstr || hit)
        return;
    Addr line = acc.lineAddr();

    // Context = previous two miss lines (I-SPY's execution context,
    // collapsed to a hashable key).
    Addr context = prevMiss ^ (prevPrevMiss << 1);
    if (prevMiss != 0)
        record(context, line);

    // Conditional prefetch: successors of the *new* context.
    Addr next_context = line ^ (prevMiss << 1);
    std::size_t idx = indexOf(next_context);
    if (tags[idx] == next_context) {
        const Succ &e = table[idx];
        for (unsigned i = 0; i < numSucc; ++i) {
            if (e.conf[i] >= 2 && e.succ[i] != 0) {
                out.push_back(e.succ[i]);
                ++nIssued;
            }
        }
    }

    prevPrevMiss = prevMiss;
    prevMiss = line;
}

} // namespace garibaldi
