/**
 * @file
 * Allocation-free open-addressed tables for the access pipeline's hot
 * path, replacing the std::unordered_map/set structures that dominated
 * lookup cost:
 *
 *  - FlatLineMap:          line → value map (the I-oracle's memory,
 *                          the page table, the monitor books and the
 *                          audit-mode drop record),
 *  - PendingTable:         line → fill-ready cycle (the MSHR book),
 *  - DecayingCounterTable: bounded line → saturating counter map with
 *                          periodic decay (instruction criticality),
 *                          a wrapper over FlatLineMap.
 *
 * FlatLineMap and PendingTable use linear probing over power-of-two
 * arrays keyed by line number.  Line numbers are physical addresses
 * shifted right by kLineShift, so they are < 2^58 and the two all-ones
 * sentinels can never collide with a real key.
 */

#ifndef GARIBALDI_MEM_FLAT_TABLES_HH
#define GARIBALDI_MEM_FLAT_TABLES_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/audit.hh"
#include "common/intmath.hh"
#include "common/types.hh"

namespace garibaldi
{

namespace flat
{

constexpr Addr kEmptyKey = ~Addr{0};
constexpr Addr kTombKey = ~Addr{0} - 1;

inline std::size_t
tableCapacity(std::size_t expected)
{
    std::size_t cap = 16;
    while (cap < expected * 2)
        cap <<= 1;
    return cap;
}

} // namespace flat

/**
 * Open-addressed line → value map with erase support (per-line
 * bookkeeping off std::unordered_map; PendingTable's audit-mode drop
 * record is the one caller that erases).
 */
template <typename V>
class FlatLineMap
{
  public:
    explicit FlatLineMap(std::size_t expected = 256)
        : keys(flat::tableCapacity(expected), flat::kEmptyKey),
          values(flat::tableCapacity(expected))
    {
    }

    /** Value of @p key, inserting a default-constructed one if absent. */
    V &
    ref(Addr key)
    {
        if ((filled + tombs + 1) * 4 >= keys.size() * 3)
            rehash();
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        std::size_t first_tomb = keys.size();
        while (true) {
            if (keys[i] == key)
                return values[i];
            if (keys[i] == flat::kEmptyKey) {
                if (first_tomb != keys.size()) {
                    i = first_tomb;
                    --tombs;
                }
                keys[i] = key;
                values[i] = V{};
                ++filled;
                return values[i];
            }
            if (keys[i] == flat::kTombKey && first_tomb == keys.size())
                first_tomb = i;
            i = (i + 1) & mask;
        }
    }

    V *
    find(Addr key)
    {
        if (filled == 0)
            return nullptr;
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key)
                return &values[i];
            i = (i + 1) & mask;
        }
        return nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<FlatLineMap *>(this)->find(key);
    }

    void
    erase(Addr key)
    {
        std::size_t mask = keys.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (keys[i] != flat::kEmptyKey) {
            if (keys[i] == key) {
                keys[i] = flat::kTombKey;
                values[i] = V{};
                --filled;
                ++tombs;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    std::size_t size() const { return filled; }

    /** Visit every live (key, value) pair; iteration order is the slot
     *  order, which callers must not depend on. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < keys.size(); ++i)
            if (keys[i] < flat::kTombKey)
                fn(keys[i], values[i]);
    }

  private:
    void
    rehash()
    {
        std::size_t cap = keys.size();
        if ((filled + 1) * 4 >= cap * 3)
            cap <<= 1;
        std::vector<Addr> old_keys(cap, flat::kEmptyKey);
        std::vector<V> old_values(cap);
        old_keys.swap(keys);
        old_values.swap(values);
        filled = 0;
        tombs = 0;
        std::size_t mask = keys.size() - 1;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] >= flat::kTombKey)
                continue;
            std::size_t j =
                static_cast<std::size_t>(mix64(old_keys[i])) & mask;
            while (keys[j] != flat::kEmptyKey)
                j = (j + 1) & mask;
            keys[j] = old_keys[i];
            values[j] = old_values[i];
            ++filled;
        }
    }

    std::vector<Addr> keys;
    std::vector<V> values;
    std::size_t filled = 0;
    std::size_t tombs = 0;
};

/**
 * Open-addressed line → ready-cycle map modeling in-flight fills.
 *
 * Lookups observe-and-erase completed entries (the lazy-expiry semantics
 * of the map this replaces), so a table nobody prunes keeps every
 * booking until compaction reclaims it.  When the table would pass 75 %
 * load, compact() drops entries whose ready time lies more than
 * kExpirySlack cycles behind the latest scheduled fill and rehashes the
 * rest into a table at most half full, reusing a spare buffer.  No query
 * clock trails the newest booking by that much, so no query can still
 * see a dropped entry in flight and the compaction schedule is
 * unobservable; audit mode checks exactly that (droppedReady()).
 *
 * Owners that ask how many fills are in flight (mshrsFull) call
 * pruneExpired(), which is exact.  Its book is a lazy min-heap of
 * (ready, key) records, built from the live table on the first prune
 * and kept from then on: set() pushes one record per booking and never
 * edits old ones, and pruneExpired() pops records whose time has come,
 * tombstoning the table entry only when the record still matches it (a
 * refresh, erase or compaction leaves a stale record behind, which the
 * pop skips).  Every live (key, ready) pair has a matching record, so
 * draining the heap to @c now leaves the table holding exactly the fills
 * still in flight.  Tables that never prune (L2, an LLC without the
 * contention model) keep no heap at all.
 */
class PendingTable
{
  public:
    /**
     * Expired-entry slack before compact() may drop an entry: 2^18 =
     * 262,144 cycles.  Dropping is invisible only while no later query's
     * clock can precede the dropped entry's ready time: a query can
     * trail the watermark (the newest booked completion) by a full fill
     * latency plus cross-core skew, and under saturated-contention
     * sweeps that tail reaches tens of thousands of cycles — a 64k
     * horizon was observed to flip pendingReady() answers on the 16-core
     * banked contention mix.  (Routine cleanup is pruneExpired(), which
     * is exact; this slack only gates compaction.)
     */
    static constexpr Cycle kExpirySlack = Cycle{1} << 18;

    explicit PendingTable(std::size_t expected)
        : slots(flat::tableCapacity(expected)), baseCap(slots.size())
    {
    }

    /** Record (or refresh) an in-flight fill of @p key. */
    void
    set(Addr key, Cycle ready_at)
    {
        if (ready_at > watermark)
            watermark = ready_at;
        if ((filled + tombs + 1) * 4 >= slots.size() * 3)
            compact();
        std::size_t mask = slots.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        std::size_t first_tomb = slots.size();
        while (true) {
            if (slots[i].key == key) {
                slots[i].ready = ready_at;
                break;
            }
            if (slots[i].key == flat::kEmptyKey) {
                if (first_tomb != slots.size()) {
                    i = first_tomb;
                    --tombs;
                }
                slots[i] = {key, ready_at};
                ++filled;
                break;
            }
            if (slots[i].key == flat::kTombKey &&
                first_tomb == slots.size())
                first_tomb = i;
            i = (i + 1) & mask;
        }
        if (dropped)
            dropped->erase(key); // the new booking supersedes the drop
        if (!pruning)
            return;
        expiry.emplace_back(ready_at, key);
        std::push_heap(expiry.begin(), expiry.end(), std::greater<>{});
        // Stale records (refreshes, erases, compaction drops) pile up
        // when the owner rarely prunes; rebuild from the live table
        // before they dominate.
        if (expiry.size() > slots.size() * 4)
            rebuildExpiry();
    }

    /** Ready cycle of @p key, or 0 when no fill is in flight. */
    Cycle
    get(Addr key) const
    {
        if (filled == 0)
            return 0;
        std::size_t mask = slots.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (slots[i].key != flat::kEmptyKey) {
            if (slots[i].key == key)
                return slots[i].ready;
            i = (i + 1) & mask;
        }
        return 0;
    }

    /** Drop @p key if present. */
    void
    erase(Addr key)
    {
        std::size_t mask = slots.size() - 1;
        std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
        while (slots[i].key != flat::kEmptyKey) {
            if (slots[i].key == key) {
                slots[i].key = flat::kTombKey;
                --filled;
                ++tombs;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /**
     * Drop every entry whose ready time has passed @p now: pop expiry
     * records due by @p now and tombstone each one that still matches
     * its table entry (mismatches are stale records of a booking that
     * was since refreshed, erased or dropped — skipped).  The first
     * call builds the heap from the live table.
     */
    void
    pruneExpired(Cycle now)
    {
        if (!pruning) {
            pruning = true;
            rebuildExpiry();
        }
        while (!expiry.empty() && expiry.front().first <= now) {
            std::pop_heap(expiry.begin(), expiry.end(),
                          std::greater<>{});
            auto [r, k] = expiry.back();
            expiry.pop_back();
            std::size_t mask = slots.size() - 1;
            std::size_t i = static_cast<std::size_t>(mix64(k)) & mask;
            while (slots[i].key != flat::kEmptyKey) {
                if (slots[i].key == k) {
                    if (slots[i].ready == r) {
                        slots[i].key = flat::kTombKey;
                        --filled;
                        ++tombs;
                    }
                    break;
                }
                i = (i + 1) & mask;
            }
        }
    }

    std::size_t size() const { return filled; }

    /**
     * Ready cycle of the booking of @p key that compaction dropped and
     * no later set() superseded, or 0.  Recorded only while the audit
     * mode is on; a query at clock @c now that finds no entry must see
     * droppedReady() <= now, or compaction changed its answer.
     */
    Cycle
    droppedReady(Addr key) const
    {
        const Cycle *r = dropped ? dropped->find(key) : nullptr;
        return r ? *r : 0;
    }

  private:
    struct Slot
    {
        Addr key = flat::kEmptyKey;
        Cycle ready = 0;
    };

    void
    compact()
    {
        // Reclaim long-expired entries, then size the table so at most
        // half of it is live: the next compaction is a quarter of the
        // capacity in bookings away, which amortizes its scan.
        Cycle horizon =
            watermark > kExpirySlack ? watermark - kExpirySlack : 0;
        std::size_t live = 0;
        for (const Slot &s : slots)
            if (s.key < flat::kTombKey && s.ready > horizon)
                ++live;
        std::size_t cap = slots.size();
        while ((live + 1) * 2 > cap)
            cap <<= 1;
        while (cap > baseCap && (live + 1) * 8 <= cap)
            cap >>= 1;

        spare.assign(cap, Slot{});
        bool record_drops = audit::enabled();
        std::size_t mask = cap - 1;
        for (const Slot &s : slots) {
            if (s.key >= flat::kTombKey)
                continue;
            if (s.ready <= horizon) {
                if (record_drops)
                    noteDropped(s.key, s.ready);
                continue;
            }
            std::size_t j = static_cast<std::size_t>(mix64(s.key)) & mask;
            while (spare[j].key != flat::kEmptyKey)
                j = (j + 1) & mask;
            spare[j] = s;
        }
        slots.swap(spare);
        filled = live;
        tombs = 0;
    }

    void
    noteDropped(Addr key, Cycle ready)
    {
        if (!dropped)
            dropped = std::make_unique<FlatLineMap<Cycle>>();
        dropped->ref(key) = ready;
    }

    /** Rebuild the expiry heap to exactly the table's live pairs. */
    void
    rebuildExpiry()
    {
        expiry.clear();
        for (const Slot &s : slots)
            if (s.key < flat::kTombKey)
                expiry.emplace_back(s.ready, s.key);
        std::make_heap(expiry.begin(), expiry.end(), std::greater<>{});
    }

    std::vector<Slot> slots;
    std::vector<Slot> spare;  //!< compaction target, reused
    /** Min-heap of (ready, key) bookings; may hold stale records.
     *  Empty until the first pruneExpired(). */
    std::vector<std::pair<Cycle, Addr>> expiry;
    /** Audit-only book of compaction drops (see droppedReady()). */
    std::unique_ptr<FlatLineMap<Cycle>> dropped;
    std::size_t baseCap;      //!< construction capacity (shrink floor)
    std::size_t filled = 0;
    std::size_t tombs = 0;
    Cycle watermark = 0;
    bool pruning = false;     //!< pruneExpired() has run: keep the heap
};

/**
 * Bounded line → saturating-counter map.  When the table reaches its
 * occupancy limit every counter is halved and zeroed entries are
 * evicted, so stale lines age out and memory stays fixed no matter how
 * long the run (the unbounded-map fix for the criticality tracker).
 */
class DecayingCounterTable
{
  public:
    explicit DecayingCounterTable(std::size_t entries)
        : counts(entries), limit(flat::tableCapacity(entries) * 3 / 4),
          expected(entries)
    {
    }

    /** Bump @p key's saturating counter; @return the new count. */
    std::uint8_t
    increment(Addr key)
    {
        if (std::uint8_t *c = counts.find(key)) {
            if (*c < 255)
                ++*c;
            return *c;
        }
        // Below the map's own 3/4 growth point, so it never grows.
        if (counts.size() + 1 >= limit) {
            decay();
            if (counts.size() + 1 >= limit)
                return 1; // still saturated: observe without tracking
        }
        return counts.ref(key) = 1;
    }

    std::size_t size() const { return counts.size(); }

  private:
    /** Halve every count, dropping those that reach zero. */
    void
    decay()
    {
        FlatLineMap<std::uint8_t> halved(expected);
        counts.forEach([&](Addr k, std::uint8_t c) {
            if (c >> 1)
                halved.ref(k) = c >> 1;
        });
        counts = std::move(halved);
    }

    FlatLineMap<std::uint8_t> counts;
    std::size_t limit;    //!< fixed 3/4-of-capacity occupancy bound
    std::size_t expected; //!< construction size, reused by decay()
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_FLAT_TABLES_HH
