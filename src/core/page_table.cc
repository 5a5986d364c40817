#include "core/page_table.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace garibaldi
{

PageTable::PageTable(CoreId core, std::uint64_t scatter_key)
    : zoneBase((Addr{core} + 1) * kZoneFrames), key(scatter_key)
{
    if ((zoneBase + kZoneFrames) * kPageBytes > (Addr{1} << kPhysAddrBits))
        fatal("core ", core, " physical zone exceeds the 44-bit space");
}

Addr
PageTable::frameOf(Addr vpn)
{
    Addr &ppn = vpnToPpn.ref(vpn);
    if (ppn != 0)
        return ppn;
    if (nextIndex >= kZoneFrames)
        fatal("core physical zone exhausted (", nextIndex, " pages)");
    ppn = zoneBase + feistelPermute(nextIndex++, kZoneFrames, key);
    return ppn;
}

Addr
PageTable::translate(Addr vaddr)
{
    Addr ppn = frameOf(pageNumber(vaddr));
    return (ppn << kPageShift) | pageOffset(vaddr);
}

} // namespace garibaldi
