#include "nicam/nicam_network.hh"

#include "hostprof/hostprof.hh"
#include "net/lineage_hook.hh"
#include "sim/log.hh"

namespace msgsim
{

NicamNetwork::NicamNetwork(Simulator &sim, const Config &cfg)
    : Cm5Network(sim, cfg, hostprof::Site::NicamRoute,
                 hostprof::Site::NicamDeliver),
      maxOffloadEntries_(cfg.maxOffloadEntries)
{
    if (maxOffloadEntries_ < 1)
        msgsim_fatal("nicam handler table needs at least one entry");
}

bool
NicamNetwork::offloadHandler(NodeId dst, HwTag tag, Word selector,
                             OffloadFn fn)
{
    auto &table = tables_[dst];
    const TableKey key{static_cast<int>(tag), selector};
    if (!table.count(key) &&
        static_cast<int>(table.size()) >= maxOffloadEntries_)
        return false; // table full: the host must dispatch this one
    table[key] = OffloadEntry{std::move(fn), 0};
    return true;
}

void
NicamNetwork::removeOffload(NodeId dst, HwTag tag, Word selector)
{
    auto it = tables_.find(dst);
    if (it == tables_.end())
        return;
    it->second.erase(TableKey{static_cast<int>(tag), selector});
}

std::uint64_t
NicamNetwork::offloadHits(NodeId dst, HwTag tag, Word selector) const
{
    auto it = tables_.find(dst);
    if (it == tables_.end())
        return 0;
    auto jt =
        it->second.find(TableKey{static_cast<int>(tag), selector});
    return jt == it->second.end() ? 0 : jt->second.hits;
}

int
NicamNetwork::offloadEntries(NodeId dst) const
{
    auto it = tables_.find(dst);
    return it == tables_.end() ? 0
                               : static_cast<int>(it->second.size());
}

bool
NicamNetwork::deliver(Slot slot)
{
    // NIC handler-table lookup (hardware match-action; uncharged).
    const Packet &pkt = parked(slot);
    auto nt = tables_.find(pkt.dst);
    const bool tabled = nt != tables_.end() && !nt->second.empty();
    if (tabled) {
        const TableKey key{static_cast<int>(pkt.tag),
                           hdr::fieldA(pkt.header)};
        auto entry = nt->second.find(key);
        if (entry != nt->second.end()) {
            // NIC CRC check: detection as on the NI, but the discard
            // happens before the handler fires, so the packet is lost
            // at the edge, never delivered.
            if (!pkt.checksumOk()) {
                ++offloadCrcDrops_;
                drop(slot);
                return true; // consumed and dropped, as the NI would
            }
            ++stats_.delivered;
            noteDelivered(pkt.dst);
            trace(TraceEvent::Deliver, pkt);
            ++offloadHits_;
            ++entry->second.hits;
            LineageHooks *lh = LineageHooks::current();
            if (lh)
                lh->handlerBegin(pkt.dst, pkt, sim_.now());
            // The handler may inject (a reply parks beside this
            // request); the pool never moves a parked packet, so pkt
            // stays valid until its slot is released.
            entry->second.fn(pkt);
            if (lh)
                lh->handlerEnd(pkt.dst, sim_.now());
            release(slot);
            return true;
        }
    }
    if (!presentToSink(slot))
        return false; // offered again later: not a miss yet
    if (tabled)
        ++offloadMisses_; // non-empty table, no match: host fallback
    return true;
}

} // namespace msgsim
