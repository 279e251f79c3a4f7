#include "cmam/segment.hh"

#include "sim/log.hh"

namespace msgsim
{

namespace
{
constexpr Word flagActive = 1u;
constexpr Word nilLink = ~Word(0);
} // namespace

SegmentTable::SegmentTable(Memory &mem, int maxSegments)
    : mem_(mem), maxSegments_(maxSegments),
      completions_(static_cast<std::size_t>(maxSegments))
{
    if (maxSegments_ < 1 ||
        maxSegments_ > static_cast<int>(invalidSegment))
        msgsim_fatal("segment table size must be in [1, ",
                     invalidSegment - 1, "], got ", maxSegments_);

    // Boot-time carving and free-list threading: uncharged.
    freeHeadAddr_ = mem_.alloc(1);
    allocCountAddr_ = mem_.alloc(1);
    freeListBase_ = mem_.alloc(static_cast<std::size_t>(maxSegments_));
    recordsBase_ =
        mem_.alloc(static_cast<std::size_t>(maxSegments_) * recordWords);

    mem_.write(freeHeadAddr_, 0);
    for (int i = 0; i < maxSegments_; ++i) {
        const Word next =
            (i + 1 < maxSegments_) ? static_cast<Word>(i + 1) : nilLink;
        mem_.write(freeListBase_ + static_cast<Addr>(i), next);
    }
    freeTail_ = static_cast<Word>(maxSegments_ - 1);
}

Addr
SegmentTable::recordAddr(Word segId) const
{
    return recordsBase_ + static_cast<Addr>(segId) * recordWords;
}

void
SegmentTable::checkActive(Word segId, const char *what) const
{
    if (segId >= static_cast<Word>(maxSegments_))
        msgsim_panic("segment ", what, ": bad id ", segId);
    if (!(mem_.read(recordAddr(segId) + 2) & flagActive))
        msgsim_panic("segment ", what, ": segment ", segId,
                     " not active");
}

Word
SegmentTable::alloc(Processor &proc, Addr bufBase, Word expectedPackets)
{
    // Modeled assembly (25 reg + 8 mem): locate the free-list head,
    // unlink the record, initialize its four fields, and bump the
    // allocation count.
    proc.regOps(4);                              // entry, head address
    const Word head = proc.loadWord(freeHeadAddr_);        // mem 1
    proc.regOps(3);                              // nil test + branch
    if (head == nilLink) {
        // Table full; caller must back off.  The failure path is not
        // part of the calibrated minimum path.
        return invalidSegment;
    }
    const Word next =
        proc.loadWord(freeListBase_ + static_cast<Addr>(head)); // mem 2
    proc.storeWord(freeHeadAddr_, next);                        // mem 3
    if (next == nilLink)
        freeTail_ = nilLink;
    proc.regOps(6);                              // record addr, packing
    const Addr rec = recordAddr(head);
    proc.storeWord(rec + 0, bufBase);                           // mem 4
    proc.storeWord(rec + 1, expectedPackets);                   // mem 5
    proc.storeWord(rec + 2, flagActive);                        // mem 6
    proc.storeWord(rec + 3, 0);                                 // mem 7
    // Allocation count kept register-cached in the modeled assembly;
    // only the store is charged.
    proc.storeWord(allocCountAddr_, static_cast<Word>(allocated_ + 1)); // 8
    proc.regOps(12);                             // id pack, bounds, ret val
    ++allocated_;
    return head;
}

Word
SegmentTable::bind(Processor &proc, Addr bufBase, Word expectedPackets,
                   Word aux)
{
    // Modeled assembly (9 reg + 4 mem): the free-list head is
    // register-cached, so the unlink is uncharged; the four record
    // stores are the whole bill.
    proc.regOps(5);                              // record index, size
    const Word head = mem_.read(freeHeadAddr_);
    if (head == nilLink)
        return invalidSegment;
    const Word next = mem_.read(freeListBase_ + static_cast<Addr>(head));
    mem_.write(freeHeadAddr_, next);
    if (next == nilLink)
        freeTail_ = nilLink;
    const Addr rec = recordAddr(head);
    proc.storeWord(rec + 0, bufBase);                           // mem 1
    proc.storeWord(rec + 1, expectedPackets);                   // mem 2
    proc.storeWord(rec + 2, flagActive);                        // mem 3
    proc.storeWord(rec + 3, aux);                               // mem 4
    proc.regOps(4);                              // flag packing, branch
    ++allocated_;
    return head;
}

std::array<std::pair<Addr, Word>, 3>
SegmentTable::freeStores(Word segId) const
{
    // Append the record to the free list (FIFO reuse maximizes the
    // id-reuse distance so stale in-flight packets cannot alias a
    // fresh allocation) and clear the active flag.
    const Addr tailLink =
        freeTail_ == nilLink
            ? freeHeadAddr_
            : freeListBase_ + static_cast<Addr>(freeTail_);
    return {{{freeListBase_ + static_cast<Addr>(segId), nilLink},
             {tailLink, segId},
             {recordAddr(segId) + 2, 0}}};
}

void
SegmentTable::retire(Word segId)
{
    freeTail_ = segId;
    completions_[segId] = nullptr;
    --allocated_;
}

void
SegmentTable::free(Processor &proc, Word segId)
{
    checkActive(segId, "free");
    // Modeled assembly (18 reg + 3 mem).  The tail pointer is
    // register-cached, so only the three stores are charged.
    proc.regOps(10);                             // id unpack, addresses
    for (const auto &[addr, value] : freeStores(segId))
        proc.storeWord(addr, value);
    proc.regOps(8);                              // flag masking, return
    retire(segId);
}

void
SegmentTable::release(Word segId)
{
    checkActive(segId, "release");
    for (const auto &[addr, value] : freeStores(segId))
        mem_.write(addr, value);
    retire(segId);
}

bool
SegmentTable::packetArrived(Processor &proc, Word segId)
{
    checkActive(segId, "packet update");
    // The paper accounts the per-packet count decrement as a single
    // register operation (the count is modeled register-cached); the
    // backing store is updated without further charge.
    proc.regOps(1);
    const Addr addr = recordAddr(segId) + 1;
    const Word remaining = mem_.read(addr);
    if (remaining == 0)
        msgsim_panic("segment ", segId, " received more packets than "
                     "expected");
    mem_.write(addr, remaining - 1);
    return remaining - 1 == 0;
}

bool
SegmentTable::isActive(Word segId) const
{
    if (segId >= static_cast<Word>(maxSegments_))
        return false;
    return (mem_.read(recordAddr(segId) + 2) & flagActive) != 0;
}

void
SegmentTable::reloadRecord(Processor &proc, Word segId) const
{
    checkActive(segId, "reloadRecord");
    const Addr rec = recordAddr(segId);
    (void)proc.loadWord(rec + 0);
    (void)proc.loadWord(rec + 1);
    (void)proc.loadWord(rec + 3);
}

Addr
SegmentTable::bufBase(Word segId) const
{
    checkActive(segId, "bufBase");
    return mem_.read(recordAddr(segId) + 0);
}

Addr
SegmentTable::advance(Word segId, Word words)
{
    checkActive(segId, "advance");
    const Addr addr = recordAddr(segId) + 0;
    const Addr at = mem_.read(addr);
    mem_.write(addr, at + words);
    return at;
}

Word
SegmentTable::remaining(Word segId) const
{
    checkActive(segId, "remaining");
    return mem_.read(recordAddr(segId) + 1);
}

void
SegmentTable::setCompletion(Word segId, CompletionFn fn)
{
    checkActive(segId, "setCompletion");
    completions_[segId] = std::move(fn);
}

SegmentTable::CompletionFn
SegmentTable::takeCompletion(Word segId)
{
    checkActive(segId, "takeCompletion");
    auto fn = std::move(completions_[segId]);
    completions_[segId] = nullptr;
    return fn;
}

} // namespace msgsim
