/**
 * @file
 * Communication segments (the CMAM xfer receive-side abstraction).
 *
 * A segment associates a small integer id — carried in every data
 * packet's header — with a destination buffer and a countdown of
 * expected packets.  The finite-sequence protocol preallocates a
 * segment during its buffer-management handshake (paper Figure 3,
 * steps 1-3) and frees it at completion (step 5).
 *
 * Allocation and deallocation charge the instruction counts implied
 * by the paper's Table 3 (destination buffer-management = one packet
 * receive + alloc + one packet send + free):
 *
 *     alloc: 25 reg + 8 mem        free: 18 reg + 3 mem
 *
 * On a fabric that accepts only what the table can hold (CR, paper
 * Section 4) there is no handshake: the transfer's header packet binds
 * a record (9 reg + 4 mem) and completion releases it uncharged.
 *
 * The table itself lives in modeled node memory (free list plus
 * 4-word records), and the charged loads/stores really touch it.
 * The free-list head is modeled as register-cached across calls, so
 * some bookkeeping reads use uncharged backing-store access — each
 * such site is commented.
 */

#ifndef MSGSIM_CMAM_SEGMENT_HH
#define MSGSIM_CMAM_SEGMENT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/types.hh"
#include "machine/processor.hh"

namespace msgsim
{

/** Sentinel id meaning "no segment". */
constexpr Word invalidSegment = 0xffu;

/**
 * The per-node table of communication segments.
 */
class SegmentTable
{
  public:
    /** Invoked (not charged here) when a segment's count reaches 0. */
    using CompletionFn = std::function<void(Word segId)>;

    /**
     * Carve the table out of @p mem and build the free list.
     * Initialization models boot-time setup and is not charged.
     */
    SegmentTable(Memory &mem, int maxSegments = 64);

    int maxSegments() const { return maxSegments_; }

    /** Segments currently allocated. */
    int allocatedCount() const { return allocated_; }

    /** True when @p segId names a live segment (uncharged). */
    bool isActive(Word segId) const;

    /** True when at least one segment is free (uncharged; the CR
     *  NI's hardware acceptance check). */
    bool hasFree() const { return allocated_ < maxSegments_; }

    /**
     * Allocate a segment for @p expectedPackets packets landing at
     * @p bufBase.  Returns the segment id, or invalidSegment when
     * the table is full.  Charges 25 reg + 8 mem.
     */
    Word alloc(Processor &proc, Addr bufBase, Word expectedPackets);

    /**
     * The header-packet bind: take a segment for @p expectedPackets
     * packets landing at @p bufBase, its aux field holding @p aux (the
     * transfer id).  Charges 9 reg + 4 mem, the record's four stores;
     * the free list is register-cached here.  Returns invalidSegment
     * when the table is full.
     */
    Word bind(Processor &proc, Addr bufBase, Word expectedPackets,
              Word aux);

    /** Free a segment.  Charges 18 reg + 3 mem. */
    void free(Processor &proc, Word segId);

    /** Free a bound segment at completion (uncharged). */
    void release(Word segId);

    /**
     * Account one arrived data packet: decrement the remaining count
     * (1 reg, per the paper's in-order accounting — the count is
     * modeled register-cached) and report whether the transfer is
     * complete.
     */
    bool packetArrived(Processor &proc, Word segId);

    /**
     * Charge the completion-path reload of a segment record's three
     * live fields (buffer base, count, aux): 3 mem loads.
     */
    void reloadRecord(Processor &proc, Word segId) const;

    /** Buffer base of an active segment (uncharged helper). */
    Addr bufBase(Word segId) const;

    /**
     * The running write pointer of an in-order fabric: the segment's
     * buffer field, returned and then advanced by @p words (uncharged:
     * register-resident, like the remaining count).
     */
    Addr advance(Word segId, Word words);

    /** Remaining packet count of an active segment (uncharged). */
    Word remaining(Word segId) const;

    /** Set the completion callback (driver-level, uncharged). */
    void setCompletion(Word segId, CompletionFn fn);

    /** Take (and clear) the completion callback of a segment. */
    CompletionFn takeCompletion(Word segId);

  private:
    // Record layout: +0 bufBase, +1 remaining, +2 flags, +3 aux.
    static constexpr Addr recordWords = 4;

    Addr recordAddr(Word segId) const;
    void checkActive(Word segId, const char *what) const;
    /** The three (address, value) stores that free @p segId. */
    std::array<std::pair<Addr, Word>, 3> freeStores(Word segId) const;
    /** Bookkeeping after @p segId's free stores. */
    void retire(Word segId);

    Memory &mem_;
    int maxSegments_;
    int allocated_ = 0;

    Addr freeHeadAddr_; ///< memory word holding the free-list head
    Addr allocCountAddr_ = 0; ///< memory word holding the live count
    Word freeTail_ = 0; ///< free-list tail (modeled register-cached)
    Addr freeListBase_; ///< maxSegments words of next-links
    Addr recordsBase_;  ///< maxSegments * recordWords of records

    std::vector<CompletionFn> completions_;
};

} // namespace msgsim

#endif // MSGSIM_CMAM_SEGMENT_HH
