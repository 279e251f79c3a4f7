/**
 * @file
 * Node-local memory.
 *
 * A flat, word-addressed store with bounds checking and a bump
 * allocator for carving out message buffers, segments, and protocol
 * state.  Accesses are *not* charged here — charging is the
 * Processor's job — so hardware agents (e.g. a DMA model) could touch
 * memory without perturbing instruction counts.  Besides single-word
 * read/write it checks and fills whole spans, which the Processor's
 * loadSpan/zeroSpan use to model a table or buffer walk in one step.
 */

#ifndef MSGSIM_MACHINE_MEMORY_HH
#define MSGSIM_MACHINE_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.hh"
#include "sim/log.hh"

namespace msgsim
{

/**
 * Flat word-addressed node memory with a bump allocator.
 *
 * Backing storage is demand-paged: pages materialize (zero-filled)
 * on first write, and reads of untouched words return 0 — exactly
 * the semantics of an eagerly-zeroed array, but a node with a large
 * address space does not cost its full capacity in host memory and
 * page-zeroing time.  That matters to the lab's parallel sweeps,
 * where many stacks are built per second.
 *
 * read() and write() inline into the Processor's charged primitives:
 * one bounds compare and one indexed page load each.  Materializing a
 * page and reporting a bad address are out of line and cold.
 */
class Memory
{
  public:
    /** Words per demand-materialized page (64 KB). */
    static constexpr std::size_t pageWords = 1u << 14;

    /** @param words capacity in 32-bit words. */
    explicit Memory(std::size_t words = 1u << 20)
        : size_(words), pages_((words + pageWords - 1) / pageWords)
    {
    }

    /** Capacity in words. */
    std::size_t size() const { return size_; }

    /** Read one word. */
    Word
    read(Addr addr) const
    {
        check(addr, 1);
        const Word *page = pages_[addr / pageWords].get();
        return page ? page[addr % pageWords] : 0;
    }

    /** Write one word. */
    void
    write(Addr addr, Word value)
    {
        check(addr, 1);
        Word *page = pages_[addr / pageWords].get();
        if (!page) [[unlikely]]
            page = materialize(addr / pageWords);
        page[addr % pageWords] = value;
    }

    /** Write @p value over the @p span words from @p base. */
    void
    fill(Addr base, std::size_t span, Word value)
    {
        check(base, span);
        for (std::size_t at = base, end = base + span; at < end;) {
            Word *page = pages_[at / pageWords].get();
            if (!page)
                page = materialize(at / pageWords);
            const std::size_t off = at % pageWords;
            const std::size_t len = std::min(end - at, pageWords - off);
            std::fill_n(page + off, len, value);
            at += len;
        }
    }

    /**
     * Panic unless every word of [@p base, @p base + @p span) is in
     * range, naming the first one that is not (as a word-by-word walk
     * from @p base would).  An empty span checks nothing.
     */
    void
    check(Addr base, std::size_t span) const
    {
        if (span != 0 && base + span > size_) [[unlikely]]
            outOfBounds(std::max<std::size_t>(base, size_));
    }

    /**
     * Allocate @p words contiguous words; returns the base address.
     * This models static buffer carving, not the protocol-level
     * segment allocation the paper accounts for.
     */
    Addr
    alloc(std::size_t words)
    {
        if (brk_ + words > size_)
            msgsim_fatal("node memory exhausted: want ", words,
                         " words at brk ", brk_, " of ", size_);
        const Addr base = static_cast<Addr>(brk_);
        brk_ += words;
        return base;
    }

    /** Words currently allocated. */
    std::size_t allocated() const { return brk_; }

  private:
    [[gnu::cold, gnu::noinline]] Word *
    materialize(std::size_t page)
    {
        pages_[page] = std::make_unique<Word[]>(pageWords); // zeroed
        return pages_[page].get();
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    outOfBounds(std::size_t addr) const
    {
        msgsim_panic("memory access out of bounds: ", addr, " >= ",
                     size_);
    }

    std::size_t size_;
    std::vector<std::unique_ptr<Word[]>> pages_;
    std::size_t brk_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_MACHINE_MEMORY_HH
