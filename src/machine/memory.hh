/**
 * @file
 * Node-local memory.
 *
 * A word-addressed store with bounds checking and a bump allocator
 * for carving out message buffers, segments, and protocol state.
 * Accesses are *not* charged here — charging is the Processor's job —
 * so hardware agents (e.g. a DMA model) could touch memory without
 * perturbing instruction counts.  Besides single-word read/write it
 * checks and fills whole spans, which the Processor's
 * loadSpan/zeroSpan use to model a table or buffer walk in one step.
 *
 * Host memory backs only a prefix of the address space that covers
 * every word written so far, so a node costs the host what it uses,
 * not its capacity.
 */

#ifndef MSGSIM_MACHINE_MEMORY_HH
#define MSGSIM_MACHINE_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "core/types.hh"
#include "sim/log.hh"

namespace msgsim
{

/**
 * Word-addressed node memory with a bump allocator.
 *
 * Backing storage is one zero-filled block covering the prefix
 * [0, backed) of the address space.  A write at or past `backed`
 * grows the block (at least doubling it, capped at the capacity),
 * and a read past it returns 0 — exactly the semantics of an eagerly
 * zeroed array of size() words, but the constructor allocates
 * nothing, and a node with a capacity of millions of words that
 * writes a few hundred pays for a few hundred.  That matters to the
 * lab's parallel sweeps and to perfbench, where many stacks are built
 * per second.
 *
 * read() and write() inline into the Processor's charged primitives:
 * one compare against the backed word count and one indexed load or
 * store.  Growing the block and reporting a bad address are out of
 * line and cold.  fill() is out of line too, so its zero case stays a
 * memset call (an inlined, bounded zero fill compiles to `rep stosq`,
 * several times slower for the few dozen words a span covers).
 *
 * Growth may move the block.  That is safe because nothing outside
 * this class holds a pointer into it: node memory is reached only
 * through read/write/fill/check, by address.
 */
class Memory
{
  public:
    /** @param words capacity in 32-bit words. */
    explicit Memory(std::size_t words = 1u << 20) : size_(words) {}

    /** Capacity in words. */
    std::size_t size() const { return size_; }

    /** Read one word. */
    Word
    read(Addr addr) const
    {
        if (addr < backed_) [[likely]]
            return data_[addr];
        return readUnbacked(addr);
    }

    /** Write one word. */
    void
    write(Addr addr, Word value)
    {
        if (addr >= backed_) [[unlikely]]
            backTo(addr, 1);
        data_[addr] = value;
    }

    /** Write @p value over the @p span words from @p base. */
    [[gnu::noinline]] void
    fill(Addr base, std::size_t span, Word value)
    {
        if (span == 0)
            return;
        if (base + span > backed_)
            backTo(base, span);
        Word *at = data_.get() + base;
        if (value == 0)
            std::memset(at, 0, span * sizeof(Word));
        else
            std::fill_n(at, span, value);
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
    /** A read past the backed prefix: in range, it was never written. */
    [[gnu::cold, gnu::noinline]] Word
    readUnbacked(Addr addr) const
    {
        check(addr, 1);
        return 0;
    }

    /**
     * Check [@p base, @p base + @p span), then grow the block to back
     * it: to at least twice its size and 256 words, at most size().
     */
    [[gnu::cold, gnu::noinline]] void
    backTo(Addr base, std::size_t span)
    {
        check(base, span);
        const std::size_t words =
            std::min(std::max({base + span, 2 * backed_,
                               std::size_t{256}}),
                     size_);
        auto grown = std::make_unique_for_overwrite<Word[]>(words);
        std::copy_n(data_.get(), backed_, grown.get());
        std::fill_n(grown.get() + backed_, words - backed_, Word{0});
        data_ = std::move(grown);
        backed_ = words;
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    outOfBounds(std::size_t addr) const
    {
        msgsim_panic("memory access out of bounds: ", addr, " >= ",
                     size_);
    }

    std::size_t size_;
    std::size_t backed_ = 0; ///< words of data_, a prefix of size_
    std::unique_ptr<Word[]> data_;
    std::size_t brk_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_MACHINE_MEMORY_HH
