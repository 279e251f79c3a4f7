/**
 * @file
 * The instrumented execution model.
 *
 * Messaging-layer code is written against these primitives, so every
 * dynamic instruction of the modeled SPARC-like processor is both
 * *performed* (memory really changes) and *charged* (recorded in the
 * embedded Accounting under the scoped feature/row).  The primitives
 * follow the paper's cost hierarchy:
 *
 *  - regOps / callRet / branches:  register-class instructions;
 *  - loadWord/storeWord and the double variants:  memory class —
 *    note a SPARC ldd/std moves TWO words in ONE instruction, which
 *    is why a 4-word packet body costs 2 memory operations;
 *  - loadSpan/zeroSpan:  n memory-class instructions over one span,
 *    for a modeled table or buffer walk (charged exactly as n
 *    loadWord/storeWord calls would be, checked once);
 *  - device (NI) loads/stores are charged by the NetIface itself.
 */

#ifndef MSGSIM_MACHINE_PROCESSOR_HH
#define MSGSIM_MACHINE_PROCESSOR_HH

#include <cstdint>
#include <utility>

#include "core/accounting.hh"
#include "core/types.hh"
#include "machine/memory.hh"

namespace msgsim
{

/**
 * Charged-primitive processor bound to one node's memory.
 */
class Processor
{
  public:
    explicit Processor(Memory &mem) : mem_(mem) {}

    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;

    /** The charging context (features/rows are scoped on this). */
    Accounting &acct() { return acct_; }
    const Accounting &acct() const { return acct_; }

    /** The node memory this processor addresses. */
    Memory &mem() { return mem_; }

    /** Charge @p n register-class instructions (ALU, compare, move). */
    void
    regOps(std::uint64_t n = 1)
    {
        acct_.charge(OpClass::Reg, n);
    }

    /** Charge @p n branch instructions (register class). */
    void
    branches(std::uint64_t n = 1)
    {
        acct_.charge(OpClass::Reg, n);
    }

    /**
     * Charge procedure-linkage cost: call + return + register-window
     * management, @p n register-class instructions total.
     */
    void
    callRet(std::uint64_t n)
    {
        acct_.charge(OpClass::Reg, n);
    }

    /** Load one word (SPARC ld): one memory operation. */
    Word
    loadWord(Addr addr)
    {
        acct_.charge(OpClass::MemLoad);
        return mem_.read(addr);
    }

    /** Store one word (st): one memory operation. */
    void
    storeWord(Addr addr, Word value)
    {
        acct_.charge(OpClass::MemStore);
        mem_.write(addr, value);
    }

    /** Load two adjacent words (ldd): ONE memory operation. */
    std::pair<Word, Word>
    loadDouble(Addr addr)
    {
        acct_.charge(OpClass::MemLoad);
        return {mem_.read(addr), mem_.read(addr + 1)};
    }

    /** Store two adjacent words (std): ONE memory operation. */
    void
    storeDouble(Addr addr, Word w0, Word w1)
    {
        acct_.charge(OpClass::MemStore);
        mem_.write(addr, w0);
        mem_.write(addr + 1, w1);
    }

    /**
     * Charge @p n loads (ld) that all fall in [@p base, @p base +
     * @p span): a modeled walk over a table or buffer whose values
     * the host computes itself.  The span is bounds-checked once; with
     * @p n = 0 nothing is charged or checked.
     */
    void
    loadSpan(Addr base, std::size_t span, std::uint64_t n)
    {
        if (n == 0)
            return;
        acct_.charge(OpClass::MemLoad, n);
        mem_.check(base, span);
    }

    /**
     * Charge @p n stores (st) that zero [@p base, @p base + @p span),
     * and zero it.  With @p n = 0 nothing is charged or written.
     */
    void
    zeroSpan(Addr base, std::size_t span, std::uint64_t n)
    {
        if (n == 0)
            return;
        acct_.charge(OpClass::MemStore, n);
        mem_.fill(base, span, 0);
    }

  private:
    Memory &mem_;
    Accounting acct_;
};

} // namespace msgsim

#endif // MSGSIM_MACHINE_PROCESSOR_HH
