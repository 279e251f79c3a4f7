/**
 * @file
 * Reusable scratch buffers for re-entrant code.
 *
 * A call that may re-enter itself before it returns (a send that
 * blocks and polls, a delivery that transmits) cannot keep its
 * temporaries in one member buffer: the nested call would overwrite
 * what the outer one is still reading.  A ScratchPool lends each live
 * call its own buffer and takes it back, cleared but with its capacity,
 * when the Lease ends.  The pool grows to the deepest nesting seen and
 * never shrinks, so in steady state leasing allocates nothing at any
 * depth.
 */

#ifndef MSGSIM_SIM_SCRATCH_HH
#define MSGSIM_SIM_SCRATCH_HH

#include <cstddef>
#include <memory>
#include <vector>

namespace msgsim
{

/** Buffers of a clear()-able type T, lent one per live call. */
template <typename T>
class ScratchPool
{
  public:
    /**
     * One borrowed buffer, empty on arrival; returned when destroyed.
     * Leases are scoped, so they end in the reverse order they began:
     * the pool lends its buffers as a stack, one per nesting depth.
     */
    class Lease
    {
      public:
        explicit Lease(ScratchPool &pool) : pool_(pool), buf_(pool.take())
        {
        }

        ~Lease()
        {
            buf_.clear();
            --pool_.lent_;
        }

        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        T &operator*() { return buf_; }
        T *operator->() { return &buf_; }

      private:
        ScratchPool &pool_;
        T &buf_;
    };

  private:
    /** The buffer of the next nesting depth. */
    T &
    take()
    {
        const std::size_t depth = lent_++;
        return depth == 0 ? outer_ : nested(depth);
    }

    /** The buffer of nesting depth @p depth >= 1, made on first use. */
    T &
    nested(std::size_t depth)
    {
        if (depth > nested_.size())
            nested_.push_back(std::make_unique<T>());
        return *nested_[depth - 1];
    }

    T outer_; ///< depth 0: most leases never nest
    /// Depths 1 and up, heap-held so that growing the list never moves
    /// a buffer a shallower call is still using.
    std::vector<std::unique_ptr<T>> nested_;
    std::size_t lent_ = 0; ///< buffers currently lent out
};

} // namespace msgsim

#endif // MSGSIM_SIM_SCRATCH_HH
