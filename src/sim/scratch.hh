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

#include <utility>
#include <vector>

namespace msgsim
{

/** Buffers of a clear()-able, movable type T, lent one per live call. */
template <typename T>
class ScratchPool
{
  public:
    /** One borrowed buffer, empty on arrival; returned when destroyed. */
    class Lease
    {
      public:
        explicit Lease(ScratchPool &pool) : pool_(pool)
        {
            if (!pool_.free_.empty()) {
                buf_ = std::move(pool_.free_.back());
                pool_.free_.pop_back();
            }
        }

        ~Lease()
        {
            buf_.clear();
            pool_.free_.push_back(std::move(buf_));
        }

        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        T &operator*() { return buf_; }
        T *operator->() { return &buf_; }

      private:
        ScratchPool &pool_;
        T buf_;
    };

  private:
    std::vector<T> free_; ///< buffers no live call holds
};

} // namespace msgsim

#endif // MSGSIM_SIM_SCRATCH_HH
