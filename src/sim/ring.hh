/**
 * @file
 * A growable FIFO ring: the packet and frame queues, and the bounded
 * logs of the observers.
 *
 * std::deque allocates on construction and frees and re-allocates a
 * chunk every few elements as a queue slides forward.  A Ring grows
 * (doubling) to its high-water mark and never shrinks, so a queue in
 * steady state neither allocates nor frees, and an unused one holds no
 * heap at all.  A bounded log (TraceSession, PacketTracer, a
 * TeleSession track) pops its oldest record before it pushes at
 * capacity.
 */

#ifndef MSGSIM_SIM_RING_HH
#define MSGSIM_SIM_RING_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace msgsim
{

/** FIFO of default-constructible, movable values. */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }

    /** The @p i-th value from the front. */
    T &
    operator[](std::size_t i)
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    const T &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    void push_back(const T &value) { push_back(T(value)); }

    void push_back(T &&value) { claim_back() = std::move(value); }

    /**
     * Append a slot and return it as it is: default-constructed, or
     * holding whatever trivially destructible value was last popped
     * from it.  The caller writes what it will read, and a large
     * value is not reset only to be overwritten.
     */
    T &
    claim_back()
    {
        if (size_ == slots_.size())
            grow();
        ++size_;
        return back();
    }

    /**
     * Remove the front value.  A slot of a type with a destructor is
     * reset, so it holds nothing (a popped shared_ptr is released); a
     * trivially destructible one is left for claim_back() to reuse.
     */
    void
    pop_front()
    {
        if constexpr (!std::is_trivially_destructible_v<T>)
            slots_[head_] = T();
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
    }

    /** Remove every value, keeping the capacity. */
    void
    clear()
    {
        while (!empty())
            pop_front();
    }

  private:
    /** Double the capacity (a power of two), keeping FIFO order. */
    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? 4 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_SIM_RING_HH
