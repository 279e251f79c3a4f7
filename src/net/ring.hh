/**
 * @file
 * A growable FIFO ring for packet and frame queues.
 *
 * std::deque allocates on construction and frees and re-allocates a
 * chunk every few elements as a queue slides forward.  A Ring grows
 * (doubling) to its high-water mark and never shrinks, so a queue in
 * steady state neither allocates nor frees, and an unused one holds no
 * heap at all.
 */

#ifndef MSGSIM_NET_RING_HH
#define MSGSIM_NET_RING_HH

#include <cstddef>
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

    void
    push_back(T &&value)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
        ++size_;
    }

    /** Remove the front value (resetting its slot, so it holds nothing). */
    void
    pop_front()
    {
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

#endif // MSGSIM_NET_RING_HH
