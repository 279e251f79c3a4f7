/**
 * @file
 * Canonical little-endian marshalling over byte buffers, after the
 * umsg exemplar (SNIPPETS.md §3): a Writer appends fixed-width
 * fields to a growable byte vector, a Reader consumes them with
 * explicit bounds checking — it can never over-read, it only goes
 * bad (ok() == false) and keeps returning zeros.
 *
 * These are *host-side* codecs: they build and parse the real bytes
 * that travel the modeled wire.  The modeled instruction cost of
 * doing so is charged separately (StreamMux::chargeTxFrame,
 * chargeRxChunk and chargeRxFrame in wire/mux.cc) so the byte logic
 * stays testable in isolation (the fuzz round-trip test).
 */

#ifndef MSGSIM_WIRE_MARSHAL_HH
#define MSGSIM_WIRE_MARSHAL_HH

#include <cstdint>
#include <vector>

namespace msgsim::wire
{

using Bytes = std::vector<std::uint8_t>;

/** Append-only little-endian field writer. */
class Writer
{
  public:
    explicit Writer(Bytes &out) : out_(out) {}

    void
    u8(std::uint8_t v)
    {
        out_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        out_.push_back(static_cast<std::uint8_t>(v));
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        out_.push_back(static_cast<std::uint8_t>(v));
        out_.push_back(static_cast<std::uint8_t>(v >> 8));
        out_.push_back(static_cast<std::uint8_t>(v >> 16));
        out_.push_back(static_cast<std::uint8_t>(v >> 24));
    }

    void
    bytes(const std::uint8_t *p, std::size_t n)
    {
        out_.insert(out_.end(), p, p + n);
    }

    std::size_t size() const { return out_.size(); }

  private:
    Bytes &out_;
};

/** Bounds-checked little-endian field reader. */
class Reader
{
  public:
    Reader(const std::uint8_t *p, std::size_t n) : p_(p), n_(n) {}
    explicit Reader(const Bytes &b) : Reader(b.data(), b.size()) {}

    /** False once any read ran past the end; reads then yield 0. */
    bool ok() const { return ok_; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return n_ - at_; }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return p_[at_++];
    }

    std::uint16_t
    u16()
    {
        if (!take(2))
            return 0;
        const std::uint16_t v = static_cast<std::uint16_t>(
            p_[at_] | (static_cast<std::uint16_t>(p_[at_ + 1]) << 8));
        at_ += 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        const std::uint32_t v =
            static_cast<std::uint32_t>(p_[at_]) |
            (static_cast<std::uint32_t>(p_[at_ + 1]) << 8) |
            (static_cast<std::uint32_t>(p_[at_ + 2]) << 16) |
            (static_cast<std::uint32_t>(p_[at_ + 3]) << 24);
        at_ += 4;
        return v;
    }

    /** Consume @p n bytes into @p out; false (and bad) when short. */
    bool
    bytes(Bytes &out, std::size_t n)
    {
        if (!take(n))
            return false;
        out.assign(p_ + at_, p_ + at_ + n);
        at_ += n;
        return true;
    }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || n_ - at_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *p_;
    std::size_t n_;
    std::size_t at_ = 0;
    bool ok_ = true;
};

} // namespace msgsim::wire

#endif // MSGSIM_WIRE_MARSHAL_HH
