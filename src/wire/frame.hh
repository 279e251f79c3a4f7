/**
 * @file
 * Framing: header + payload -> CRC-protected, COBS-delimited wire
 * bytes, and the inverse incremental decoder.
 *
 * Packet layout, per the umsg exemplar (SNIPPETS.md §3):
 *
 *     COBS( header || payload || crc32 ) || 0x00
 *
 * The CRC covers the whole frame body (header included), so header
 * corruption is caught the same way payload corruption is.  The
 * decoder is a resynchronizing byte-stream consumer: feed it any
 * byte sequence and it splits at 0x00 delimiters, COBS-decodes and
 * CRC-checks each block, surfaces the good frames, counts the bad
 * ones, and never crashes or over-reads (fuzz-tested).  Empty
 * blocks (padding zeros between frames) are skipped silently.
 */

#ifndef MSGSIM_WIRE_FRAME_HH
#define MSGSIM_WIRE_FRAME_HH

#include <functional>
#include <span>

#include "sim/scratch.hh"
#include "wire/cobs.hh"
#include "wire/header.hh"

namespace msgsim::wire
{

/**
 * One decoded frame: its header and the raw payload bytes.  The
 * payload views the decoder's buffer, so a sink's Frame is valid
 * only during the call; copy what must outlive it.
 */
struct Frame
{
    StreamHeader header;
    std::span<const std::uint8_t> payload;
};

/** Append the encoded wire bytes of (@p header, payload) to @p out. */
void encodeFrame(const StreamHeader &header, const Bytes &payload,
                 Bytes &out);

/**
 * Finish a frame whose body (header || payload) is already marshalled
 * in @p body: append its CRC-32 to @p body, then append COBS(body) and
 * the delimiter to @p out.  @p corruptCrc flips the CRC's low bit (the
 * deterministic corruption knob): the COBS encoding stays well formed,
 * so a receiver reaches the CRC check and rejects there.
 */
void sealFrame(Bytes &body, bool corruptCrc, Bytes &out);

/**
 * Incremental frame decoder.  push() consumes arbitrary byte chunks;
 * complete frames invoke the sink, malformed ones bump a counter and
 * the decoder resynchronizes at the next delimiter.  The sink may
 * push more bytes into the same decoder before it returns.
 */
class FrameDecoder
{
  public:
    using FrameSink = std::function<void(const Frame &)>;

    explicit FrameDecoder(FrameSink sink) : sink_(std::move(sink)) {}

    /** Consume @p n wire bytes. */
    void push(const std::uint8_t *p, std::size_t n);

    void
    push(const Bytes &b)
    {
        push(b.data(), b.size());
    }

    /** Consume @p n words, each as 4 little-endian wire bytes. */
    void pushWords(const std::uint32_t *w, std::size_t n);

    /** Frames delivered to the sink. */
    std::uint64_t frames() const { return frames_; }

    /** Blocks rejected by the CRC check. */
    std::uint64_t crcRejects() const { return crcRejects_; }

    /** Blocks rejected before the CRC (COBS / header / length). */
    std::uint64_t malformed() const { return malformed_; }

    /** Bytes buffered awaiting a delimiter. */
    std::size_t pendingBytes() const { return buf_.size(); }

  private:
    void
    feed(std::uint8_t b)
    {
        if (b != 0)
            buf_.push_back(b);
        else if (!buf_.empty())
            finishBlock();
        // An empty block is inter-frame padding, skipped silently.
    }

    void finishBlock();

    FrameSink sink_;
    Bytes buf_; ///< current delimiter-free block
    ScratchPool<Bytes> bodies_; ///< decoded bodies, one per live sink
    std::uint64_t frames_ = 0;
    std::uint64_t crcRejects_ = 0;
    std::uint64_t malformed_ = 0;
};

} // namespace msgsim::wire

#endif // MSGSIM_WIRE_FRAME_HH
