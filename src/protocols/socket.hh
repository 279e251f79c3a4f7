/**
 * @file
 * The user-facing stream API — the paper's §3.2 framing of the
 * indefinite-sequence protocol: "static channels between a pair of
 * user processes (sockets) ... characterized by an indefinite amount
 * of communication through the channels."
 *
 * A StreamSocket is a long-lived, one-direction channel.  The
 * application writes bursts whenever it likes; the socket runs the
 * full indefinite-sequence machinery underneath (sequence numbers,
 * reorder buffer, source retransmission ring, acks) and delivers
 * in-order data to the receiver's callback.  Writes block (drive the
 * progress loop) when the retransmission ring is full — end-to-end
 * flow control in software, exactly the service the paper prices.
 */

#ifndef MSGSIM_PROTOCOLS_SOCKET_HH
#define MSGSIM_PROTOCOLS_SOCKET_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "protocols/stream.hh"

namespace msgsim
{

/**
 * A persistent ordered word stream between two nodes.
 */
class StreamSocket
{
  public:
    /** In-order delivery callback (runs on the receiving node). */
    using OnData =
        std::function<void(const std::vector<Word> &words)>;

    struct Options
    {
        int groupAck = 1;            ///< ack every G packets
        std::uint32_t ringPackets = 64; ///< retransmission-ring depth
    };

    /**
     * Open a channel from @p src to @p dst on @p proto's stack.
     * The socket borrows the protocol's sinks; any number of
     * sockets can coexist on one StreamProtocol.
     */
    StreamSocket(StreamProtocol &proto, NodeId src, NodeId dst,
                 OnData onData)
        : StreamSocket(proto, src, dst, std::move(onData), Options())
    {
    }

    StreamSocket(StreamProtocol &proto, NodeId src, NodeId dst,
                 OnData onData, const Options &opts);

    ~StreamSocket();

    StreamSocket(const StreamSocket &) = delete;
    StreamSocket &operator=(const StreamSocket &) = delete;

    /**
     * Write @p words (a multiple of the packet size) into the
     * stream.  Transmits immediately; blocks on the progress loop
     * when the retransmission ring is full (software end-to-end
     * flow control).
     */
    void write(const std::vector<Word> &words);

    /** Drive the machine until everything written is delivered
     *  in order AND acknowledged. */
    void flush();

    /**
     * Graceful teardown, phase 1: flush any partial group ack, then
     * drive the machine until the retransmission ring is empty — every
     * written packet delivered in order and its final ack consumed.
     * Idempotent; a no-op once the socket is closed.
     */
    void drain();

    /**
     * Graceful teardown, phase 2: drain, then retire the channel and
     * return its modeled resources.  Safe to call with packets still
     * in flight (they are drained first), safe to call twice.  The
     * destructor closes automatically when the user did not.
     */
    void close();

    /**
     * Abortive teardown: retire the channel at once without driving
     * the machine, so what it still holds in flight is lost.  For a
     * run whose network cannot make progress (a model-checker
     * schedule cut short).  A no-op once the socket is closed.
     */
    void abort();

    /** True until close() completes. */
    bool isOpen() const { return open_; }

    /** The underlying protocol channel id (for instrumentation). */
    Word channel() const { return chan_; }

    /** Packets written so far. */
    std::uint64_t packetsWritten() const { return packetsWritten_; }

    /** Packets currently unacknowledged. */
    std::uint64_t unacked() const;

    /** Out-of-order arrivals absorbed by the reorder buffer. */
    std::uint64_t oooArrivals() const;

  private:
    StreamProtocol &proto_;
    NodeId src_ = invalidNode;
    Word chan_ = 0;
    bool open_ = false;
    std::uint64_t packetsWritten_ = 0;
};

} // namespace msgsim

#endif // MSGSIM_PROTOCOLS_SOCKET_HH
