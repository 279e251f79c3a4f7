#include "protocols/socket.hh"

#include "hostprof/hostprof.hh"
#include "sim/trace_session.hh"

namespace msgsim
{

StreamSocket::StreamSocket(StreamProtocol &proto, NodeId src,
                           NodeId dst, OnData onData,
                           const Options &opts)
    : proto_(proto), src_(src)
{
    chan_ = proto_.openPersistent(
        src, dst, opts.groupAck, opts.ringPackets,
        [cb = std::move(onData)](std::uint32_t,
                                 const std::vector<Word> &words) {
            if (cb)
                cb(words);
        });
    open_ = true;
}

StreamSocket::~StreamSocket()
{
    close();
}

void
StreamSocket::drain()
{
    if (!open_)
        return;
    ScopedSpan span(src_, "socket", "drain");
    hostprof::HostScope hps(hostprof::Site::ProtoSocket);
    // A partial ack group would leave the tail of the ring
    // unacknowledged forever; flush it before waiting.  With nothing
    // unacknowledged no ack is needed, and one sent would be left in
    // flight.
    if (proto_.channelUnacked(chan_) > 0)
        proto_.flushGroupAcks(chan_);
    proto_.flushChannel(chan_);
}

void
StreamSocket::close()
{
    if (!open_)
        return;
    drain();
    ScopedSpan span(src_, "socket", "close");
    hostprof::HostScope hps(hostprof::Site::ProtoSocket);
    proto_.closePersistent(chan_);
    open_ = false;
}

void
StreamSocket::abort()
{
    if (!open_)
        return;
    proto_.closeChannel(chan_);
    open_ = false;
}

void
StreamSocket::write(const std::vector<Word> &words)
{
    ScopedSpan span(src_, "socket", "write");
    hostprof::HostScope hps(hostprof::Site::ProtoSocket);
    proto_.sendOn(chan_, words);
}

void
StreamSocket::flush()
{
    ScopedSpan span(src_, "socket", "flush");
    hostprof::HostScope hps(hostprof::Site::ProtoSocket);
    proto_.flushChannel(chan_);
}

std::uint64_t
StreamSocket::unacked() const
{
    return open_ ? proto_.channelUnacked(chan_) : 0;
}

std::uint64_t
StreamSocket::oooArrivals() const
{
    return open_ ? proto_.channelOoo(chan_) : 0;
}

} // namespace msgsim
