#include "wire/frame.hh"

namespace msgsim::wire
{

void
encodeFrame(const StreamHeader &header, const Bytes &payload,
            Bytes &out)
{
    Bytes body;
    body.reserve(StreamHeader::encodedSize(header.type) +
                 payload.size() + 4);
    Writer w(body);
    header.encode(w);
    w.bytes(payload.data(), payload.size());
    sealFrame(body, false, out);
}

void
sealFrame(Bytes &body, bool corruptCrc, Bytes &out)
{
    Writer w(body);
    w.u32(crc32(body.data(), body.size()) ^ (corruptCrc ? 0x1u : 0x0u));
    cobsEncode(body.data(), body.size(), out);
    out.push_back(0); // frame delimiter
}

void
FrameDecoder::push(const std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        feed(p[i]);
}

void
FrameDecoder::pushWords(const std::uint32_t *w, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        for (int k = 0; k < 32; k += 8)
            feed(static_cast<std::uint8_t>(w[i] >> k));
}

void
FrameDecoder::finishBlock()
{
    // The body is leased, not a member: the sink may feed this decoder
    // again before it returns, and its Frame views the body.
    ScratchPool<Bytes>::Lease body(bodies_);
    const bool cobsOk = cobsDecode(buf_.data(), buf_.size(), *body);
    buf_.clear();
    if (!cobsOk || body->size() < 8 + 4) {
        ++malformed_;
        return;
    }
    const std::size_t bodyLen = body->size() - 4;
    Reader tail(body->data() + bodyLen, 4);
    if (tail.u32() != crc32(body->data(), bodyLen)) {
        ++crcRejects_;
        return;
    }
    Frame f;
    Reader r(body->data(), bodyLen);
    if (!f.header.decode(r)) {
        ++malformed_;
        return;
    }
    f.payload = {body->data() + (bodyLen - r.remaining()), r.remaining()};
    ++frames_;
    if (sink_)
        sink_(f);
}

const char *
toString(PacketType t)
{
    switch (t) {
      case PacketType::Invalid:  return "invalid";
      case PacketType::Init:     return "init";
      case PacketType::Reply:    return "reply";
      case PacketType::Data:     return "data";
      case PacketType::Datagram: return "datagram";
      case PacketType::Ack:      return "ack";
      case PacketType::Reset:    return "reset";
      case PacketType::Attach:   return "attach";
      case PacketType::Detach:   return "detach";
      default:                   return "?";
    }
}

} // namespace msgsim::wire
