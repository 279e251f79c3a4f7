#include "wire/wire_run.hh"

#include <map>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace msgsim::wire
{

namespace
{

/** The payload words of frame @p frame on stream @p sid, in order. */
class FrameFill
{
  public:
    FrameFill(std::uint64_t fillSeed, std::uint16_t sid,
              std::uint32_t frame)
        : sm_(fillSeed ^ (static_cast<std::uint64_t>(sid) << 32) ^ frame)
    {
    }

    Word next() { return static_cast<Word>(splitMix64(sm_)); }

  private:
    std::uint64_t sm_;
};

} // namespace

std::size_t
frameWireBytes(std::uint32_t payloadWords)
{
    // body = header(12) + payload + crc(4); wire = COBS + delimiter.
    const std::size_t body = 12 + 4 * payloadWords + 4;
    return cobsMaxEncoded(body) + 1;
}

WireRunResult
runWireWorkload(Stack &stack, const WireWorkload &w)
{
    if (w.streams == 0 || w.framesPerStream == 0)
        msgsim_fatal("wire workload needs at least one stream and "
                     "one frame");
    if (w.payloadWords == 0 ||
        w.payloadWords > StreamMux::maxPayloadWords)
        msgsim_fatal("wire payload of ", w.payloadWords,
                     " words: must be 1..", StreamMux::maxPayloadWords);

    StreamProtocol proto(stack);

    // Ring sizing: enough slots that first-transmission traffic never
    // blocks inside a delivery callback (see mux.cc reentrancy note).
    const std::size_t n = static_cast<std::size_t>(stack.dataWords());
    const std::size_t hwPerFrame =
        (frameWireBytes(w.payloadWords) / 4 + n) / n + 1;
    const std::uint32_t totalFrames =
        w.streams * (w.framesPerStream + 2); // + attach/detach
    const std::uint32_t ring = static_cast<std::uint32_t>(
        totalFrames * hwPerFrame + 16);

    MuxOptions opt;
    opt.groupAck = w.groupAck;
    opt.ringPackets = ring;
    opt.window = w.window;
    opt.ackEvery = w.ackEvery;

    // Per-stream delivery tally for the integrity check: each payload
    // is compared with the fill pattern as it arrives.
    struct Got
    {
        std::uint32_t frames = 0;
        bool intact = true;
    };
    std::map<std::uint16_t, Got> got;
    StreamMux mux(stack, proto, w.sender, w.receiver, opt,
                  [&got, &w](std::uint16_t sid, std::uint32_t seq,
                             const std::vector<Word> &payload) {
                      Got &g = got[sid];
                      if (seq != g.frames)
                          msgsim_panic("wire delivery out of order: "
                                       "stream ", sid, " seq ", seq,
                                       " after ", g.frames);
                      ++g.frames;
                      FrameFill fill(w.fillSeed, sid, seq);
                      g.intact = g.intact &&
                                 payload.size() == w.payloadWords;
                      for (const Word word : payload)
                          g.intact = g.intact && word == fill.next();
                  });
    mux.setCorruptEveryN(w.corruptEvery);

    const RunFrame frame(stack, w.sender, w.receiver);

    // Open every stream, then interleave their frames round-robin so
    // consecutive wire frames belong to different streams.
    std::vector<std::uint16_t> sids;
    sids.reserve(w.streams);
    for (std::uint32_t s = 0; s < w.streams; ++s)
        sids.push_back(mux.openStream());
    if (w.onStart)
        w.onStart(proto, mux, sids);

    std::vector<Word> payload(w.payloadWords);
    for (std::uint32_t f = 0; f < w.framesPerStream; ++f) {
        for (std::uint32_t s = 0; s < w.streams; ++s) {
            FrameFill fill(w.fillSeed, sids[s], f);
            for (Word &word : payload)
                word = fill.next();
            mux.send(sids[s], payload);
        }
    }
    for (const std::uint16_t sid : sids)
        mux.closeStream(sid);
    mux.flush();
    if (w.onFinish)
        w.onFinish(mux);

    WireRunResult out;
    frame.finish(out.run);
    out.run.packets = mux.stats().dataFrames;
    out.run.acksSent = mux.stats().wireAcks;
    out.run.retransmissions = mux.stats().wireRetransmits;
    out.run.duplicates = mux.stats().dupDrops;
    out.run.oooArrivals = mux.stats().gapDrops;
    out.wire = mux.stats();
    out.crcRejects = mux.rxCrcRejects();
    out.malformed = mux.rxMalformed();

    // Integrity: every stream fully delivered, in order, detached on
    // both sides, with the exact payload words.
    bool ok = true;
    for (std::uint32_t s = 0; s < w.streams && ok; ++s) {
        const std::uint16_t sid = sids[s];
        ok = mux.sendState(sid) == SendState::Detached &&
             mux.recvState(sid) == RecvState::Detached &&
             got[sid].frames == w.framesPerStream && got[sid].intact;
    }
    out.run.dataOk = ok;
    return out;
}

} // namespace msgsim::wire
