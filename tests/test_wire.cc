/**
 * @file
 * The wire layer: marshalling round-trips, COBS/CRC framing (with
 * the fuzz-style corrupt-one-byte property the decoder must survive
 * under ASan/UBSan), typed headers, and the StreamMux multi-stream
 * transport — flow control, corruption recovery, reset and
 * attach/detach semantics — on all four substrates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>

#include "hostprof/hostprof.hh"
#include "protocols/stream.hh"
#include "sim/rng.hh"
#include "wire/frame.hh"
#include "wire/mux.hh"
#include "wire/wire_run.hh"

namespace msgsim
{
namespace
{

using wire::Bytes;
using wire::Frame;
using wire::FrameDecoder;
using wire::PacketType;
using wire::StreamHeader;

// ----------------------------------------------------------------
// Marshalling.
// ----------------------------------------------------------------

TEST(WireMarshal, RoundTripsFixedWidthFields)
{
    Bytes buf;
    wire::Writer w(buf);
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    const std::uint8_t raw[] = {1, 0, 2};
    w.bytes(raw, sizeof raw);
    EXPECT_EQ(buf.size(), 10u);

    wire::Reader r(buf);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    Bytes tail;
    EXPECT_TRUE(r.bytes(tail, 3));
    EXPECT_EQ(tail, Bytes({1, 0, 2}));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(WireMarshal, ReaderGoesBadInsteadOfOverReading)
{
    const Bytes buf = {0x01, 0x02};
    wire::Reader r(buf);
    EXPECT_EQ(r.u32(), 0u); // short: goes bad, yields zero
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0u); // stays bad
    Bytes out;
    EXPECT_FALSE(r.bytes(out, 1));
}

TEST(WireMarshal, LittleEndianOnTheWire)
{
    Bytes buf;
    wire::Writer w(buf);
    w.u32(0x11223344u);
    EXPECT_EQ(buf, Bytes({0x44, 0x33, 0x22, 0x11}));
}

// ----------------------------------------------------------------
// COBS + CRC.
// ----------------------------------------------------------------

TEST(WireCobs, RoundTripsRepresentativePayloads)
{
    const std::vector<Bytes> cases = {
        {},
        {0x00},
        {0x11},
        {0x00, 0x00, 0x00},
        {0x11, 0x00, 0x22},
        Bytes(253, 0x5a),
        Bytes(254, 0x5a),
        Bytes(255, 0x5a),
        Bytes(600, 0x00),
    };
    for (const Bytes &in : cases) {
        Bytes enc;
        wire::cobsEncode(in.data(), in.size(), enc);
        EXPECT_LE(enc.size(), wire::cobsMaxEncoded(in.size()));
        for (const std::uint8_t b : enc)
            EXPECT_NE(b, 0x00) << "encoding must be zero-free";
        Bytes dec;
        ASSERT_TRUE(wire::cobsDecode(enc.data(), enc.size(), dec));
        EXPECT_EQ(dec, in);
    }
}

TEST(WireCobs, RejectsMalformedEncodings)
{
    Bytes out;
    // A code byte pointing past the end of the block.
    const Bytes overrun = {0x05, 0x11};
    EXPECT_FALSE(
        wire::cobsDecode(overrun.data(), overrun.size(), out));
    // A zero code byte (the delimiter leaked into the block).
    const Bytes zero = {0x01, 0x00};
    EXPECT_FALSE(wire::cobsDecode(zero.data(), zero.size(), out));
}

TEST(WireCobs, Crc32MatchesKnownVector)
{
    // IEEE 802.3 CRC of "123456789" — the standard check value.
    const char *s = "123456789";
    EXPECT_EQ(wire::crc32(
                  reinterpret_cast<const std::uint8_t *>(s), 9),
              0xcbf43926u);
}

/// The bytewise (Sarwate) table CRC-32 the sliced one must equal.
std::uint32_t
crc32Bytewise(const std::uint8_t *p, std::size_t n)
{
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

TEST(WireCobs, Crc32MatchesBytewiseReference)
{
    // Every length across the 8-byte blocks and the bytewise tail, at
    // every start alignment.
    Rng rng(0xc3c32032ULL);
    Bytes data(8 + 300);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (std::size_t off = 0; off < 8; ++off)
        for (std::size_t len = 0; len <= 300; ++len)
            ASSERT_EQ(wire::crc32(data.data() + off, len),
                      crc32Bytewise(data.data() + off, len))
                << "offset " << off << " length " << len;
}

// ----------------------------------------------------------------
// Typed headers.
// ----------------------------------------------------------------

TEST(WireHeader, RoundTripsEveryType)
{
    for (int t = 0x1; t <= 0x8; ++t) {
        StreamHeader h;
        h.sid = 0x0102;
        h.type = static_cast<PacketType>(t);
        h.window = 7;
        h.seq = 0xfeed1234u;
        Bytes buf;
        wire::Writer w(buf);
        h.encode(w);
        EXPECT_EQ(buf.size(), StreamHeader::encodedSize(h.type));

        wire::Reader r(buf);
        StreamHeader back;
        ASSERT_TRUE(back.decode(r));
        EXPECT_EQ(back.sid, h.sid);
        EXPECT_EQ(back.type, h.type);
        EXPECT_EQ(back.window, h.window);
        if (StreamHeader::hasSeq(h.type)) {
            EXPECT_EQ(back.seq, h.seq);
        }
    }
}

TEST(WireHeader, RejectsBadMagicAndBadType)
{
    Bytes buf;
    wire::Writer w(buf);
    StreamHeader h;
    h.type = PacketType::Data;
    h.encode(w);

    Bytes bad = buf;
    bad[0] ^= 0xff; // magic
    wire::Reader r1(bad);
    StreamHeader out;
    EXPECT_FALSE(out.decode(r1));

    bad = buf;
    bad[6] = 0x9; // type out of vocabulary
    wire::Reader r2(bad);
    EXPECT_FALSE(out.decode(r2));
}

// ----------------------------------------------------------------
// Frame encode/decode.
// ----------------------------------------------------------------

TEST(WireFrame, EncodeDecodeRoundTrip)
{
    StreamHeader h;
    h.sid = 3;
    h.type = PacketType::Data;
    h.window = 4;
    h.seq = 41;
    const Bytes payload = {0xde, 0x00, 0xad, 0x00, 0xbe, 0xef};
    Bytes f;
    wire::encodeFrame(h, payload, f);
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.back(), 0x00) << "frame ends at the delimiter";

    // A sink's Frame views the decoder's buffer: copy it out.
    std::vector<std::pair<StreamHeader, Bytes>> got;
    FrameDecoder dec([&got](const Frame &fr) {
        got.emplace_back(fr.header,
                         Bytes(fr.payload.begin(), fr.payload.end()));
    });
    dec.push(f);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].first.sid, h.sid);
    EXPECT_EQ(got[0].first.seq, h.seq);
    EXPECT_EQ(got[0].second, payload);
    EXPECT_EQ(dec.crcRejects(), 0u);
    EXPECT_EQ(dec.malformed(), 0u);
}

TEST(WireFrame, DecoderSplitsChunksAndSkipsPadding)
{
    StreamHeader h;
    h.type = PacketType::Ack;
    h.seq = 9;
    Bytes stream;
    wire::encodeFrame(h, {}, stream);
    stream.insert(stream.end(), 5, 0x00); // inter-frame padding
    h.seq = 10;
    wire::encodeFrame(h, {}, stream);

    std::vector<std::uint32_t> seqs;
    FrameDecoder dec(
        [&seqs](const Frame &f) { seqs.push_back(f.header.seq); });
    // Byte-at-a-time: the decoder is a resynchronizing stream
    // consumer, chunk boundaries must not matter.
    for (const std::uint8_t b : stream)
        dec.push(&b, 1);
    EXPECT_EQ(seqs, (std::vector<std::uint32_t>{9, 10}));
    EXPECT_EQ(dec.malformed(), 0u);
}

TEST(WireFrame, PushWordsMatchesPushBytes)
{
    // Valid frames, CRC-corrupted frames, padding zeros and garbage,
    // each piece shifted by 0-3 bytes so that zero bytes (delimiters,
    // padding, garbage) land in every lane of a word.  One decoder
    // takes the words in random chunks, the other the bytes.
    using Seen = std::vector<std::pair<StreamHeader, Bytes>>;
    const auto recorder = [](Seen &seen) {
        return [&seen](const Frame &f) {
            seen.emplace_back(f.header,
                              Bytes(f.payload.begin(), f.payload.end()));
        };
    };
    Rng rng(0x0dec0de5ULL);
    unsigned zeroLanes = 0;
    std::uint64_t frames = 0, rejects = 0, malformed = 0;
    for (int iter = 0; iter < 60; ++iter) {
        Bytes stream;
        for (int piece = 0; piece < 30; ++piece) {
            stream.insert(stream.end(), rng.below(4), 0x00); // shift
            const auto kind = rng.below(4);
            switch (kind) {
              case 0:
              case 1: { // a frame, CRC-corrupted on case 1
                const bool corrupt = kind == 1;
                StreamHeader h;
                h.sid = static_cast<std::uint16_t>(rng.below(8));
                h.type = PacketType::Data;
                h.window = static_cast<std::uint8_t>(rng.below(16));
                h.seq = static_cast<std::uint32_t>(rng.below(1000));
                Bytes body;
                wire::Writer w(body);
                h.encode(w);
                for (auto k = rng.below(70); k > 0; --k)
                    w.u8(static_cast<std::uint8_t>(
                        rng.below(3) == 0 ? 0 : rng.below(256)));
                wire::sealFrame(body, corrupt, stream);
                break;
              }
              case 2: // padding zeros
                stream.insert(stream.end(), 1 + rng.below(9), 0x00);
                break;
              default: // garbage, zeros included
                for (auto k = 1 + rng.below(40); k > 0; --k)
                    stream.push_back(
                        static_cast<std::uint8_t>(rng.below(256)));
                break;
            }
        }
        while (stream.size() % 4 != 0)
            stream.push_back(static_cast<std::uint8_t>(rng.below(256)));
        std::vector<std::uint32_t> words(stream.size() / 4, 0);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            words[i / 4] |= static_cast<std::uint32_t>(stream[i])
                            << (8 * (i % 4));
            if (stream[i] == 0)
                zeroLanes |= 1u << (i % 4);
        }

        Seen byWords, byBytes;
        FrameDecoder wd(recorder(byWords));
        FrameDecoder bd(recorder(byBytes));
        for (std::size_t i = 0; i < words.size();) {
            const std::size_t k = std::min<std::size_t>(
                1 + rng.below(9), words.size() - i);
            wd.pushWords(words.data() + i, k);
            i += k;
        }
        bd.push(stream);

        SCOPED_TRACE(iter);
        ASSERT_EQ(byWords.size(), byBytes.size());
        for (std::size_t i = 0; i < byWords.size(); ++i) {
            const StreamHeader &a = byWords[i].first;
            const StreamHeader &b = byBytes[i].first;
            EXPECT_EQ(a.sid, b.sid);
            EXPECT_EQ(a.type, b.type);
            EXPECT_EQ(a.window, b.window);
            EXPECT_EQ(a.seq, b.seq);
            EXPECT_EQ(byWords[i].second, byBytes[i].second);
        }
        EXPECT_EQ(wd.frames(), bd.frames());
        EXPECT_EQ(wd.crcRejects(), bd.crcRejects());
        EXPECT_EQ(wd.malformed(), bd.malformed());
        EXPECT_EQ(wd.pendingBytes(), bd.pendingBytes());
        frames += bd.frames();
        rejects += bd.crcRejects();
        malformed += bd.malformed();
    }
    EXPECT_EQ(zeroLanes, 0xfu) << "a zero byte in each of the 4 lanes";
    EXPECT_GT(frames, 0u);
    EXPECT_GT(rejects, 0u);
    EXPECT_GT(malformed, 0u);
}

// The satellite fuzz property: random payloads, encode, corrupt one
// byte anywhere in the wire image, decode.  The decoder must either
// reject the frame (CRC or framing) or deliver it byte-exact —
// never crash, never over-read (ASan/UBSan gate this), and never
// surface a *different* frame as valid (the corrupted-delimiter case
// may legitimately split one frame into rejected fragments).
TEST(WireFuzz, CorruptOneByteNeverYieldsAWrongFrame)
{
    Rng rng(0xc0b5f00dULL);
    for (int iter = 0; iter < 400; ++iter) {
        StreamHeader h;
        h.sid = static_cast<std::uint16_t>(rng.below(5));
        h.type = PacketType::Data;
        h.window = static_cast<std::uint8_t>(rng.below(16));
        h.seq = static_cast<std::uint32_t>(rng.below(1000));
        Bytes payload(rng.below(300));
        for (auto &b : payload)
            b = static_cast<std::uint8_t>(rng.below(256));

        Bytes clean;
        wire::encodeFrame(h, payload, clean);

        Bytes dirty = clean;
        const std::size_t at = static_cast<std::size_t>(
            rng.below(dirty.size()));
        const auto flip = static_cast<std::uint8_t>(
            1 + rng.below(255));
        dirty[at] ^= flip;

        std::size_t delivered = 0;
        bool exact = false;
        FrameDecoder dec([&](const Frame &f) {
            ++delivered;
            exact = f.header.sid == h.sid && f.header.seq == h.seq &&
                    std::ranges::equal(f.payload, payload);
        });
        dec.push(dirty);
        dec.push(Bytes{0x00}); // flush a corrupted-away delimiter
        if (delivered > 0) {
            EXPECT_EQ(delivered, 1u);
            EXPECT_TRUE(exact)
                << "iter " << iter << ": corrupted frame surfaced "
                << "as valid but differs from the original";
        } else {
            EXPECT_GE(dec.crcRejects() + dec.malformed(), 1u)
                << "iter " << iter;
        }
    }
}

TEST(WireFuzz, DecoderSurvivesArbitraryGarbage)
{
    Rng rng(0xfeedbeefULL);
    FrameDecoder dec([](const Frame &) {});
    for (int iter = 0; iter < 200; ++iter) {
        Bytes junk(rng.below(700));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.below(256));
        dec.push(junk); // must not crash or over-read
    }
    dec.push(Bytes{0x00});
    EXPECT_EQ(dec.frames() + dec.crcRejects() + dec.malformed(),
              dec.frames() + dec.crcRejects() + dec.malformed());
}

// ----------------------------------------------------------------
// StreamMux: the multi-stream transport.
// ----------------------------------------------------------------

StackConfig
wireStack(Substrate sub)
{
    StackConfig cfg;
    cfg.substrate = sub;
    cfg.nodes = 4;
    cfg.dataWords = 4;
    return cfg;
}

class WireSubstrate : public ::testing::TestWithParam<Substrate>
{
};

TEST_P(WireSubstrate, MultiStreamWorkloadDeliversInOrder)
{
    Stack stack(wireStack(GetParam()));
    wire::WireWorkload w;
    const wire::WireRunResult res = wire::runWireWorkload(stack, w);
    EXPECT_TRUE(res.run.dataOk);
    EXPECT_EQ(res.wire.dataDelivered,
              static_cast<std::uint64_t>(w.streams) *
                  w.framesPerStream);
    EXPECT_EQ(res.wire.deliveredAfterReset, 0u);
    EXPECT_EQ(res.crcRejects, 0u);
    EXPECT_EQ(res.malformed, 0u);
    EXPECT_GT(res.run.counts.featureTotal(Feature::Framing), 0u);
}

TEST_P(WireSubstrate, CorruptionIsRecoveredByWireRetransmit)
{
    Stack stack(wireStack(GetParam()));
    wire::WireWorkload w;
    w.corruptEvery = 3;
    const wire::WireRunResult res = wire::runWireWorkload(stack, w);
    EXPECT_TRUE(res.run.dataOk);
    EXPECT_GT(res.crcRejects, 0u);
    EXPECT_GT(res.wire.wireRetransmits, 0u);
    EXPECT_EQ(res.wire.dataDelivered,
              static_cast<std::uint64_t>(w.streams) *
                  w.framesPerStream);
}

TEST_P(WireSubstrate, RunsAreDeterministic)
{
    wire::WireWorkload w;
    w.corruptEvery = 4;
    Stack a(wireStack(GetParam()));
    Stack b(wireStack(GetParam()));
    const wire::WireRunResult ra = wire::runWireWorkload(a, w);
    const wire::WireRunResult rb = wire::runWireWorkload(b, w);
    EXPECT_EQ(ra.run.counts.paperTotal(),
              rb.run.counts.paperTotal());
    EXPECT_EQ(ra.run.counts.featureTotal(Feature::Framing),
              rb.run.counts.featureTotal(Feature::Framing));
    EXPECT_EQ(ra.wire.framedBytes, rb.wire.framedBytes);
    EXPECT_EQ(ra.wire.wireRetransmits, rb.wire.wireRetransmits);
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, WireSubstrate,
                         ::testing::Values(Substrate::Cm5,
                                           Substrate::Cr,
                                           Substrate::Rdma,
                                           Substrate::Nicam),
                         [](const auto &info) {
                             return std::string(
                                 toString(info.param));
                         });

TEST(WireMux, RdmaOffloadMakesFramingVanish)
{
    wire::WireWorkload w;
    Stack cm5(wireStack(Substrate::Cm5));
    Stack rdma(wireStack(Substrate::Rdma));
    const auto sw = wire::runWireWorkload(cm5, w);
    const auto hw = wire::runWireWorkload(rdma, w);
    const std::uint64_t swF =
        sw.run.counts.featureTotal(Feature::Framing);
    const std::uint64_t hwF =
        hw.run.counts.featureTotal(Feature::Framing);
    ASSERT_GT(swF, 0u);
    ASSERT_GT(hwF, 0u);
    // The differential's "vanishes" threshold: the offloaded bill
    // keeps at most 10% of the software one.
    EXPECT_LE(hwF * 10, swF);
    // The protocol machinery is held constant, so the classic
    // feature columns are identical across the pair.
    EXPECT_EQ(sw.run.counts.featureTotal(Feature::BaseCost),
              hw.run.counts.featureTotal(Feature::BaseCost));
    EXPECT_EQ(sw.run.counts.featureTotal(Feature::FaultTolerance),
              hw.run.counts.featureTotal(Feature::FaultTolerance));
}

TEST(WireMux, WindowStallsAndBacklogDrain)
{
    Stack stack(wireStack(Substrate::Cm5));
    wire::WireWorkload w;
    w.streams = 1;
    w.framesPerStream = 6;
    w.window = 1;
    const wire::WireRunResult res = wire::runWireWorkload(stack, w);
    EXPECT_TRUE(res.run.dataOk);
    EXPECT_GE(res.wire.windowStalls, 5u);
    EXPECT_EQ(res.wire.dataDelivered, 6u);
}

TEST(WireMux, ResetDiscardsInFlightData)
{
    Stack stack(wireStack(Substrate::Cm5));
    StreamProtocol proto(stack);
    wire::MuxOptions mo;
    mo.ringPackets = 128;
    mo.window = 4;
    std::unique_ptr<wire::StreamMux> mux;
    std::uint64_t delivered = 0;
    mux = std::make_unique<wire::StreamMux>(
        stack, proto, 0, 1, mo,
        [&](std::uint16_t sid, std::uint32_t,
            const std::vector<Word> &) {
            if (++delivered == 1)
                mux->resetStream(sid);
        });
    const std::uint16_t sid = mux->openStream();
    for (std::uint32_t i = 0; i < 4; ++i)
        mux->send(sid, {0x10 + i, 0x20 + i});
    mux->flush();
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(mux->sendState(sid), wire::SendState::Reset);
    EXPECT_EQ(mux->recvState(sid), wire::RecvState::Reset);
    EXPECT_EQ(mux->stats().deliveredAfterReset, 0u);
    EXPECT_EQ(mux->unacked(sid), 0u);
    EXPECT_EQ(mux->backlog(sid), 0u);
    EXPECT_TRUE(mux->quiescent());
}

TEST(WireMux, SeededResetBugDeliversAfterReset)
{
    Stack stack(wireStack(Substrate::Cm5));
    StreamProtocol proto(stack);
    wire::MuxOptions mo;
    mo.ringPackets = 128;
    mo.window = 4;
    std::unique_ptr<wire::StreamMux> mux;
    std::uint64_t delivered = 0;
    mux = std::make_unique<wire::StreamMux>(
        stack, proto, 0, 1, mo,
        [&](std::uint16_t sid, std::uint32_t,
            const std::vector<Word> &) {
            if (++delivered == 1)
                mux->resetStream(sid);
        });
    mux->setBugResetDeliver(true);
    const std::uint16_t sid = mux->openStream();
    for (std::uint32_t i = 0; i < 4; ++i)
        mux->send(sid, {0x30 + i, 0x40 + i});
    mux->flush();
    EXPECT_GT(mux->stats().deliveredAfterReset, 0u)
        << "the seeded bug must be observable (the checker's prey)";
}

TEST(WireMux, DeferredDetachCompletesAfterAcks)
{
    Stack stack(wireStack(Substrate::Cm5));
    StreamProtocol proto(stack);
    wire::MuxOptions mo;
    mo.ringPackets = 128;
    mo.window = 2;
    std::uint64_t delivered = 0;
    wire::StreamMux mux(
        stack, proto, 0, 1, mo,
        [&](std::uint16_t, std::uint32_t,
            const std::vector<Word> &) { ++delivered; });
    const std::uint16_t a = mux.openStream();
    for (std::uint32_t i = 0; i < 3; ++i)
        mux.send(a, {i, i + 1});
    mux.closeStream(a);
    EXPECT_EQ(mux.sendState(a), wire::SendState::Closing)
        << "detach must defer while frames are unacked";
    // A second stream attaches while the first is still closing.
    const std::uint16_t b = mux.openStream();
    mux.send(b, {7, 8});
    mux.closeStream(b);
    mux.flush();
    EXPECT_EQ(delivered, 4u);
    EXPECT_EQ(mux.sendState(a), wire::SendState::Detached);
    EXPECT_EQ(mux.recvState(a), wire::RecvState::Detached);
    EXPECT_EQ(mux.sendState(b), wire::SendState::Detached);
    EXPECT_EQ(mux.recvState(b), wire::RecvState::Detached);
    EXPECT_EQ(mux.stats().attaches, 2u);
    EXPECT_EQ(mux.stats().detaches, 2u);
}

TEST(WireMux, FramingChargesLandOnTheFramingFeature)
{
    Stack stack(wireStack(Substrate::Cm5));
    wire::WireWorkload w;
    const wire::WireRunResult res = wire::runWireWorkload(stack, w);
    const auto &c = res.run.counts;
    // Framing rides outside the four paper features: paperTotal is
    // the classic sum and excludes the new column by construction.
    std::uint64_t classic = 0;
    for (int f = 0; f < numPaperFeatures; ++f)
        classic += c.featureTotal(static_cast<Feature>(f));
    EXPECT_EQ(c.paperTotal(), classic);
    EXPECT_GT(c.featureTotal(Feature::Framing), 0u);
}

StackConfig
twoNodeStack(Substrate sub)
{
    StackConfig cfg;
    cfg.substrate = sub;
    cfg.nodes = 2;
    return cfg;
}

/** Word @p k of frame @p f on stream @p sid; word 0 is sid*1000 + f. */
Word
frameWord(std::uint16_t sid, std::uint32_t f, std::size_t k)
{
    return sid * 1000u + f + (static_cast<Word>(k) << 20);
}

// A full retransmit ring makes sendOn block and poll, and the acks it
// delivers pump the backlog: transmits nest (three deep at ring 8)
// while the outer ones still hold their packed frames.  Every payload
// must survive that, and the recovery counts are pinned.
TEST(WireMux, NestedTransmitsKeepTheirPayloads)
{
    constexpr std::uint32_t kStreams = 4;
    constexpr std::uint32_t kFrames = 32;
    constexpr std::size_t kWords = 6;
    const std::pair<std::uint32_t, std::uint64_t> rings[] = {
        {8, 429}, {6, 166}, {64, 128}};
    for (const Substrate sub : allSubstrates) {
        for (const auto &[ring, retransmits] : rings) {
            SCOPED_TRACE(std::string(toString(sub)) + " ring " +
                         std::to_string(ring));
            Stack stack(twoNodeStack(sub));
            StreamProtocol proto(stack);
            wire::MuxOptions mo;
            mo.ringPackets = ring;
            mo.window = 8;
            std::map<std::uint16_t, std::vector<std::vector<Word>>> got;
            wire::StreamMux mux(stack, proto, 0, 1, mo,
                                [&got](std::uint16_t sid, std::uint32_t,
                                       const std::vector<Word> &p) {
                                    got[sid].push_back(p);
                                });
            mux.setCorruptEveryN(5);
            std::vector<std::uint16_t> sids;
            for (std::uint32_t s = 0; s < kStreams; ++s)
                sids.push_back(mux.openStream());
            std::vector<Word> payload(kWords);
            for (std::uint32_t f = 0; f < kFrames; ++f) {
                for (const std::uint16_t sid : sids) {
                    for (std::size_t k = 0; k < kWords; ++k)
                        payload[k] = frameWord(sid, f, k);
                    mux.send(sid, payload);
                }
            }
            for (const std::uint16_t sid : sids)
                mux.closeStream(sid);
            mux.flush();

            EXPECT_EQ(mux.stats().dataDelivered, kStreams * kFrames);
            EXPECT_EQ(mux.stats().wireRetransmits, retransmits);
            for (const std::uint16_t sid : sids) {
                EXPECT_EQ(mux.sendState(sid), wire::SendState::Detached);
                ASSERT_EQ(got[sid].size(), kFrames) << "stream " << sid;
                for (std::uint32_t f = 0; f < kFrames; ++f) {
                    std::vector<Word> want(kWords);
                    for (std::size_t k = 0; k < kWords; ++k)
                        want[k] = frameWord(sid, f, k);
                    EXPECT_EQ(got[sid][f], want)
                        << "stream " << sid << " frame " << f;
                }
            }
        }
    }
}

// The framed-stream path in steady state: once a long-lived mux has
// sized its rings and buffers, CRC rejects, gap drops, duplicate acks
// and kick() resends included, framing and delivering allocates
// nothing.
void
expectSteadyStateAllocatesNothing(Substrate sub,
                                  const wire::MuxOptions &mo,
                                  OrderPolicyFactory order = {})
{
    constexpr std::uint32_t kStreams = 4;
    constexpr std::uint32_t kFramesPerRound = 16;
    constexpr std::size_t kWords = 6;
    SCOPED_TRACE(std::string(toString(sub)) + " ring " +
                 std::to_string(mo.ringPackets));
    StackConfig cfg = twoNodeStack(sub);
    cfg.order = std::move(order);
    Stack stack(cfg);
    StreamProtocol proto(stack);
    std::vector<std::uint32_t> next(kStreams + 1, 0);
    std::uint64_t delivered = 0;
    std::uint64_t wrong = 0;
    wire::StreamMux mux(stack, proto, 0, 1, mo,
                        [&](std::uint16_t sid, std::uint32_t seq,
                            const std::vector<Word> &p) {
                            ++delivered;
                            if (sid >= next.size() || seq != next[sid] ||
                                p.size() != kWords) {
                                ++wrong;
                                return;
                            }
                            for (std::size_t k = 0; k < kWords; ++k)
                                wrong += p[k] != frameWord(sid, seq, k);
                            ++next[sid];
                        });
    mux.setCorruptEveryN(7);
    std::vector<std::uint16_t> sids;
    for (std::uint32_t s = 0; s < kStreams; ++s)
        sids.push_back(mux.openStream());
    std::vector<std::uint32_t> sent(kStreams + 1, 0);
    std::vector<Word> payload(kWords);
    const auto round = [&] {
        for (std::uint32_t f = 0; f < kFramesPerRound; ++f) {
            for (const std::uint16_t sid : sids) {
                for (std::size_t k = 0; k < kWords; ++k)
                    payload[k] = frameWord(sid, sent[sid], k);
                ++sent[sid];
                mux.send(sid, payload);
            }
        }
        mux.flush();
    };

    // Warm-up sizes the rings, scratch buffers and channel lists.
    for (int i = 0; i < 4; ++i)
        round();
    const wire::MuxStats warm = mux.stats();
    const std::uint64_t warmRejects = mux.rxCrcRejects();
    const std::uint64_t before = hostprof::globalAllocCount();
    for (int i = 0; i < 8; ++i)
        round();
    const std::uint64_t allocs = hostprof::globalAllocCount() - before;

    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(wrong, 0u);
    EXPECT_EQ(delivered, 12u * kFramesPerRound * kStreams);
    // The measured frames (512) took every recovery path.
    const wire::MuxStats &s = mux.stats();
    EXPECT_EQ(s.dataFrames - warm.dataFrames,
              8u * kFramesPerRound * kStreams);
    EXPECT_GT(mux.rxCrcRejects(), warmRejects);
    EXPECT_GT(s.gapDrops, warm.gapDrops);
    EXPECT_GT(s.wireRetransmits, warm.wireRetransmits);
}

TEST(WireMux, SteadyStateAllocatesNothing)
{
    // The default rings, and rings so small that transmits nest.
    wire::MuxOptions nested;
    nested.ringPackets = 8;
    nested.window = 8;
    for (const Substrate sub : allSubstrates) {
        expectSteadyStateAllocatesNothing(sub, wire::MuxOptions{});
        expectSteadyStateAllocatesNothing(sub, nested);
    }
}

TEST(WireMux, SteadyStateAllocatesNothingOutOfOrder)
{
    // On an out-of-order fabric every other packet arrives early and
    // waits in the stream's reorder ring.
    for (const Substrate sub : {Substrate::Cm5, Substrate::Nicam})
        expectSteadyStateAllocatesNothing(sub, wire::MuxOptions{},
                                          swapAdjacentFactory());
}

} // namespace
} // namespace msgsim
