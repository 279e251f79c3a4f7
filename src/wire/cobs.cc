#include "wire/cobs.hh"

#include <algorithm>
#include <array>
#include <cstring>

namespace msgsim::wire
{

namespace
{

/**
 * Copy the zero-free run at @p p, at most @p limit bytes, to @p o and
 * return its length.  An 8-byte word with no zero byte (the exact
 * zero-byte test of FrameDecoder::pushWords, on 64 bits) is tested
 * and copied in one step; the word holding the zero, and the tail, go
 * byte by byte.  Word copies, not one memcpy of the run: GCC inlines
 * a memcpy bounded by the block limit as `rep movsq`, whose start-up
 * costs more than the few dozen bytes of a frame's runs.
 */
std::size_t
copyZeroFreeRun(const std::uint8_t *p, std::size_t limit, std::uint8_t *o)
{
    std::size_t k = 0;
    for (; k + 8 <= limit; k += 8) {
        std::uint64_t v;
        std::memcpy(&v, p + k, 8);
        if (((v - 0x0101010101010101u) & ~v & 0x8080808080808080u) != 0)
            break;
        std::memcpy(o + k, &v, 8);
    }
    for (; k < limit && p[k] != 0; ++k)
        o[k] = p[k];
    return k;
}

} // namespace

void
cobsEncode(const std::uint8_t *p, std::size_t n, Bytes &out)
{
    // Write into the worst-case size, then trim: no per-byte growth.
    const std::size_t start = out.size();
    out.resize(start + cobsMaxEncoded(n));
    std::uint8_t *o = out.data() + start;
    std::size_t codeAt = 0; // placeholder for the current code byte
    std::size_t at = 1;
    std::size_t i = 0;
    for (;;) {
        // One block: a run of up to 254 non-zero bytes.
        const std::size_t run = copyZeroFreeRun(
            p + i, std::min<std::size_t>(n - i, 254), o + at);
        at += run;
        i += run;
        o[codeAt] = static_cast<std::uint8_t>(run + 1);
        if (run == 254) {
            // The limit, not a zero, closed the block: the next one
            // starts at once, even at the end of the input (code 1).
            codeAt = at++;
            continue;
        }
        if (i == n)
            break;
        // p[i] is the zero that closed the block.
        codeAt = at++;
        ++i;
    }
    out.resize(start + at);
}

bool
cobsDecode(const std::uint8_t *p, std::size_t n, Bytes &out)
{
    // The decoding is never longer than the encoding.
    const std::size_t start = out.size();
    out.resize(start + n);
    std::uint8_t *o = out.data() + start;
    std::size_t at = 0;
    std::size_t i = 0;
    bool ok = true;
    while (i < n) {
        const std::uint8_t code = p[i];
        if (code == 0 || i + code > n) {
            ok = false; // malformed: zero code or overrun
            break;
        }
        std::copy(p + i + 1, p + i + code, o + at);
        at += code - 1u;
        i += code;
        // A code below 0xff encodes a zero — unless it closed the
        // block, where the delimiter itself supplied it.
        if (code != 0xff && i < n)
            o[at++] = 0;
    }
    out.resize(start + at);
    return ok;
}

namespace
{

/**
 * Slicing-by-8 tables: crcTables[0] is the bytewise (Sarwate) table
 * of the reflected IEEE polynomial, and crcTables[k][b] is the CRC
 * contribution of byte b followed by k zero bytes, so eight lookups
 * fold in eight input bytes at once.
 */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

constexpr auto crcTables = makeCrcTables();

/// Four wire bytes as a little-endian word, whatever the host order.
std::uint32_t
le32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *p, std::size_t n)
{
    const auto &t = crcTables;
    std::uint32_t c = 0xffffffffu;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = c ^ le32(p);
        const std::uint32_t hi = le32(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace msgsim::wire
