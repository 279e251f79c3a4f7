#include "wire/cobs.hh"

#include <algorithm>
#include <array>

namespace msgsim::wire
{

void
cobsEncode(const std::uint8_t *p, std::size_t n, Bytes &out)
{
    // Write into the worst-case size, then trim: no per-byte growth.
    const std::size_t start = out.size();
    out.resize(start + cobsMaxEncoded(n));
    std::uint8_t *o = out.data() + start;
    std::size_t codeAt = 0; // placeholder for the current code byte
    std::size_t at = 1;
    std::uint8_t code = 1;
    for (std::size_t i = 0; i < n; ++i) {
        if (p[i] == 0) {
            o[codeAt] = code;
            codeAt = at++;
            code = 1;
            continue;
        }
        o[at++] = p[i];
        if (++code == 0xff) {
            o[codeAt] = code;
            codeAt = at++;
            code = 1;
        }
    }
    o[codeAt] = code;
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

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *p, std::size_t n)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace msgsim::wire
