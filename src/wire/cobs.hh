/**
 * @file
 * COBS (consistent-overhead byte stuffing) and CRC32, per the umsg
 * exemplar (SNIPPETS.md §3).
 *
 * COBS maps arbitrary bytes onto a zero-free encoding so that 0x00
 * can serve as an unambiguous frame delimiter on a byte stream:
 * the encoder replaces each zero with the distance to the next one
 * (chunked at 254), the decoder inverts that.  Both directions are
 * strictly bounds-checked — a truncated or corrupted encoding makes
 * cobsDecode return false, never read out of range (the fuzz test
 * pins this under ASan/UBSan).  The encoder tests and copies eight
 * bytes at a time between zeros; it is the same encoding as the
 * byte-at-a-time loop, which the tests keep as the reference.
 *
 * The CRC is computed slicing-by-8: eight constexpr tables fold in
 * eight bytes per step, and a bytewise tail takes the rest.  It is
 * the same CRC as the one-table (Sarwate) loop, which the tests keep
 * as the reference.  What the *modeled* processor is charged for the
 * checksum is a separate matter (StreamMux::chargeTxFrame bills the
 * bytewise table walk).
 */

#ifndef MSGSIM_WIRE_COBS_HH
#define MSGSIM_WIRE_COBS_HH

#include <cstdint>

#include "wire/marshal.hh"

namespace msgsim::wire
{

/** Worst-case COBS expansion of @p n payload bytes (no delimiter). */
constexpr std::size_t
cobsMaxEncoded(std::size_t n)
{
    return n + 1 + n / 254;
}

/** Append the COBS encoding of [p, p+n) to @p out (no delimiter). */
void cobsEncode(const std::uint8_t *p, std::size_t n, Bytes &out);

/**
 * Decode one delimiter-free COBS block [p, p+n) into @p out.
 * Returns false (leaving @p out in an unspecified but valid state)
 * when the encoding is malformed: an embedded zero, or a code byte
 * pointing past the end of the block.
 */
bool cobsDecode(const std::uint8_t *p, std::size_t n, Bytes &out);

/** CRC-32 (IEEE 802.3, reflected) of [p, p+n), init/final 0xffffffff. */
std::uint32_t crc32(const std::uint8_t *p, std::size_t n);

} // namespace msgsim::wire

#endif // MSGSIM_WIRE_COBS_HH
