#include "net/packet.hh"

#include <algorithm>

namespace msgsim
{

Payload::Payload(std::initializer_list<Word> words)
{
    reserve(words.size());
    std::copy(words.begin(), words.end(), data());
    size_ = static_cast<std::uint32_t>(words.size());
}

Payload::Payload(const std::vector<Word> &words)
{
    reserve(words.size());
    std::copy(words.begin(), words.end(), data());
    size_ = static_cast<std::uint32_t>(words.size());
}

Payload::Payload(const Payload &other)
{
    reserve(other.size_);
    std::copy(other.begin(), other.end(), data());
    size_ = other.size_;
}

Payload &
Payload::operator=(const Payload &other)
{
    if (this != &other) {
        reserve(other.size_);
        std::copy(other.begin(), other.end(), data());
        size_ = other.size_;
    }
    return *this;
}

void
Payload::reserve(std::size_t n)
{
    if (n <= cap_)
        return;
    Word *block = new Word[n];
    std::copy(begin(), end(), block);
    if (spilled())
        delete[] heap_;
    heap_ = block;
    cap_ = static_cast<std::uint32_t>(n);
}

bool
operator==(const Payload &a, const Payload &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

const char *
toString(HwTag tag)
{
    switch (tag) {
      case HwTag::UserAm:     return "user-am";
      case HwTag::XferData:   return "xfer-data";
      case HwTag::StreamData: return "stream-data";
      case HwTag::Control:    return "control";
      case HwTag::StreamAck:  return "stream-ack";
      default:                return "?";
    }
}

std::uint32_t
Packet::computeCrc() const
{
    // FNV-1a over all payload words: not the CM-5's actual CRC
    // polynomial, but an error-detecting hash with the same role.
    std::uint32_t h = 0x811c9dc5u;
    auto mix = [&h](std::uint32_t w) {
        for (int i = 0; i < 4; ++i) {
            h ^= (w >> (8 * i)) & 0xffu;
            h *= 16777619u;
        }
    };
    mix(header);
    for (Word w : data)
        mix(w);
    return h;
}

} // namespace msgsim
