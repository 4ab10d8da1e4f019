#include "net/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace gatekit::net {

namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
    std::uint32_t x;
    std::memcpy(&x, p, sizeof(x));
    return x;
}

} // namespace

void ChecksumAccumulator::add_bytes(std::span<const std::uint8_t> data) {
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    // RFC 1071 in native byte order: the one's-complement sum of
    // byte-swapped words is the byte-swapped sum (RFC 1071 §2(B)), and
    // 2^16 == 1 (mod 0xffff), so 32-bit words load as they lie in memory
    // and add into two 64-bit accumulators with no swap and no carry
    // test (2^32 words would be needed to overflow either). The sum is
    // folded to 16 bits and swapped back once, so finalize() sees the
    // same value modulo 0xffff as the big-endian byte loop, nonzero
    // exactly when the data is: results are bit-identical.
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    for (; n >= 16; p += 16, n -= 16) {
        a += load_u32(p);
        b += load_u32(p + 4);
        a += load_u32(p + 8);
        b += load_u32(p + 12);
    }
    for (; n >= 4; p += 4, n -= 4) a += load_u32(p);
    // The 0-3 byte tail, zero-padded to a word where it lies in memory.
    if (n != 0) {
        std::uint8_t tail[4] = {};
        std::memcpy(tail, p, n);
        b += load_u32(tail);
    }

    std::uint64_t s = (a >> 32) + (a & 0xffffffff) + (b >> 32) +
                      (b & 0xffffffff);
    while (s >> 16) s = (s & 0xffff) + (s >> 16);
    auto folded = static_cast<std::uint16_t>(s);
    if constexpr (std::endian::native == std::endian::little)
        folded = static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
    sum_ += folded;
}

std::uint16_t ChecksumAccumulator::finalize() const {
    std::uint64_t s = sum_;
    while (s >> 16) s = (s & 0xffff) + (s >> 16);
    return static_cast<std::uint16_t>(~s & 0xffff);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
    ChecksumAccumulator acc;
    acc.add_bytes(data);
    return acc.finalize();
}

std::uint16_t checksum_update16(std::uint16_t old_checksum,
                                std::uint16_t old_word,
                                std::uint16_t new_word) {
    // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')
    std::uint32_t sum = static_cast<std::uint16_t>(~old_checksum);
    sum += static_cast<std::uint16_t>(~old_word);
    sum += new_word;
    while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::uint16_t checksum_update32(std::uint16_t old_checksum,
                                std::uint32_t old_word,
                                std::uint32_t new_word) {
    std::uint16_t c = checksum_update16(
        old_checksum, static_cast<std::uint16_t>(old_word >> 16),
        static_cast<std::uint16_t>(new_word >> 16));
    return checksum_update16(c, static_cast<std::uint16_t>(old_word),
                             static_cast<std::uint16_t>(new_word));
}

void add_pseudo_header(ChecksumAccumulator& acc, Ipv4Addr src, Ipv4Addr dst,
                       std::uint8_t protocol, std::uint16_t length) {
    acc.add_u32(src.value());
    acc.add_u32(dst.value());
    acc.add_u16(protocol);
    acc.add_u16(length);
}

namespace {

// Slicing-by-8: tables[j][b] is the CRC contribution of byte b positioned
// j bytes ahead in the stream, letting the loop consume 8 bytes per step
// with independent table lookups instead of a serial byte chain.
std::array<std::array<std::uint32_t, 256>, 8> make_crc32c_tables() {
    std::array<std::array<std::uint32_t, 256>, 8> tables{};
    constexpr std::uint32_t poly = 0x82f63b78u; // reflected 0x1EDC6F41
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc & 1) ? (crc >> 1) ^ poly : crc >> 1;
        tables[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (int j = 1; j < 8; ++j)
            tables[j][i] =
                (tables[j - 1][i] >> 8) ^ tables[0][tables[j - 1][i] & 0xff];
    return tables;
}

} // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data) {
    static const auto tables = make_crc32c_tables();
    const std::uint8_t* p = data.data();
    std::size_t n = data.size();
    std::uint32_t crc = 0xffffffffu;
    if constexpr (std::endian::native == std::endian::little) {
        while (n >= 8) {
            std::uint64_t x;
            std::memcpy(&x, p, sizeof(x));
            x ^= crc;
            crc = tables[7][x & 0xff] ^ tables[6][(x >> 8) & 0xff] ^
                  tables[5][(x >> 16) & 0xff] ^ tables[4][(x >> 24) & 0xff] ^
                  tables[3][(x >> 32) & 0xff] ^ tables[2][(x >> 40) & 0xff] ^
                  tables[1][(x >> 48) & 0xff] ^ tables[0][x >> 56];
            p += 8;
            n -= 8;
        }
    }
    for (; n != 0; --n, ++p) crc = tables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

} // namespace gatekit::net
