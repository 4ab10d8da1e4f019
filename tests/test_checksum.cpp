#include "net/checksum.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace gatekit::net;

TEST(InternetChecksum, Rfc1071Example) {
    // RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
    // checksum = ~0xddf2 = 0x220d.
    const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                                 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
    const std::uint8_t data[] = {0x01, 0x02, 0x03};
    // words: 0x0102, 0x0300 -> sum 0x0402 -> ~ = 0xfbfd
    EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(InternetChecksum, VerifiesToZero) {
    // A packet whose checksum field is filled in sums to 0xffff, i.e. the
    // accumulator finalizes to 0.
    std::vector<std::uint8_t> pkt = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34,
                                     0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
                                     0xc0, 0xa8, 0x01, 0x02, 0x0a, 0x00,
                                     0x01, 0x01};
    const auto ck = internet_checksum(pkt);
    pkt[10] = static_cast<std::uint8_t>(ck >> 8);
    pkt[11] = static_cast<std::uint8_t>(ck);
    EXPECT_EQ(internet_checksum(pkt), 0);
}

TEST(InternetChecksum, IncrementalUpdate16MatchesRecompute) {
    std::vector<std::uint8_t> pkt = {0x45, 0x00, 0x00, 0x1c, 0x12, 0x34,
                                     0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
                                     0xc0, 0xa8, 0x01, 0x02, 0x0a, 0x00,
                                     0x01, 0x01};
    const auto old_ck = internet_checksum(pkt);
    // Change the 16-bit word at offset 4 (the IP id field).
    const std::uint16_t old_word = 0x1234, new_word = 0xabcd;
    pkt[4] = 0xab;
    pkt[5] = 0xcd;
    const auto full = internet_checksum(pkt);
    EXPECT_EQ(checksum_update16(old_ck, old_word, new_word), full);
}

TEST(InternetChecksum, IncrementalUpdate32MatchesRecompute) {
    std::mt19937 rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::uint8_t> pkt(40);
        for (auto& b : pkt) b = static_cast<std::uint8_t>(rng());
        const auto old_ck = internet_checksum(pkt);
        std::uint32_t old_word = 0, new_word = rng();
        for (int i = 0; i < 4; ++i) {
            old_word = (old_word << 8) | pkt[12 + i];
            pkt[12 + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(new_word >> (24 - 8 * i));
        }
        EXPECT_EQ(checksum_update32(old_ck, old_word, new_word),
                  internet_checksum(pkt))
            << "trial " << trial;
    }
}

namespace {

/// RFC 1071 as written: big-endian 16-bit words summed one at a time
/// with end-around carry, an odd last byte padded with zero.
std::uint16_t reference_checksum(std::span<const std::uint8_t> d) {
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < d.size(); i += 2) {
        const std::uint32_t hi = d[i];
        const std::uint32_t lo = i + 1 < d.size() ? d[i + 1] : 0;
        sum += (hi << 8) | lo;
        sum = (sum & 0xffff) + (sum >> 16);
    }
    return static_cast<std::uint16_t>(~sum & 0xffff);
}

} // namespace

TEST(InternetChecksum, MatchesByteLoopReference) {
    // Every length 0-2000 of all-zero and all-0xff data: the sums that
    // fold to 0 and to 0xffff.
    for (std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
        const std::vector<std::uint8_t> data(2000, fill);
        for (std::size_t len = 0; len <= data.size(); ++len) {
            const std::span<const std::uint8_t> d(data.data(), len);
            ASSERT_EQ(internet_checksum(d), reference_checksum(d))
                << "fill " << int{fill} << " len " << len;
        }
    }
    // Random data of random lengths at both parities, starting at every
    // alignment, whole and fed in two parts split at an even offset.
    std::mt19937 rng(1071);
    std::vector<std::uint8_t> buf(2000 + 8);
    for (int trial = 0; trial < 4000; ++trial) {
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
        const std::size_t len = trial % 2 == 0 ? (rng() % 1001) * 2
                                               : (rng() % 1000) * 2 + 1;
        const std::size_t at = static_cast<std::size_t>(trial % 8);
        const std::span<const std::uint8_t> d(buf.data() + at, len);
        const std::uint16_t want = reference_checksum(d);
        ASSERT_EQ(internet_checksum(d), want) << "len " << len << " at " << at;
        const std::size_t cut = (rng() % (len + 1)) & ~std::size_t{1};
        ChecksumAccumulator acc;
        acc.add_bytes(d.first(cut));
        acc.add_bytes(d.subspan(cut));
        ASSERT_EQ(acc.finalize(), want) << "len " << len << " cut " << cut;
    }
}

TEST(PseudoHeader, KnownUdpChecksum) {
    // Hand-computed UDP datagram: 10.0.0.1:1000 -> 10.0.0.2:2000,
    // payload "hi", length 10.
    ChecksumAccumulator acc;
    add_pseudo_header(acc, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 17,
                      10);
    const std::uint8_t udp[] = {0x03, 0xe8, 0x07, 0xd0, 0x00,
                                0x0a, 0x00, 0x00, 'h',  'i'};
    acc.add_bytes(udp);
    const auto ck = acc.finalize();
    // Verify: re-adding with the checksum in place folds to zero.
    ChecksumAccumulator verify;
    add_pseudo_header(verify, Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                      17, 10);
    std::uint8_t udp2[10];
    std::copy(std::begin(udp), std::end(udp), udp2);
    udp2[6] = static_cast<std::uint8_t>(ck >> 8);
    udp2[7] = static_cast<std::uint8_t>(ck);
    verify.add_bytes(udp2);
    EXPECT_EQ(verify.finalize(), 0);
    EXPECT_NE(ck, 0);
}

TEST(Crc32c, KnownVectors) {
    // RFC 3720 / common test vectors.
    const std::uint8_t zeros[32] = {};
    EXPECT_EQ(crc32c(zeros), 0x8a9136aau);

    std::uint8_t ones[32];
    std::fill(std::begin(ones), std::end(ones), 0xff);
    EXPECT_EQ(crc32c(ones), 0x62a8ab43u);

    const char* s = "123456789";
    EXPECT_EQ(crc32c({reinterpret_cast<const std::uint8_t*>(s), 9}),
              0xe3069283u);
}

TEST(Crc32c, EmptyInput) {
    EXPECT_EQ(crc32c({}), 0u);
}
