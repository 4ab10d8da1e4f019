#include "net/addr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <vector>

#include "net/buffer.hpp"

using namespace gatekit::net;

TEST(MacAddr, ParseAndFormatRoundTrip) {
    const auto mac = MacAddr::parse("02:00:5e:10:00:01");
    EXPECT_EQ(mac.to_string(), "02:00:5e:10:00:01");
}

TEST(MacAddr, ParseRejectsGarbage) {
    EXPECT_THROW(MacAddr::parse("02:00:5e:10:00"), ParseError);
    EXPECT_THROW(MacAddr::parse("02:00:5e:10:00:01:02"), ParseError);
    EXPECT_THROW(MacAddr::parse("zz:00:5e:10:00:01"), ParseError);
    EXPECT_THROW(MacAddr::parse(""), ParseError);
}

TEST(MacAddr, BroadcastAndMulticast) {
    EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
    EXPECT_TRUE(MacAddr::broadcast().is_multicast());
    const auto uni = MacAddr::from_index(7);
    EXPECT_FALSE(uni.is_broadcast());
    EXPECT_FALSE(uni.is_multicast());
}

TEST(MacAddr, FromIndexIsInjective) {
    EXPECT_NE(MacAddr::from_index(1), MacAddr::from_index(2));
    EXPECT_NE(MacAddr::from_index(1), MacAddr::from_index(257));
    EXPECT_EQ(MacAddr::from_index(5), MacAddr::from_index(5));
}

TEST(MacAddr, OrderIsLexicographic) {
    auto lexicographic = [](const MacAddr& a, const MacAddr& b) {
        return std::lexicographical_compare(a.octets().begin(),
                                            a.octets().end(),
                                            b.octets().begin(),
                                            b.octets().end());
    };
    auto check = [&](const MacAddr& a, const MacAddr& b) {
        EXPECT_EQ(a < b, lexicographic(a, b)) << a.to_string() << " "
                                              << b.to_string();
        EXPECT_EQ(b < a, lexicographic(b, a));
        EXPECT_EQ(a == b, a.octets() == b.octets());
        EXPECT_EQ((a <=> b) == 0, a.octets() == b.octets());
    };
    // Edges: all-zero, broadcast, and pairs that differ only in the first
    // or only in the last octet, in each direction of each octet's sign
    // bit.
    std::vector<MacAddr> edges = {MacAddr(), MacAddr::broadcast()};
    for (std::size_t i = 0; i < 6; ++i)
        for (std::uint8_t v : {0x01, 0x7f, 0x80, 0xfe}) {
            std::array<std::uint8_t, 6> o{};
            o[i] = v;
            edges.emplace_back(o);
            o.fill(0xff);
            o[i] = v;
            edges.emplace_back(o);
        }
    for (const auto& a : edges)
        for (const auto& b : edges) check(a, b);

    std::mt19937 rng(48);
    for (int trial = 0; trial < 20000; ++trial) {
        std::array<std::uint8_t, 6> a{}, b{};
        for (auto& x : a) x = static_cast<std::uint8_t>(rng());
        b = a;
        // Share a random-length prefix so that every octet decides some
        // comparisons.
        for (std::size_t i = rng() % 7; i < 6; ++i)
            b[i] = static_cast<std::uint8_t>(rng());
        check(MacAddr(a), MacAddr(b));
    }
}

TEST(Ipv4Addr, ParseAndFormatRoundTrip) {
    const auto a = Ipv4Addr::parse("192.168.1.254");
    EXPECT_EQ(a.to_string(), "192.168.1.254");
    EXPECT_EQ(a, Ipv4Addr(192, 168, 1, 254));
}

TEST(Ipv4Addr, ParseRejectsGarbage) {
    EXPECT_THROW(Ipv4Addr::parse("192.168.1"), ParseError);
    EXPECT_THROW(Ipv4Addr::parse("192.168.1.256"), ParseError);
    EXPECT_THROW(Ipv4Addr::parse("192.168.1.1.1"), ParseError);
    EXPECT_THROW(Ipv4Addr::parse("a.b.c.d"), ParseError);
}

TEST(Ipv4Addr, PrivateRanges) {
    EXPECT_TRUE(Ipv4Addr(10, 0, 3, 1).is_private());
    EXPECT_TRUE(Ipv4Addr(172, 16, 0, 1).is_private());
    EXPECT_TRUE(Ipv4Addr(172, 31, 255, 255).is_private());
    EXPECT_FALSE(Ipv4Addr(172, 32, 0, 1).is_private());
    EXPECT_TRUE(Ipv4Addr(192, 168, 99, 7).is_private());
    EXPECT_FALSE(Ipv4Addr(8, 8, 8, 8).is_private());
}

TEST(Ipv4Addr, SameSubnet) {
    const auto a = Ipv4Addr(192, 168, 1, 10);
    EXPECT_TRUE(a.same_subnet(Ipv4Addr(192, 168, 1, 200), 24));
    EXPECT_FALSE(a.same_subnet(Ipv4Addr(192, 168, 2, 10), 24));
    EXPECT_TRUE(a.same_subnet(Ipv4Addr(192, 168, 2, 10), 16));
    EXPECT_TRUE(a.same_subnet(Ipv4Addr(1, 2, 3, 4), 0));
    EXPECT_FALSE(a.same_subnet(Ipv4Addr(192, 168, 1, 11), 32));
}

TEST(Endpoint, OrderingAndFormat) {
    const Endpoint a{Ipv4Addr(10, 0, 0, 1), 80};
    const Endpoint b{Ipv4Addr(10, 0, 0, 1), 81};
    const Endpoint c{Ipv4Addr(10, 0, 0, 2), 1};
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_EQ(to_string(a), "10.0.0.1:80");
}
