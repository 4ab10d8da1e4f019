// ICMP (RFC 792). Error messages embed the offending IP header + first 8
// payload bytes; translating those embedded bytes (addresses, ports, and
// both checksums) correctly is exactly what Table 2 of the paper tests.
#pragma once

#include <cstdint>

#include "net/addr.hpp"
#include "net/buffer.hpp"

namespace gatekit::net {

enum class IcmpType : std::uint8_t {
    EchoReply = 0,
    DestUnreachable = 3,
    SourceQuench = 4,
    Echo = 8,
    TimeExceeded = 11,
    ParamProblem = 12,
};

/// Codes for DestUnreachable.
namespace icmp_code {
inline constexpr std::uint8_t kNetUnreachable = 0;
inline constexpr std::uint8_t kHostUnreachable = 1;
inline constexpr std::uint8_t kProtoUnreachable = 2;
inline constexpr std::uint8_t kPortUnreachable = 3;
inline constexpr std::uint8_t kFragNeeded = 4;
inline constexpr std::uint8_t kSourceRouteFailed = 5;
// Codes for TimeExceeded:
inline constexpr std::uint8_t kTtlExceeded = 0;
inline constexpr std::uint8_t kReassemblyTimeExceeded = 1;
} // namespace icmp_code

/// True for the four error types, whose body quotes the offending
/// datagram.
constexpr bool is_icmp_error(std::uint8_t type) {
    return type == static_cast<std::uint8_t>(IcmpType::DestUnreachable) ||
           type == static_cast<std::uint8_t>(IcmpType::SourceQuench) ||
           type == static_cast<std::uint8_t>(IcmpType::TimeExceeded) ||
           type == static_cast<std::uint8_t>(IcmpType::ParamProblem);
}

/// Recompute the checksum of a serialized ICMP message in place, over
/// the whole message.
void refresh_icmp_checksum(std::span<std::uint8_t> message);

struct IcmpMessage {
    IcmpType type = IcmpType::Echo;
    std::uint8_t code = 0;
    /// Second header word. Echo/EchoReply: id<<16 | seq. FragNeeded:
    /// next-hop MTU in the low 16 bits. ParamProblem: pointer<<24.
    std::uint32_t rest = 0;
    /// Echo data, or the embedded IP datagram prefix for error messages.
    Bytes payload;

    std::uint16_t stored_checksum = 0; ///< parse only
    bool checksum_ok = true;           ///< parse only

    Bytes serialize() const;
    static IcmpMessage parse(std::span<const std::uint8_t> data);

    bool is_error() const {
        return is_icmp_error(static_cast<std::uint8_t>(type));
    }

    // Echo helpers.
    std::uint16_t echo_id() const {
        return static_cast<std::uint16_t>(rest >> 16);
    }
    std::uint16_t echo_seq() const {
        return static_cast<std::uint16_t>(rest);
    }
    static IcmpMessage make_echo(bool reply, std::uint16_t id,
                                 std::uint16_t seq, Bytes data = {});

    /// Build an error of the given type/code quoting the given original
    /// datagram (truncated to IP header + 8 bytes per RFC 792).
    static IcmpMessage make_error(IcmpType type, std::uint8_t code,
                                  std::uint32_t rest,
                                  std::span<const std::uint8_t> original_datagram);
};

} // namespace gatekit::net
