// Network-byte-order serialization primitives. All wire formats in
// gatekit are produced by BufferWriter and consumed by BufferReader, so
// byte-order handling lives in exactly one place.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace gatekit::net {

/// Thrown when parsing runs off the end of a packet or meets an
/// impossible length field. Malformed input is data, not a logic error.
class ParseError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

using Bytes = std::vector<std::uint8_t>;

/// Big-endian stores, for writers that fill a buffer in place.
inline void store_u16(std::uint8_t* p, std::uint16_t v) {
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
}
inline void store_u32(std::uint8_t* p, std::uint32_t v) {
    store_u16(p, static_cast<std::uint16_t>(v >> 16));
    store_u16(p + 2, static_cast<std::uint16_t>(v));
}

/// Appends big-endian integers and raw bytes; supports back-patching for
/// length and checksum fields whose value is known only after the payload.
class BufferWriter {
public:
    BufferWriter() = default;
    explicit BufferWriter(std::size_t reserve) { data_.reserve(reserve); }

    void u8(std::uint8_t v) { data_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u48(std::uint64_t v); ///< 48-bit field (DCCP long sequence numbers)
    void bytes(std::span<const std::uint8_t> b);
    void zeros(std::size_t n);

    /// Overwrite a 16-bit big-endian field at `offset` (must be in range).
    void patch_u16(std::size_t offset, std::uint16_t v);
    /// Overwrite a 32-bit big-endian field at `offset` (must be in range).
    void patch_u32(std::size_t offset, std::uint32_t v);

    std::size_t size() const { return data_.size(); }
    std::span<const std::uint8_t> view() const { return data_; }
    std::span<std::uint8_t> mutable_view() { return data_; }

    /// Move the accumulated bytes out; the writer is empty afterwards.
    Bytes take() { return std::move(data_); }

private:
    Bytes data_;
};

/// Reads big-endian integers and raw byte runs; throws ParseError on
/// underrun so callers never index out of bounds.
class BufferReader {
public:
    explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u48();
    std::span<const std::uint8_t> bytes(std::size_t n);
    void skip(std::size_t n);

    std::size_t position() const { return pos_; }
    std::size_t remaining() const { return data_.size() - pos_; }
    bool empty() const { return remaining() == 0; }

    /// All bytes not yet consumed, without consuming them.
    std::span<const std::uint8_t> rest() const { return data_.subspan(pos_); }

    /// Random access to the underlying data (for offset-based fields).
    std::span<const std::uint8_t> whole() const { return data_; }

private:
    void need(std::size_t n) const;

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

/// Hex dump ("0a 1b ..") used by error messages and pcap tooling.
std::string hexdump(std::span<const std::uint8_t> b);

} // namespace gatekit::net
