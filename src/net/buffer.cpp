#include "net/buffer.hpp"

#include "util/assert.hpp"

namespace gatekit::net {

void BufferWriter::u16(std::uint16_t v) {
    data_.push_back(static_cast<std::uint8_t>(v >> 8));
    data_.push_back(static_cast<std::uint8_t>(v));
}

void BufferWriter::u32(std::uint32_t v) {
    data_.push_back(static_cast<std::uint8_t>(v >> 24));
    data_.push_back(static_cast<std::uint8_t>(v >> 16));
    data_.push_back(static_cast<std::uint8_t>(v >> 8));
    data_.push_back(static_cast<std::uint8_t>(v));
}

void BufferWriter::u48(std::uint64_t v) {
    GK_EXPECTS(v < (1ULL << 48));
    for (int shift = 40; shift >= 0; shift -= 8)
        data_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void BufferWriter::bytes(std::span<const std::uint8_t> b) {
    data_.insert(data_.end(), b.begin(), b.end());
}

void BufferWriter::zeros(std::size_t n) { data_.insert(data_.end(), n, 0); }

void BufferWriter::patch_u16(std::size_t offset, std::uint16_t v) {
    GK_EXPECTS(offset + 2 <= data_.size());
    store_u16(data_.data() + offset, v);
}

void BufferWriter::patch_u32(std::size_t offset, std::uint32_t v) {
    GK_EXPECTS(offset + 4 <= data_.size());
    store_u32(data_.data() + offset, v);
}

void BufferReader::need(std::size_t n) const {
    if (remaining() < n)
        throw ParseError("packet truncated: need " + std::to_string(n) +
                         " bytes, have " + std::to_string(remaining()));
}

std::uint8_t BufferReader::u8() {
    need(1);
    return data_[pos_++];
}

std::uint16_t BufferReader::u16() {
    need(2);
    const auto v = static_cast<std::uint16_t>((data_[pos_] << 8) |
                                              data_[pos_ + 1]);
    pos_ += 2;
    return v;
}

std::uint32_t BufferReader::u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
}

std::uint64_t BufferReader::u48() {
    need(6);
    std::uint64_t v = 0;
    for (int i = 0; i < 6; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 6;
    return v;
}

std::span<const std::uint8_t> BufferReader::bytes(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
}

void BufferReader::skip(std::size_t n) {
    need(n);
    pos_ += n;
}

std::string hexdump(std::span<const std::uint8_t> b) {
    static constexpr char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(b.size() * 3);
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (i != 0) out.push_back(' ');
        out.push_back(digits[b[i] >> 4]);
        out.push_back(digits[b[i] & 0xf]);
    }
    return out;
}

} // namespace gatekit::net
