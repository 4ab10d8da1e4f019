#include "stack/sctp_endpoint.hpp"

#include "net/ipv4.hpp"
#include "stack/host.hpp"
#include "util/assert.hpp"

namespace gatekit::stack {

namespace {
constexpr sim::Duration kT1Init = std::chrono::seconds(1);
constexpr int kMaxInitRetries = 4;

// Chunk bodies (simplified but wire-plausible):
// INIT / INIT-ACK: initiate_tag(4) a_rwnd(4) out_streams(2) in_streams(2)
// initial_tsn(4); INIT-ACK additionally appends a state-cookie parameter.
net::Bytes make_init_body(std::uint32_t tag, std::uint32_t tsn) {
    net::BufferWriter w(16);
    w.u32(tag);
    w.u32(65536); // a_rwnd
    w.u16(1);     // outbound streams
    w.u16(1);     // inbound streams
    w.u32(tsn);
    return w.take();
}

std::uint32_t init_tag(std::span<const std::uint8_t> body) {
    net::BufferReader r(body);
    return r.u32();
}

} // namespace

void SctpEndpoint::connect(net::Endpoint remote) {
    GK_EXPECTS(state_ == State::Closed);
    remote_ = remote;
    my_vtag_ = 0x5c7b0000u | local_port_; // deterministic per endpoint
    state_ = State::CookieWait;
    send_init();
}

void SctpEndpoint::send_init() {
    net::SctpPacket pkt;
    pkt.src_port = local_port_;
    pkt.dst_port = remote_.port;
    pkt.verification_tag = 0; // INIT always carries tag 0
    net::SctpChunk init;
    init.type = net::SctpChunkType::Init;
    init.value = make_init_body(my_vtag_, my_tsn_);
    pkt.chunks.push_back(std::move(init));
    send_packet(std::move(pkt));
    arm_t1();
}

void SctpEndpoint::arm_t1() {
    if (t1_timer_) host_.loop().cancel(t1_timer_);
    t1_timer_ = host_.loop().after(kT1Init, [this] {
        t1_timer_ = sim::EventId{};
        if (state_ == State::Established) return;
        if (++init_retries_ > kMaxInitRetries) {
            state_ = State::Closed;
            if (on_error) on_error("SCTP association timed out");
            return;
        }
        if (state_ == State::CookieWait) send_init();
        // COOKIE-ECHO retransmission is folded into the same timer.
        if (state_ == State::CookieEchoed) {
            net::SctpPacket pkt;
            pkt.src_port = local_port_;
            pkt.dst_port = remote_.port;
            pkt.verification_tag = peer_vtag_;
            pkt.chunks.push_back(
                net::SctpChunk{net::SctpChunkType::CookieEcho, 0, {}});
            send_packet(std::move(pkt));
            arm_t1();
        }
    });
}

bool SctpEndpoint::send_data(net::Bytes payload) {
    if (state_ != State::Established) return false;
    net::SctpPacket pkt;
    pkt.src_port = local_port_;
    pkt.dst_port = remote_.port;
    pkt.verification_tag = peer_vtag_;
    net::SctpChunk data;
    data.type = net::SctpChunkType::Data;
    data.flags = 0x03; // beginning+end fragment (whole message)
    net::BufferWriter w(12 + payload.size());
    w.u32(my_tsn_++);
    w.u16(0); // stream id
    w.u16(0); // stream seq
    w.u32(0); // payload protocol id
    w.bytes(payload);
    data.value = w.take();
    pkt.chunks.push_back(std::move(data));
    send_packet(std::move(pkt));
    return true;
}

void SctpEndpoint::send_packet(net::SctpPacket pkt) {
    host_.send_datagram({.protocol = net::proto::kSctp,
                         .src = local_addr_,
                         .dst = remote_.addr},
                        pkt.serialize());
}

void SctpEndpoint::on_packet(const net::SctpPacket& pkt,
                             net::Ipv4Addr peer_addr) {
    using net::SctpChunkType;

    if (listening_ && state_ == State::Closed) {
        if (const auto* init = pkt.find(SctpChunkType::Init)) {
            remote_ = {peer_addr, pkt.src_port};
            peer_vtag_ = init_tag(init->value);
            my_vtag_ = 0x5e7f0000u | local_port_;
            net::SctpPacket ack;
            ack.src_port = local_port_;
            ack.dst_port = remote_.port;
            ack.verification_tag = peer_vtag_;
            net::SctpChunk chunk;
            chunk.type = SctpChunkType::InitAck;
            chunk.value = make_init_body(my_vtag_, my_tsn_);
            ack.chunks.push_back(std::move(chunk));
            send_packet(std::move(ack));
            // Passive side stays Closed until COOKIE-ECHO; a lost INIT-ACK
            // is covered by the peer's INIT retransmission.
            state_ = State::CookieEchoed; // provisional: awaiting echo
            return;
        }
    }

    if (state_ == State::CookieWait) {
        if (const auto* ia = pkt.find(SctpChunkType::InitAck)) {
            peer_vtag_ = init_tag(ia->value);
            net::SctpPacket echo;
            echo.src_port = local_port_;
            echo.dst_port = remote_.port;
            echo.verification_tag = peer_vtag_;
            echo.chunks.push_back(
                net::SctpChunk{SctpChunkType::CookieEcho, 0, {}});
            send_packet(std::move(echo));
            state_ = State::CookieEchoed;
            arm_t1();
            return;
        }
    }

    if (state_ == State::CookieEchoed) {
        if (listening_ && pkt.find(SctpChunkType::CookieEcho) != nullptr) {
            net::SctpPacket ack;
            ack.src_port = local_port_;
            ack.dst_port = remote_.port;
            ack.verification_tag = peer_vtag_;
            ack.chunks.push_back(
                net::SctpChunk{SctpChunkType::CookieAck, 0, {}});
            send_packet(std::move(ack));
            state_ = State::Established;
            if (t1_timer_) host_.loop().cancel(t1_timer_);
            if (on_established) on_established();
            return;
        }
        if (!listening_ && pkt.find(SctpChunkType::CookieAck) != nullptr) {
            state_ = State::Established;
            if (t1_timer_) host_.loop().cancel(t1_timer_);
            if (on_established) on_established();
            return;
        }
    }

    if (state_ == State::Established && pkt.verification_tag == my_vtag_) {
        if (const auto* data = pkt.find(SctpChunkType::Data)) {
            if (data->value.size() >= 12) {
                net::BufferReader r(data->value);
                const std::uint32_t tsn = r.u32();
                r.skip(8);
                const auto body = r.rest();
                // Acknowledge with a SACK (cumulative TSN only).
                net::SctpPacket sack;
                sack.src_port = local_port_;
                sack.dst_port = remote_.port;
                sack.verification_tag = peer_vtag_;
                net::SctpChunk chunk;
                chunk.type = SctpChunkType::Sack;
                net::BufferWriter w(12);
                w.u32(tsn);
                w.u32(65536);
                w.u16(0);
                w.u16(0);
                chunk.value = w.take();
                sack.chunks.push_back(std::move(chunk));
                send_packet(std::move(sack));
                if (on_data) on_data(body);
            }
        }
    }
}

} // namespace gatekit::stack
