#include "stack/dccp_endpoint.hpp"

#include <algorithm>

#include "net/ipv4.hpp"
#include "stack/host.hpp"
#include "util/assert.hpp"

namespace gatekit::stack {

namespace {
constexpr sim::Duration kRetryInterval = std::chrono::seconds(1);
constexpr int kMaxRetries = 4;
} // namespace

void DccpEndpoint::connect(net::Endpoint remote, std::uint32_t service_code) {
    GK_EXPECTS(state_ == State::Closed);
    remote_ = remote;
    service_code_ = service_code;
    state_ = State::RequestSent;
    net::DccpPacket req;
    req.type = net::DccpType::Request;
    req.seq = seq_++;
    req.service_code = service_code_;
    send_packet(std::move(req));
    arm_retry();
}

void DccpEndpoint::arm_retry() {
    if (retry_timer_) host_.loop().cancel(retry_timer_);
    retry_timer_ = host_.loop().after(kRetryInterval, [this] {
        retry_timer_ = sim::EventId{};
        if (state_ == State::Open || state_ == State::Closed) return;
        if (++retries_ > kMaxRetries) {
            state_ = State::Closed;
            if (on_error) on_error("DCCP connection timed out");
            return;
        }
        if (state_ == State::RequestSent) {
            net::DccpPacket req;
            req.type = net::DccpType::Request;
            req.seq = seq_++;
            req.service_code = service_code_;
            send_packet(std::move(req));
        }
        arm_retry();
    });
}

bool DccpEndpoint::send_data(net::Bytes payload) {
    if (state_ != State::Open) return false;
    net::DccpPacket data;
    data.type = net::DccpType::Data;
    data.seq = seq_++;
    data.payload = std::move(payload);
    send_packet(std::move(data));
    return true;
}

void DccpEndpoint::send_packet(net::DccpPacket pkt) {
    pkt.src_port = local_port_;
    pkt.dst_port = remote_.port;
    // The checksum covers the pseudo-header: it takes the host's source.
    host_.send_datagram(
        {.protocol = net::proto::kDccp, .src = local_addr_,
         .dst = remote_.addr},
        pkt.wire_len(), [&](std::span<std::uint8_t> l4, net::Ipv4Addr src) {
            const net::Bytes bytes = pkt.serialize(src, remote_.addr);
            std::copy(bytes.begin(), bytes.end(), l4.begin());
        });
}

void DccpEndpoint::on_packet(const net::DccpPacket& pkt,
                             net::Ipv4Addr peer_addr) {
    using net::DccpType;
    switch (state_) {
    case State::Closed:
        if (listening_ && pkt.type == DccpType::Request) {
            remote_ = {peer_addr, pkt.src_port};
            state_ = State::RespondSent;
            net::DccpPacket resp;
            resp.type = DccpType::Response;
            resp.seq = seq_++;
            resp.ack_seq = pkt.seq;
            resp.service_code = pkt.service_code;
            send_packet(std::move(resp));
        }
        break;
    case State::RequestSent:
        if (pkt.type == DccpType::Response) {
            net::DccpPacket ack;
            ack.type = DccpType::Ack;
            ack.seq = seq_++;
            ack.ack_seq = pkt.seq;
            send_packet(std::move(ack));
            state_ = State::Open;
            if (retry_timer_) host_.loop().cancel(retry_timer_);
            if (on_established) on_established();
        }
        break;
    case State::RespondSent:
        if (pkt.type == DccpType::Ack || pkt.type == DccpType::DataAck ||
            pkt.type == DccpType::Data) {
            state_ = State::Open;
            if (on_established) on_established();
            if (pkt.type == DccpType::Data && on_data) on_data(pkt.payload);
        } else if (pkt.type == DccpType::Request) {
            // Retransmitted Request: resend the Response.
            net::DccpPacket resp;
            resp.type = DccpType::Response;
            resp.seq = seq_++;
            resp.ack_seq = pkt.seq;
            resp.service_code = pkt.service_code;
            send_packet(std::move(resp));
        }
        break;
    case State::Open:
        if (pkt.type == DccpType::Data && on_data) on_data(pkt.payload);
        break;
    }
}

} // namespace gatekit::stack
