#include "pcap/capture_tap.hpp"

namespace gatekit::pcap {

void CaptureTap::attach(sim::Link& link) {
    link_ = &link;
    link.set_tap([this](sim::Link::Side from, sim::TimePoint at,
                        std::span<const std::uint8_t> frame) {
        if (filter_ == Filter::AToB && from != sim::Link::Side::A) return;
        if (filter_ == Filter::BToA && from != sim::Link::Side::B) return;
        records_.push_back(
            Record{at, std::vector<std::uint8_t>(frame.begin(), frame.end())});
    });
}

void CaptureTap::detach() {
    if (link_ != nullptr) link_->set_tap(nullptr);
    link_ = nullptr;
}

} // namespace gatekit::pcap
