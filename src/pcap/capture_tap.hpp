// In-memory packet capture attached to a simulated link, mirroring how
// the paper attached libpcap to the testbed segments.
#pragma once

#include <vector>

#include "pcap/pcap.hpp"
#include "sim/link.hpp"

namespace gatekit::pcap {

/// Records every frame crossing a Link, in either or one direction.
/// Install with `tap.attach(link)`; the tap must outlive the link's use.
class CaptureTap {
public:
    enum class Filter { Both, AToB, BToA };

    explicit CaptureTap(Filter filter = Filter::Both) : filter_(filter) {}

    /// Install on a link (replaces any previous tap on that link).
    void attach(sim::Link& link);
    /// Stop recording; the records so far are kept.
    void detach();
    bool attached() const { return link_ != nullptr; }

    const std::vector<Record>& records() const { return records_; }
    void clear() { records_.clear(); }

    /// Dump the capture to a pcap file.
    void save(const std::string& path) const {
        Writer::write_file(path, records_);
    }

private:
    Filter filter_;
    sim::Link* link_ = nullptr;
    std::vector<Record> records_;
};

} // namespace gatekit::pcap
