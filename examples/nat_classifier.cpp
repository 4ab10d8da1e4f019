// NAT classifier: a STUN-style characterization of a gateway from the
// outside, answering the hole-punching questions of Ford et al. (the
// paper's reference [10]): does the NAT preserve source ports, does it
// reuse expired bindings, how long do bindings live, and what does it do
// with transports it does not understand?
//
//   ./nat_classifier [tag...]      (default: a representative set)
#include <iostream>
#include <vector>

#include "devices/profiles.hpp"
#include "harness/testrund.hpp"
#include "report/table.hpp"

using namespace gatekit;

namespace {

std::string verdict(const harness::DeviceResults& r) {
    // A "well-behaving" NAT for UDP hole punching keeps predictable
    // external ports and reasonable timeouts.
    if (!r.udp4.preserves_source_port)
        return "hard (unpredictable external ports)";
    if (!r.udp4.reuses_expired_binding)
        return "moderate (port quarantined after expiry)";
    if (r.udp1.summary().median < 60)
        return "moderate (very short binding timeout)";
    return "friendly (port-preserving, reusable bindings)";
}

} // namespace

int main(int argc, char** argv) {
    std::vector<std::string> tags;
    for (int i = 1; i < argc; ++i) tags.emplace_back(argv[i]);
    if (tags.empty()) tags = {"owrt", "ap", "be1", "ng3", "ls1", "nw1"};

    harness::ShardScheduler::Options opts;
    for (const auto& tag : tags) {
        auto p = devices::find_profile(tag);
        if (!p) {
            std::cerr << "unknown device tag '" << tag << "'\n";
            return 1;
        }
        opts.roster.push_back(*p);
    }

    harness::CampaignConfig& cfg = opts.config;
    cfg.udp1 = cfg.udp4 = true;
    cfg.udp.repetitions = 3;
    cfg.transports = true;

    const auto results = harness::ShardScheduler::run(opts).results;

    report::TextTable table({"device", "preserves port", "reuses binding",
                             "UDP timeout [s]", "unknown transports",
                             "hole-punching verdict"});
    for (const auto& r : results) {
        table.add_row({r.tag,
                       r.udp4.preserves_source_port ? "yes" : "no",
                       r.udp4.preserves_source_port
                           ? (r.udp4.reuses_expired_binding ? "yes" : "no")
                           : "-",
                       report::fmt_double(r.udp1.summary().median, 0),
                       to_string(r.transports.sctp_action),
                       verdict(r)});
    }
    std::cout << "NAT classification (outside view, STUN-style probing)\n"
              << "=====================================================\n";
    table.print(std::cout);
    std::cout << "\nThe paper's section 4.4 observation holds: no device "
                 "class wins on every axis,\nso traversal code must handle "
                 "all of these behaviors.\n";
    return 0;
}
