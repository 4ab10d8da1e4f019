#include "harness/testbed.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace gatekit::harness {

namespace {
constexpr std::uint64_t kLinkRate = 100'000'000; // 100 Mb/s Ethernet
constexpr sim::Duration kLinkProp = std::chrono::microseconds(1);
} // namespace

Testbed::Testbed(sim::EventLoop& loop)
    : loop_(loop), lan_switch_(loop), wan_switch_(loop),
      client_(loop, "test-client", net::MacAddr::from_index(1)),
      server_(loop, "test-server", net::MacAddr::from_index(2)),
      client_trunk_(loop, kLinkRate, kLinkProp),
      server_trunk_(loop, kLinkRate, kLinkProp) {
    // Trunk links from hosts to their switches.
    client_.nic().connect(client_trunk_, sim::Link::Side::A);
    lan_switch_.connect(lan_switch_.add_trunk_port(), client_trunk_,
                        sim::Link::Side::B);
    server_.nic().connect(server_trunk_, sim::Link::Side::A);
    wan_switch_.connect(wan_switch_.add_trunk_port(), server_trunk_,
                        sim::Link::Side::B);
    dns_ = std::make_unique<stack::DnsServer>(server_, net::Ipv4Addr::any());
    dns_->add_txt_record(kBigName, kBigAnswerSize);

    // The test server is every gateway's default router, so it must also
    // route *between* the per-device WAN subnets — that is "the Internet"
    // as far as two homes talking to each other are concerned (the
    // hole-punching example depends on it).
    server_.set_forward_hook([this](stack::Iface&, const net::PacketView& v,
                                    std::span<const std::uint8_t> raw) {
        if (v.ttl() <= 1) return;
        const stack::Route* route = server_.lookup_route(v.dst());
        if (route == nullptr || !route->iface->configured()) return;
        net::Bytes fwd(raw.begin(), raw.begin() + v.total_len());
        net::PacketView::of(fwd).decrement_ttl();
        server_.send_raw(*route->iface, std::move(fwd),
                         route->via ? *route->via : v.dst());
    });
}

int Testbed::add_device(gateway::DeviceProfile profile) {
    return add_device(std::move(profile), next_number_);
}

std::unique_ptr<Testbed::DeviceSlot>
Testbed::make_slot(gateway::DeviceProfile profile, int number) {
    GK_EXPECTS(!started_);
    GK_EXPECTS(number >= 1);
    if (std::string err = profile.validate(); !err.empty())
        throw std::invalid_argument(
            "device profile '" + profile.tag + "': " + err);
    const int n = number;
    // The 12-bit VLAN space caps a single testbed at 1000 devices:
    // device n takes LAN VLAN 2000+((n-1)%1000+1) and WAN VLAN
    // 1000+((n-1)%1000+1), so ids never leave their thousand band (and
    // are untouched for n <= 1000, which covers every calibrated
    // artifact). Sharded campaigns build one-device testbeds, so the
    // cap bounds co-resident devices, not roster size.
    GK_EXPECTS(slots_.size() < 1000);
    auto slot = std::make_unique<DeviceSlot>();
    slot->index = n;
    const auto n8 = static_cast<std::uint8_t>(n);
    const auto vlan_slot = static_cast<std::uint16_t>((n - 1) % 1000 + 1);

    // Gateway n: LAN 192.168.n.1/24, WAN leased from 10.0.n.0/24.
    gateway::HomeGateway::Config cfg;
    cfg.profile = std::move(profile);
    cfg.lan_addr = net::Ipv4Addr(192, 168, n8, 1);
    cfg.lan_pool_base = net::Ipv4Addr(192, 168, n8, 100);
    cfg.mac_index = 1000 + static_cast<std::uint32_t>(2 * n);
    slot->gw = std::make_unique<gateway::HomeGateway>(loop_, std::move(cfg));

    // LAN side: access port on VLAN 2000+vlan_slot, client vlan-if on
    // the trunk.
    slot->lan_link = std::make_unique<sim::Link>(loop_, kLinkRate, kLinkProp);
    slot->gw->connect_lan(*slot->lan_link, sim::Link::Side::A);
    lan_switch_.connect(
        lan_switch_.add_access_port(
            static_cast<std::uint16_t>(2000 + vlan_slot)),
        *slot->lan_link, sim::Link::Side::B);
    slot->client_if =
        &client_.add_iface(static_cast<std::uint16_t>(2000 + vlan_slot));

    // WAN link (the caller wires its far end to a switch port).
    slot->wan_link = std::make_unique<sim::Link>(loop_, kLinkRate, kLinkProp);
    slot->gw->connect_wan(*slot->wan_link, sim::Link::Side::A);
    return slot;
}

int Testbed::add_device(gateway::DeviceProfile profile, int number) {
    next_number_ = std::max(next_number_, number + 1);
    auto slot = make_slot(std::move(profile), number);
    const int n = number;
    const auto n8 = static_cast<std::uint8_t>(n);
    const auto vlan_slot = static_cast<std::uint16_t>((n - 1) % 1000 + 1);

    // WAN side: access port on VLAN 1000+vlan_slot, server vlan-if
    // 10.0.n.1/24.
    wan_switch_.connect(
        wan_switch_.add_access_port(
            static_cast<std::uint16_t>(1000 + vlan_slot)),
        *slot->wan_link, sim::Link::Side::B);
    slot->server_if =
        &server_.add_iface(static_cast<std::uint16_t>(1000 + vlan_slot));
    slot->server_addr = net::Ipv4Addr(10, 0, n8, 1);
    slot->server_if->configure(slot->server_addr, 24);
    server_.add_route(net::Ipv4Addr(10, 0, n8, 0), 24, *slot->server_if);

    // Test server leases 10.0.n.10.. to the gateway's WAN port, pointing
    // the gateway at itself for routing and DNS (the global DNS server
    // answers on every server address).
    stack::DhcpServerConfig wan_dhcp_cfg;
    wan_dhcp_cfg.pool_base = net::Ipv4Addr(10, 0, n8, 10);
    wan_dhcp_cfg.router = slot->server_addr;
    wan_dhcp_cfg.dns_server = slot->server_addr;
    slot->wan_dhcp = std::make_unique<stack::DhcpServer>(
        server_, *slot->server_if, wan_dhcp_cfg);

    slots_.push_back(std::move(slot));
    dns_->add_record(kTestName, slots_.back()->server_addr);
    if (obs_ != nullptr) bind_slot_observability(*slots_.back());
    return static_cast<int>(slots_.size()) - 1;
}

int Testbed::add_cgn_group(gateway::CgnConfig cgn) {
    GK_EXPECTS(!started_);
    // 100.64.c.0/24 access subnets key off the group's device number,
    // which must fit an octet.
    const int c = next_number_;
    GK_EXPECTS(c <= 250);
    next_number_ = c + 1;
    auto grp = std::make_unique<CgnGroup>();
    grp->index = c;
    const auto c8 = static_cast<std::uint8_t>(c);
    const auto vlan_slot = static_cast<std::uint16_t>((c - 1) % 1000 + 1);

    gateway::CgnGateway::Config cfg;
    cfg.cgn = cgn;
    cfg.access_addr = net::Ipv4Addr(100, 64, c8, 1);
    cfg.access_prefix_len = 24;
    cfg.access_pool_base = net::Ipv4Addr(100, 64, c8, 100);
    cfg.mac_index = 5000 + static_cast<std::uint32_t>(2 * c);
    grp->cgn = std::make_unique<gateway::CgnGateway>(loop_, cfg);

    // Access network: VLAN 3000+vlan_slot on the WAN switch; member
    // gateways' WAN links join the same segment.
    grp->access_link =
        std::make_unique<sim::Link>(loop_, kLinkRate, kLinkProp);
    grp->cgn->connect_access(*grp->access_link, sim::Link::Side::A);
    wan_switch_.connect(
        wan_switch_.add_access_port(
            static_cast<std::uint16_t>(3000 + vlan_slot)),
        *grp->access_link, sim::Link::Side::B);

    // Uplink: byte-for-byte a home gateway's WAN slot — VLAN
    // 1000+vlan_slot, server vlan-if 10.0.c.1/24, server-side DHCP.
    grp->wan_link = std::make_unique<sim::Link>(loop_, kLinkRate, kLinkProp);
    grp->cgn->connect_wan(*grp->wan_link, sim::Link::Side::A);
    wan_switch_.connect(
        wan_switch_.add_access_port(
            static_cast<std::uint16_t>(1000 + vlan_slot)),
        *grp->wan_link, sim::Link::Side::B);
    grp->server_if =
        &server_.add_iface(static_cast<std::uint16_t>(1000 + vlan_slot));
    grp->server_addr = net::Ipv4Addr(10, 0, c8, 1);
    grp->server_if->configure(grp->server_addr, 24);
    server_.add_route(net::Ipv4Addr(10, 0, c8, 0), 24, *grp->server_if);

    stack::DhcpServerConfig wan_dhcp_cfg;
    wan_dhcp_cfg.pool_base = net::Ipv4Addr(10, 0, c8, 10);
    wan_dhcp_cfg.router = grp->server_addr;
    wan_dhcp_cfg.dns_server = grp->server_addr;
    grp->wan_dhcp = std::make_unique<stack::DhcpServer>(
        server_, *grp->server_if, wan_dhcp_cfg);

    cgn_groups_.push_back(std::move(grp));
    dns_->add_record(kTestName, cgn_groups_.back()->server_addr);
    return static_cast<int>(cgn_groups_.size()) - 1;
}

int Testbed::add_device_behind_cgn(gateway::DeviceProfile profile,
                                   int group) {
    GK_EXPECTS(group >= 0 &&
               group < static_cast<int>(cgn_groups_.size()));
    const int n = next_number_;
    next_number_ = n + 1;
    auto slot = make_slot(std::move(profile), n);
    CgnGroup& g = *cgn_groups_[static_cast<std::size_t>(group)];
    slot->cgn_group = group;
    // The WAN link joins the group's access segment; the gateway leases
    // its WAN address (100.64.c.x) from the CGN instead of the server.
    const auto access_vlan = static_cast<std::uint16_t>(
        3000 + (g.index - 1) % 1000 + 1);
    wan_switch_.connect(wan_switch_.add_access_port(access_vlan),
                        *slot->wan_link, sim::Link::Side::B);
    // Probe traffic targets the far end of the NAT444 chain.
    slot->server_addr = g.server_addr;
    g.members.push_back(static_cast<int>(slots_.size()));
    slots_.push_back(std::move(slot));
    if (obs_ != nullptr) bind_slot_observability(*slots_.back());
    return static_cast<int>(slots_.size()) - 1;
}

std::string Testbed::device_label(const DeviceSlot& slot) {
    const std::string& tag = slot.gw->profile().tag;
    return (tag.empty() ? std::string("dev") : tag) + "#" +
           std::to_string(slot.index);
}

void Testbed::attach_observability(obs::Observability* obs) {
    obs_ = obs;
    obs::MetricsRegistry* reg = obs ? &obs->metrics() : nullptr;
    obs::Tracer* tracer = obs ? &obs->tracer() : nullptr;
    client_.bind_observability(reg, tracer);
    server_.bind_observability(reg, tracer);
    if (obs_ != nullptr)
        for (auto& slot : slots_) bind_slot_observability(*slot);
}

void Testbed::bind_slot_observability(DeviceSlot& slot) {
    const std::string device = device_label(slot);
    slot.gw->bind_observability(&obs_->metrics(), &obs_->tracer(), device);
    // With a trace sink on, the WAN link's trace events cross-reference
    // the slot's capture: the tap records at wire time before any
    // impairment draw, so at the moment an impairment event fires, the
    // affected frame is the last record. The tap outlives the link (both
    // live in the slot). With no sink nothing reads the capture, so the
    // tap stays unarmed rather than copying every WAN frame.
    sim::Link::FrameIndexFn frame_index;
    if (obs_->tracer().enabled()) {
        if (!slot.wan_tap.attached()) slot.wan_tap.attach(*slot.wan_link);
        const pcap::CaptureTap* tap = &slot.wan_tap;
        frame_index = [tap] {
            return static_cast<std::int64_t>(tap->records().size()) - 1;
        };
    }
    slot.wan_link->bind_observability(&obs_->metrics(), &obs_->tracer(),
                                      device + ".wan",
                                      std::move(frame_index));
    slot.lan_link->bind_observability(&obs_->metrics(), &obs_->tracer(),
                                      device + ".lan");
}

void Testbed::start(std::function<void()> on_ready) {
    GK_EXPECTS(!started_);
    started_ = true;
    on_ready_ = std::move(on_ready);
    // CGN groups come up first: a member gateway can only lease its WAN
    // address once the group's access-side DHCP service exists.
    for (auto& grp_ptr : cgn_groups_) {
        CgnGroup* grp = grp_ptr.get();
        grp->cgn->start([this, grp](net::Ipv4Addr external) {
            grp->external_addr = external;
            grp->ready = true;
            for (int i : grp->members)
                start_slot(*slots_[static_cast<std::size_t>(i)]);
            maybe_ready();
        });
    }
    for (auto& slot_ptr : slots_)
        if (slot_ptr->cgn_group < 0) start_slot(*slot_ptr);
}

void Testbed::start_slot(DeviceSlot& s) {
    DeviceSlot* slot = &s;
    slot->gw->start([this, slot](net::Ipv4Addr wan_addr) {
        slot->gw_wan_addr = wan_addr;
        // Gateway is up: configure the client's vlan-if through the
        // gateway's own DHCP server, then install the paper's
        // "interface-specific" routes (no default route).
        slot->client_dhcp =
            std::make_unique<stack::DhcpClient>(client_, *slot->client_if);
        slot->client_dhcp->start([this, slot](const stack::DhcpLease& l) {
            slot->client_addr = l.addr;
            slot->client_if->set_gateway(l.router);
            client_.add_route(l.addr, l.prefix_len, *slot->client_if);
            // Interface-specific route to the far-end test subnet: the
            // slot's own 10.0.n.0/24 for a direct uplink, or — behind a
            // CGN — the group's uplink subnet past the NAT444 chain.
            const int far = slot->cgn_group < 0
                                ? slot->index
                                : cgn_groups_[static_cast<std::size_t>(
                                                  slot->cgn_group)]
                                      ->index;
            client_.add_route(
                net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(far), 0),
                24, *slot->client_if, l.router);
            slot->ready = true;
            maybe_ready();
        });
    });
}

void Testbed::maybe_ready() {
    if (all_ready() && on_ready_) {
        auto cb = std::move(on_ready_);
        on_ready_ = nullptr;
        cb();
    }
}

bool Testbed::all_ready() const {
    for (const auto& grp : cgn_groups_)
        if (!grp->ready) return false;
    for (const auto& slot : slots_)
        if (!slot->ready) return false;
    return !slots_.empty();
}

void Testbed::start_and_wait() {
    bool ready = false;
    start([&ready] { ready = true; });
    loop_.run_until(loop_.now() + std::chrono::seconds(60));
    if (!ready)
        throw std::runtime_error("testbed bring-up failed (DHCP)");
}

} // namespace gatekit::harness
