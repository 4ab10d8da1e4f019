#include "harness/udp_probes.hpp"

#include <memory>

#include "stack/udp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::harness {

namespace {

/// One full UDP timeout measurement for a device: `repetitions`
/// independent binary searches, each using its own client source port
/// (one flow per search, as the paper's testrund did). The object keeps
/// itself alive via shared_ptr until the last search completes.
class UdpMeasurement
    : public std::enable_shared_from_this<UdpMeasurement> {
public:
    UdpMeasurement(Testbed& tb, int slot, UdpPattern pattern,
                   UdpProbeConfig config,
                   std::function<void(UdpTimeoutResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), pattern_(pattern),
          config_(config), done_(std::move(done)), loop_(tb.loop()) {
        if (obs::Observability* o = tb_.observability()) {
            const std::string device = Testbed::device_label(slot_);
            const char* probe =
                pattern_ == UdpPattern::SolitaryOutbound  ? "udp1"
                : pattern_ == UdpPattern::InboundRefresh ? "udp2"
                                                         : "udp3";
            const auto labels = o->metrics().label_set(
                {{"device", device}, {"probe", probe}});
            m_trials_ = o->metrics().counter("probe.trials", labels);
            m_retries_ = o->metrics().counter("probe.retries", labels);
            m_giveups_ = o->metrics().counter("probe.giveups", labels);
            m_timeout_ns_ =
                o->metrics().log_histogram("probe.timeout_ns", labels);
            if (config_.search.tracer == nullptr) {
                config_.search.tracer = &o->tracer();
                config_.search.trace_device = device;
            }
        }
    }

    void start() {
        server_sock_ =
            &tb_.server().udp_open(net::Ipv4Addr::any(), config_.server_port);
        server_sock_->set_receive_handler(
            [self = shared_from_this()](net::Endpoint src,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView&) {
                self->on_server_rx(src);
            });
        next_repetition();
    }

private:
    void on_server_rx(net::Endpoint src) {
        ++server_rx_total_;
        last_peer_ = src;
        have_peer_ = true;
        // UDP-2/3: the binding-creating packet is answered immediately,
        // confirming the binding. Only the first packet of a trial is
        // echoed — echoing the client's UDP-3 reply too would ping-pong
        // forever and keep the binding alive unconditionally.
        if (server_echo_budget_ > 0) {
            --server_echo_budget_;
            server_sock_->send_to(src, {'e', 'c', 'h', 'o'});
        }
    }

    bool cancel_requested() const {
        return config_.search.cancel != nullptr && *config_.search.cancel;
    }

    void next_repetition() {
        // Drop the previous repetition's search. Its trial/finished
        // callbacks capture a shared_ptr to this measurement, so a
        // search that lingered in `search_` past the last repetition
        // would keep the whole object alive forever (ownership cycle).
        // Always deferred here (never inside the search's own stack).
        search_.reset();
        if (cancel_requested() ||
            static_cast<int>(result_.samples_sec.size()) >=
                config_.repetitions) {
            finish();
            return;
        }
        // Fresh flow per search: a new client source port.
        const auto port = static_cast<std::uint16_t>(
            40000 + result_.samples_sec.size());
        client_sock_ = &tb_.client().udp_open(slot_.client_addr, port);
        client_sock_->set_receive_handler(
            [self = shared_from_this()](net::Endpoint,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView&) {
                self->on_client_rx();
            });
        prev_trial_alive_ = false;
        min_dead_gap_ = sim::Duration::zero();
        have_dead_gap_ = false;

        search_ = std::make_unique<BindingTimeoutSearch>(
            loop_, config_.search,
            [self = shared_from_this()](sim::Duration gap,
                                        std::function<void(bool)> cb) {
                self->run_trial(gap, std::move(cb));
            },
            [self = shared_from_this()](SearchResult r) {
                self->on_search_done(r);
            });
        search_->start();
    }

    void on_client_rx() {
        ++client_rx_in_trial_;
        // UDP-3: answer every server packet, refreshing via outbound.
        if (pattern_ == UdpPattern::Bidirectional && trial_running_)
            client_sock_->send_to({slot_.server_addr, config_.server_port},
                                  {'r', 'e'});
    }

    /// Idle long enough for any binding from an alive trial to die, so
    /// every trial starts from a clean slate (the paper's "identical to
    /// the first search" modification).
    sim::Duration cooldown() const {
        if (!prev_trial_alive_) return sim::Duration::zero();
        if (have_dead_gap_)
            return min_dead_gap_ * 2 + std::chrono::seconds(180);
        return config_.search.hi_limit;
    }

    void run_trial(sim::Duration gap, std::function<void(bool)> cb) {
        auto self = shared_from_this();
        loop_.after(cooldown(), [self, gap, cb = std::move(cb)]() mutable {
            if (self->cancel_requested()) {
                // Supervisor hard deadline hit during the cooldown: feed
                // the search a verdict it will discard instead of paying
                // for another full-gap trial.
                cb(false);
                return;
            }
            // Bump the epoch: any straggler chain from an abandoned
            // trial (the search watchdog moved on without it) checks it
            // at every hop and dies instead of touching this trial's
            // flow or verdict state.
            const std::uint64_t epoch = ++self->flow_epoch_;
            self->trial_running_ = true;
            self->client_rx_in_trial_ = 0;
            self->probe_attempt_ = 0;
            self->server_echo_budget_ =
                self->pattern_ == UdpPattern::SolitaryOutbound ? 0 : 1;
            // Retry-hardened runs give every trial a brand-new flow: an
            // abandoned trial's binding must never see this trial's
            // creation packet, because a second outbound packet on the
            // same flow makes it multi-packet — a class some devices
            // time out on a different schedule than a solitary flow.
            if (self->config_.retry.enabled()) self->open_fresh_flow();
            // Step 1: create the binding with a single outbound packet.
            self->send_creation(gap, 0, epoch, std::move(cb));
        });
    }

    /// Close the current client flow and open one on a fresh source
    /// port (retry-hardened trials only; the lossless path keeps one
    /// port per search).
    void open_fresh_flow() {
        if (client_sock_ != nullptr) tb_.client().udp_close(*client_sock_);
        const auto port = static_cast<std::uint16_t>(
            45000 + (fresh_flows_++ % 20000));
        client_sock_ = &tb_.client().udp_open(slot_.client_addr, port);
        client_sock_->set_receive_handler(
            [self = shared_from_this()](net::Endpoint,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView&) {
                self->on_client_rx();
            });
        have_peer_ = false; // the old mapping is dead to this trial
    }

    /// Step 1 (+ optional confirm/resend loop). A creation packet lost
    /// before the server would leave `last_peer_` pointing at the
    /// previous trial's flow, turning every later probe into a false
    /// "expired"; the confirm check reads the server's receive counter
    /// over the management link and re-sends until it moves. The gap
    /// clock is re-anchored at the last send.
    void send_creation(sim::Duration gap, int attempt, std::uint64_t epoch,
                       std::function<void(bool)> cb) {
        if (epoch != flow_epoch_ || client_sock_ == nullptr) {
            // Stale chain: the search moved on (watchdog) or the whole
            // measurement finished. The late verdict is ignored by the
            // search's generation stamp.
            cb(false);
            return;
        }
        const std::uint64_t rx_before = server_rx_total_;
        client_sock_->send_to({slot_.server_addr, config_.server_port},
                              {'s', 'y', 'n'});
        auto self = shared_from_this();
        if (attempt < config_.retry.creation_retries) {
            const auto t_create = loop_.now();
            loop_.after(config_.retry.creation_wait,
                        [self, gap, attempt, epoch, rx_before, t_create,
                         cb = std::move(cb)]() mutable {
                            if (self->server_rx_total_ == rx_before) {
                                ++self->result_.creation_retries;
                                obs::inc(self->m_retries_);
                                self->send_creation(gap, attempt + 1, epoch,
                                                    std::move(cb));
                                return;
                            }
                            const auto due = std::max(self->loop_.now(),
                                                      t_create + gap);
                            self->loop_.at(due, [self, gap, epoch,
                                                 cb = std::move(
                                                     cb)]() mutable {
                                self->send_probe(gap, epoch, std::move(cb));
                            });
                        });
            return;
        }
        // Step 2: idle for the candidate gap. For UDP-2/3 the server's
        // immediate echo (and the client's reply) happen meanwhile.
        loop_.after(gap, [self, gap, epoch, cb = std::move(cb)]() mutable {
            self->send_probe(gap, epoch, std::move(cb));
        });
    }

    /// Step 3: inbound probe over the management link. When no reply
    /// lands within the grace window, the trial is re-run from step 1
    /// (up to probe_retries times) rather than re-probed in place.
    void send_probe(sim::Duration gap, std::uint64_t epoch,
                    std::function<void(bool)> cb) {
        if (epoch != flow_epoch_ || server_sock_ == nullptr) {
            // Stale chain (see send_creation); the verdict is moot.
            cb(false);
            return;
        }
        const int before = client_rx_in_trial_;
        if (have_peer_)
            server_sock_->send_to(last_peer_, {'p', 'r', 'o', 'b', 'e'});
        auto self = shared_from_this();
        loop_.after(config_.grace, [self, gap, epoch, before,
                                    cb = std::move(cb)]() mutable {
            if (epoch != self->flow_epoch_) {
                cb(false);
                return;
            }
            const bool alive = self->client_rx_in_trial_ > before;
            if (!alive &&
                self->probe_attempt_ < self->config_.retry.probe_retries) {
                ++self->probe_attempt_;
                ++self->result_.probe_retries;
                obs::inc(self->m_retries_);
                // A probe lost on an impaired link has aged the binding
                // past the nominal gap; re-probing it now would read
                // "expired" whenever the true timeout falls inside the
                // grace window, biasing the search short. Re-run the
                // trial on a brand-new flow with the same gap instead,
                // so the retry tests the same age as the original
                // trial without turning the old flow multi-packet.
                self->server_echo_budget_ =
                    self->pattern_ == UdpPattern::SolitaryOutbound ? 0 : 1;
                self->client_rx_in_trial_ = 0;
                self->open_fresh_flow();
                self->send_creation(gap, 0, epoch, std::move(cb));
                return;
            }
            self->trial_running_ = false;
            self->prev_trial_alive_ = alive;
            if (!alive) {
                if (!self->have_dead_gap_ || gap < self->min_dead_gap_)
                    self->min_dead_gap_ = gap;
                self->have_dead_gap_ = true;
            }
            cb(alive);
        });
    }

    void on_search_done(SearchResult r) {
        result_.samples_sec.push_back(sim::to_sec(r.timeout));
        result_.search_retries += r.retries;
        result_.search_giveups += r.giveups;
        obs::observe(m_timeout_ns_,
                     static_cast<double>(r.timeout.count()));
        obs::add(m_trials_, static_cast<std::uint64_t>(r.trials));
        obs::add(m_retries_, static_cast<std::uint64_t>(r.retries));
        obs::add(m_giveups_, static_cast<std::uint64_t>(r.giveups));
        tb_.client().udp_close(*client_sock_);
        client_sock_ = nullptr;
        loop_.after(sim::Duration::zero(),
                    [self = shared_from_this()] { self->next_repetition(); });
    }

    void finish() {
        tb_.server().udp_close(*server_sock_);
        server_sock_ = nullptr;
        done_(std::move(result_));
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    UdpPattern pattern_;
    UdpProbeConfig config_;
    std::function<void(UdpTimeoutResult)> done_;
    sim::EventLoop& loop_;

    stack::UdpSocket* server_sock_ = nullptr;
    stack::UdpSocket* client_sock_ = nullptr;
    std::unique_ptr<BindingTimeoutSearch> search_;
    UdpTimeoutResult result_;

    net::Endpoint last_peer_;
    bool have_peer_ = false;
    std::uint64_t server_rx_total_ = 0;
    int client_rx_in_trial_ = 0;
    int server_echo_budget_ = 0;
    int probe_attempt_ = 0;
    std::uint64_t flow_epoch_ = 0; ///< invalidates abandoned trial chains
    int fresh_flows_ = 0;          ///< ports consumed by open_fresh_flow

    // Registry promotion of the per-probe robustness counters; nullptr
    // when the testbed has no observability session attached.
    obs::Counter* m_trials_ = nullptr;
    obs::Counter* m_retries_ = nullptr;
    obs::Counter* m_giveups_ = nullptr;
    obs::LogHistogram* m_timeout_ns_ = nullptr;
    bool trial_running_ = false;
    bool prev_trial_alive_ = false;
    sim::Duration min_dead_gap_{};
    bool have_dead_gap_ = false;
};

/// UDP-4 observer: runs one UDP-1 search on a fixed flow and watches the
/// external source ports the server sees.
class PortReuseMeasurement
    : public std::enable_shared_from_this<PortReuseMeasurement> {
public:
    PortReuseMeasurement(Testbed& tb, int slot, UdpProbeConfig config,
                         std::function<void(PortReuseResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), config_(config),
          done_(std::move(done)), loop_(tb.loop()) {
        if (obs::Observability* o = tb_.observability()) {
            const std::string device = Testbed::device_label(slot_);
            const auto labels = o->metrics().label_set(
                {{"device", device}, {"probe", "udp4"}});
            m_trials_ = o->metrics().counter("probe.trials", labels);
            m_retries_ = o->metrics().counter("probe.retries", labels);
            m_giveups_ = o->metrics().counter("probe.giveups", labels);
            if (config_.search.tracer == nullptr) {
                config_.search.tracer = &o->tracer();
                config_.search.trace_device = device;
            }
        }
    }

    static constexpr std::uint16_t kClientPort = 41999;

    void start() {
        server_sock_ =
            &tb_.server().udp_open(net::Ipv4Addr::any(), config_.server_port);
        server_sock_->set_receive_handler(
            [self = shared_from_this()](net::Endpoint src,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView&) {
                self->last_peer_ = src;
                self->have_peer_ = true;
                self->port_this_trial_ = src.port;
            });
        client_sock_ = &tb_.client().udp_open(slot_.client_addr, kClientPort);
        client_sock_->set_receive_handler(
            [self = shared_from_this()](net::Endpoint,
                                        std::span<const std::uint8_t>,
                                        const net::PacketView&) {
                ++self->client_rx_in_trial_;
            });

        search_ = std::make_unique<BindingTimeoutSearch>(
            loop_, config_.search,
            [self = shared_from_this()](sim::Duration gap,
                                        std::function<void(bool)> cb) {
                self->run_trial(gap, std::move(cb));
            },
            [self = shared_from_this()](SearchResult r) {
                obs::add(self->m_trials_,
                         static_cast<std::uint64_t>(r.trials));
                obs::add(self->m_retries_,
                         static_cast<std::uint64_t>(r.retries));
                obs::add(self->m_giveups_,
                         static_cast<std::uint64_t>(r.giveups));
                self->finish();
            });
        search_->start();
    }

private:
    sim::Duration cooldown() const {
        if (!prev_trial_alive_) return sim::Duration::zero();
        if (have_dead_gap_)
            return min_dead_gap_ * 2 + std::chrono::seconds(180);
        return config_.search.hi_limit;
    }

    void run_trial(sim::Duration gap, std::function<void(bool)> cb) {
        auto self = shared_from_this();
        loop_.after(cooldown(), [self, gap, cb = std::move(cb)]() mutable {
            self->client_rx_in_trial_ = 0;
            self->port_this_trial_ = 0;
            self->client_sock_->send_to(
                {self->slot_.server_addr, self->config_.server_port}, {'s'});
            self->loop_.after(gap, [self, gap, cb = std::move(cb)]() mutable {
                const int before = self->client_rx_in_trial_;
                if (self->have_peer_)
                    self->server_sock_->send_to(self->last_peer_, {'p'});
                self->loop_.after(
                    self->config_.grace,
                    [self, gap, before, cb = std::move(cb)]() mutable {
                        const bool alive =
                            self->client_rx_in_trial_ > before;
                        self->record_trial(gap, alive);
                        cb(alive);
                    });
            });
        });
    }

    void record_trial(sim::Duration gap, bool alive) {
        result_.observed_ports.push_back(port_this_trial_);
        if (prev_trial_was_dead_ && !result_.observed_ports.empty()) {
            // This trial began immediately after an observed expiry: the
            // paper's reuse observation point.
            post_expiry_ports_.push_back(port_this_trial_);
        }
        prev_trial_was_dead_ = !alive;
        prev_trial_alive_ = alive;
        if (!alive) {
            if (!have_dead_gap_ || gap < min_dead_gap_) min_dead_gap_ = gap;
            have_dead_gap_ = true;
        }
    }

    void finish() {
        if (!result_.observed_ports.empty()) {
            result_.preserves_source_port =
                result_.observed_ports.front() == kClientPort;
            // Reuse: bindings created right after an expiry kept the port.
            result_.reuses_expired_binding = !post_expiry_ports_.empty();
            for (auto p : post_expiry_ports_)
                if (p != result_.observed_ports.front())
                    result_.reuses_expired_binding = false;
        }
        tb_.client().udp_close(*client_sock_);
        tb_.server().udp_close(*server_sock_);
        done_(std::move(result_));
        // finish() runs inside the search's own stack, so the search
        // (whose callbacks own a shared_ptr to this observer) cannot be
        // destroyed here; break the ownership cycle one event later.
        loop_.after(sim::Duration::zero(),
                    [self = shared_from_this()] { self->search_.reset(); });
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    UdpProbeConfig config_;
    std::function<void(PortReuseResult)> done_;
    sim::EventLoop& loop_;
    stack::UdpSocket* server_sock_ = nullptr;
    stack::UdpSocket* client_sock_ = nullptr;
    std::unique_ptr<BindingTimeoutSearch> search_;
    PortReuseResult result_;
    std::vector<std::uint16_t> post_expiry_ports_;
    net::Endpoint last_peer_;
    bool have_peer_ = false;
    int client_rx_in_trial_ = 0;
    std::uint16_t port_this_trial_ = 0;
    bool prev_trial_alive_ = false;
    bool prev_trial_was_dead_ = false;
    sim::Duration min_dead_gap_{};
    bool have_dead_gap_ = false;
    obs::Counter* m_trials_ = nullptr;
    obs::Counter* m_retries_ = nullptr;
    obs::Counter* m_giveups_ = nullptr;
};

} // namespace

void measure_udp_timeout(Testbed& tb, int slot, UdpPattern pattern,
                         const UdpProbeConfig& config,
                         std::function<void(UdpTimeoutResult)> done) {
    auto m = std::make_shared<UdpMeasurement>(tb, slot, pattern, config,
                                              std::move(done));
    m->start();
}

void measure_port_reuse(Testbed& tb, int slot, const UdpProbeConfig& config,
                        std::function<void(PortReuseResult)> done) {
    auto m = std::make_shared<PortReuseMeasurement>(tb, slot, config,
                                                    std::move(done));
    m->start();
}

} // namespace gatekit::harness
