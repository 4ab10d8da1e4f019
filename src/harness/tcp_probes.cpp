#include "harness/tcp_probes.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "stack/tcp_socket.hpp"
#include "util/assert.hpp"

namespace gatekit::harness {

namespace {

// --- TCP-1 -----------------------------------------------------------------

class TcpTimeoutMeasurement
    : public std::enable_shared_from_this<TcpTimeoutMeasurement> {
public:
    TcpTimeoutMeasurement(Testbed& tb, int slot, TcpTimeoutConfig config,
                          std::function<void(TcpTimeoutResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), config_(config),
          done_(std::move(done)), loop_(tb.loop()) {
        if (obs::Observability* o = tb_.observability()) {
            const std::string device = Testbed::device_label(slot_);
            const auto labels = o->metrics().label_set(
                {{"device", device}, {"probe", "tcp1"}});
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
        listener_ = &tb_.server().tcp_listen(config_.server_port);
        listener_->set_accept_handler(
            [self = shared_from_this()](stack::TcpSocket& conn) {
                self->server_conn_ = &conn;
                conn.on_error = [](const std::string&) {};
            });
        next_repetition();
    }

private:
    void next_repetition() {
        // Drop the previous repetition's search: its callbacks hold a
        // shared_ptr to this measurement (ownership cycle otherwise).
        // Always deferred here, never inside the search's own stack.
        search_.reset();
        const bool cancelled =
            config_.search.cancel != nullptr && *config_.search.cancel;
        if (cancelled ||
            static_cast<int>(result_.samples_sec.size()) >=
                config_.repetitions) {
            tb_.server().tcp_close_listener(*listener_);
            done_(std::move(result_));
            return;
        }
        search_ = std::make_unique<BindingTimeoutSearch>(
            loop_, config_.search,
            [self = shared_from_this()](sim::Duration gap,
                                        std::function<void(bool)> cb) {
                self->run_trial(gap, std::move(cb));
            },
            [self = shared_from_this()](SearchResult r) {
                if (r.exceeded_limit) self->result_.exceeded_limit = true;
                self->result_.samples_sec.push_back(
                    sim::to_sec(r.timeout));
                obs::observe(self->m_timeout_ns_,
                             static_cast<double>(r.timeout.count()));
                self->result_.search_retries += r.retries;
                self->result_.search_giveups += r.giveups;
                obs::add(self->m_trials_,
                         static_cast<std::uint64_t>(r.trials));
                obs::add(self->m_retries_,
                         static_cast<std::uint64_t>(r.retries));
                obs::add(self->m_giveups_,
                         static_cast<std::uint64_t>(r.giveups));
                self->loop_.after(sim::Duration::zero(), [self] {
                    self->next_repetition();
                });
            });
        search_->start();
    }

    void run_trial(sim::Duration gap, std::function<void(bool)> cb) {
        run_attempt(gap, 0, std::move(cb));
    }

    void run_attempt(sim::Duration gap, int attempt,
                     std::function<void(bool)> cb) {
        auto self = shared_from_this();
        server_conn_ = nullptr;
        // Fresh connection per trial: a fresh binding, as UDP trials use
        // fresh packets. The paper sped this up with parallel connections;
        // in virtual time sequential trials are free.
        auto& conn = tb_.client().tcp_connect(slot_.client_addr, 0,
                                              {slot_.server_addr,
                                               config_.server_port});
        client_conn_ = &conn;
        got_data_ = false;
        conn.on_data = [self](std::span<const std::uint8_t>) {
            self->got_data_ = true;
        };
        conn.on_error = [self, gap, attempt, cb](const std::string&) {
            self->client_conn_ = nullptr;
            if (attempt < self->config_.connect_retries) {
                // Connect swallowed by an impaired link or faulted
                // device: back off and run the whole trial again.
                ++self->result_.connect_retries;
                obs::inc(self->m_retries_);
                const auto delay = self->config_.connect_backoff
                                   * (1 << attempt);
                self->loop_.after(delay, [self, gap, attempt, cb]() mutable {
                    self->run_attempt(gap, attempt + 1, std::move(cb));
                });
                return;
            }
            // Could not even establish: treat as expired (should not
            // happen on a quiescent testbed).
            cb(false);
        };
        conn.on_established = [self, gap, attempt, cb]() mutable {
            self->loop_.after(gap, [self, gap, attempt,
                                    cb = std::move(cb)]() mutable {
                if (self->server_conn_ == nullptr &&
                    attempt < self->config_.connect_retries) {
                    // The client established but the server never
                    // accepted: the final handshake ACK died on an
                    // impaired link. Re-run the trial instead of
                    // reading a false "expired".
                    ++self->result_.connect_retries;
                    obs::inc(self->m_retries_);
                    if (self->client_conn_ != nullptr) {
                        self->client_conn_->on_error = nullptr;
                        self->client_conn_->abort();
                        self->client_conn_ = nullptr;
                    }
                    const auto delay = self->config_.connect_backoff
                                       * (1 << attempt);
                    self->loop_.after(delay, [self, gap, attempt,
                                              cb = std::move(cb)]() mutable {
                        self->run_attempt(gap, attempt + 1, std::move(cb));
                    });
                    return;
                }
                // Ask the server (management link) to push one byte.
                if (self->server_conn_ != nullptr)
                    self->server_conn_->send({'k'});
                self->loop_.after(self->config_.grace,
                                  [self, cb = std::move(cb)] {
                                      self->finish_trial(cb);
                                  });
            });
        };
    }

    void finish_trial(const std::function<void(bool)>& cb) {
        const bool alive = got_data_;
        // Tear down both sides; the client's RST also clears any NAT
        // binding left over from an alive trial.
        if (client_conn_ != nullptr) {
            client_conn_->on_error = nullptr;
            client_conn_->abort();
            client_conn_ = nullptr;
        }
        // On alive trials the client's RST also resets the server side.
        // On expired trials the RST cannot traverse; the server socket
        // keeps retransmitting its probe byte until its retransmission
        // limit fails it, which reaps it in the background — harmless,
        // since every trial uses a fresh client port.
        server_conn_ = nullptr;
        cb(alive);
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    TcpTimeoutConfig config_;
    std::function<void(TcpTimeoutResult)> done_;
    sim::EventLoop& loop_;
    stack::TcpListener* listener_ = nullptr;
    stack::TcpSocket* server_conn_ = nullptr;
    stack::TcpSocket* client_conn_ = nullptr;
    std::unique_ptr<BindingTimeoutSearch> search_;
    TcpTimeoutResult result_;
    bool got_data_ = false;
    obs::Counter* m_trials_ = nullptr;
    obs::Counter* m_retries_ = nullptr;
    obs::Counter* m_giveups_ = nullptr;
    obs::LogHistogram* m_timeout_ns_ = nullptr;
};

// --- TCP-2 / TCP-3 -----------------------------------------------------------

constexpr std::size_t kBlock = 2048; ///< timestamp spacing (paper: 2 KB)
constexpr std::uint64_t kStampMagic = 0x474b54535354414dULL; // "GKTSSTAM"

/// Application-paced bulk sender: keeps the socket's unsent backlog
/// shallow so the timestamp written at the head of each 2 KB block
/// reflects when the block actually entered the device, not test start.
class PacedSender {
public:
    PacedSender(sim::EventLoop& loop, stack::TcpSocket& conn,
                std::size_t total)
        : loop_(loop), conn_(conn), total_(total) {
        block_.fill(0x5a);
    }

    void start() {
        conn_.on_progress = [this] { top_up(); };
        top_up();
    }

    bool finished() const { return written_ >= total_; }

private:
    void top_up() {
        // Keep only a shallow not-yet-sent backlog: each 2 KB block is
        // stamped just before it can reach the wire, so the measured
        // delta is the device's queuing/processing delay rather than
        // time spent waiting in our own send buffer.
        constexpr std::size_t kPendingLimit = 8 * 1024;
        while (written_ < total_ &&
               conn_.bytes_pending_send() < kPendingLimit) {
            const std::size_t n = std::min(kBlock, total_ - written_);
            // One block buffer, restamped in place: only its first 16
            // bytes ever differ from the 0x5a fill.
            if (n >= 16) {
                const auto now = static_cast<std::uint64_t>(
                    loop_.now().count());
                for (int i = 0; i < 8; ++i)
                    block_[static_cast<std::size_t>(i)] =
                        static_cast<std::uint8_t>(kStampMagic >>
                                                  (56 - 8 * i));
                for (int i = 0; i < 8; ++i)
                    block_[static_cast<std::size_t>(8 + i)] =
                        static_cast<std::uint8_t>(now >> (56 - 8 * i));
            } else {
                std::fill_n(block_.begin(), 16, std::uint8_t{0x5a});
            }
            conn_.send(std::span<const std::uint8_t>(block_.data(), n));
            written_ += n;
        }
    }

    sim::EventLoop& loop_;
    stack::TcpSocket& conn_;
    std::size_t total_;
    std::size_t written_ = 0;
    std::array<std::uint8_t, kBlock> block_;
};

/// Receiver side: tracks goodput and extracts the embedded timestamps.
class MeteredReceiver {
public:
    explicit MeteredReceiver(sim::EventLoop& loop) : loop_(loop) {}

    void on_bytes(std::span<const std::uint8_t> d) {
        if (received_ == 0) first_byte_ = loop_.now();
        last_byte_ = loop_.now();
        // Jump from one block's 16-byte stamp to the next; the bytes in
        // between are only counted.
        while (!d.empty()) {
            const auto in_block =
                static_cast<std::size_t>(received_ % kBlock);
            const std::size_t n =
                std::min(d.size(), (in_block < 16 ? 16 : kBlock) - in_block);
            if (in_block < 16) {
                std::copy_n(d.begin(), n,
                            header_.begin() + static_cast<long>(in_block));
                if (in_block + n == 16) consume_header();
            }
            received_ += n;
            d = d.subspan(n);
        }
    }

    TransferResult result(std::size_t expected) const {
        TransferResult r;
        r.bytes = received_;
        r.completed = received_ >= expected;
        r.duration_sec = sim::to_sec(last_byte_ - first_byte_);
        if (r.duration_sec > 0)
            r.mbps = static_cast<double>(received_) * 8.0 /
                     (r.duration_sec * 1e6);
        if (!delays_ms_.empty()) {
            // Paper method: normalize so the minimum is zero, report the
            // median of the normalized deltas.
            const double floor =
                *std::min_element(delays_ms_.begin(), delays_ms_.end());
            std::vector<double> normalized;
            normalized.reserve(delays_ms_.size());
            for (double v : delays_ms_) normalized.push_back(v - floor);
            r.delay_ms = stats::median(normalized);
        }
        return r;
    }

private:
    void consume_header() {
        std::uint64_t magic = 0, stamp = 0;
        for (int i = 0; i < 8; ++i)
            magic = (magic << 8) | header_[static_cast<std::size_t>(i)];
        for (int i = 0; i < 8; ++i)
            stamp = (stamp << 8) | header_[static_cast<std::size_t>(8 + i)];
        if (magic != kStampMagic) return;
        const double delta_ms =
            static_cast<double>(loop_.now().count() -
                                static_cast<std::int64_t>(stamp)) /
            1e6;
        delays_ms_.push_back(delta_ms);
    }

    sim::EventLoop& loop_;
    std::uint64_t received_ = 0;
    std::array<std::uint8_t, 16> header_{};
    sim::TimePoint first_byte_{};
    sim::TimePoint last_byte_{};
    std::vector<double> delays_ms_;
};

class ThroughputMeasurement
    : public std::enable_shared_from_this<ThroughputMeasurement> {
public:
    ThroughputMeasurement(Testbed& tb, int slot, ThroughputConfig config,
                          std::function<void(ThroughputResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), config_(config),
          done_(std::move(done)), loop_(tb.loop()) {}

    void start() { run_upload(); }

private:
    /// Phase 1: unidirectional upload on port_base.
    void run_upload() {
        auto self = shared_from_this();
        start_upload_leg(config_.port_base, [self](TransferResult r) {
            self->result_.upload = r;
            self->run_download();
        });
    }
    /// Phase 2: unidirectional download on port_base+1.
    void run_download() {
        auto self = shared_from_this();
        start_download_leg(
            static_cast<std::uint16_t>(config_.port_base + 1),
            [self](TransferResult r) {
                self->result_.download = r;
                self->run_bidirectional();
            });
    }
    /// Phase 3: both at once on port_base+2 / +3.
    void run_bidirectional() {
        auto self = shared_from_this();
        auto remaining = std::make_shared<int>(2);
        start_upload_leg(static_cast<std::uint16_t>(config_.port_base + 2),
                         [self, remaining](TransferResult r) {
                             self->result_.upload_bidir = r;
                             if (--*remaining == 0)
                                 self->done_(self->result_);
                         });
        start_download_leg(static_cast<std::uint16_t>(config_.port_base + 3),
                           [self, remaining](TransferResult r) {
                               self->result_.download_bidir = r;
                               if (--*remaining == 0)
                                   self->done_(self->result_);
                           });
    }

    /// client -> server transfer; result measured at the server.
    void start_upload_leg(std::uint16_t port,
                          std::function<void(TransferResult)> done) {
        auto rx = std::make_shared<MeteredReceiver>(loop_);
        auto finished = std::make_shared<bool>(false);
        auto& lst = tb_.server().tcp_listen(port);
        listeners_[port] = &lst;
        lst.set_accept_handler([rx](stack::TcpSocket& conn) {
            conn.on_data = [rx](std::span<const std::uint8_t> d) {
                rx->on_bytes(d);
            };
            conn.on_remote_close = [&conn] { conn.close(); };
            conn.on_error = [](const std::string&) {};
        });
        auto& conn = tb_.client().tcp_connect(slot_.client_addr, 0,
                                              {slot_.server_addr, port});
        auto sender = std::make_shared<PacedSender>(loop_, conn,
                                                    config_.bytes);
        conn.on_established = [sender] { sender->start(); };
        conn.on_error = [](const std::string&) {};

        finish_when_done(rx, finished, port, std::move(done));
    }

    /// server -> client transfer; result measured at the client.
    void start_download_leg(std::uint16_t port,
                            std::function<void(TransferResult)> done) {
        auto self = shared_from_this();
        auto rx = std::make_shared<MeteredReceiver>(loop_);
        auto finished = std::make_shared<bool>(false);
        auto& lst = tb_.server().tcp_listen(port);
        listeners_[port] = &lst;
        lst.set_accept_handler(
            [self, rx](stack::TcpSocket& conn) {
                auto sender = std::make_shared<PacedSender>(
                    self->loop_, conn, self->config_.bytes);
                conn.on_error = [](const std::string&) {};
                self->keepalive_.push_back(sender);
                sender->start();
            });
        auto& conn = tb_.client().tcp_connect(slot_.client_addr, 0,
                                              {slot_.server_addr, port});
        conn.on_data = [rx](std::span<const std::uint8_t> d) {
            rx->on_bytes(d);
        };
        conn.on_error = [](const std::string&) {};

        finish_when_done(rx, finished, port, std::move(done));
    }

    /// Poll for completion (all bytes received) or the time limit.
    void finish_when_done(std::shared_ptr<MeteredReceiver> rx,
                          std::shared_ptr<bool> finished, std::uint16_t port,
                          std::function<void(TransferResult)> done) {
        auto self = shared_from_this();
        const auto deadline = loop_.now() + config_.time_limit;
        auto poll = std::make_shared<std::function<void()>>();
        *poll = [self, rx, finished, port, done = std::move(done), deadline,
                 poll] {
            const auto r = rx->result(self->config_.bytes);
            const bool cancelled = self->config_.cancel != nullptr &&
                                   *self->config_.cancel;
            if (r.completed || cancelled || self->loop_.now() >= deadline) {
                if (*finished) return;
                *finished = true;
                auto it = self->listeners_.find(port);
                if (it != self->listeners_.end()) {
                    self->tb_.server().tcp_close_listener(*it->second);
                    self->listeners_.erase(it);
                }
                done(r);
                // The stored function captures its own shared_ptr; clear
                // it so the poll state (and this measurement) can be
                // freed. We run as a copy inside the event, so this only
                // destroys the stored closure, not the executing one.
                *poll = nullptr;
                return;
            }
            self->loop_.after(std::chrono::milliseconds(200), *poll);
        };
        loop_.after(std::chrono::milliseconds(200), *poll);
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    ThroughputConfig config_;
    std::function<void(ThroughputResult)> done_;
    sim::EventLoop& loop_;
    ThroughputResult result_;
    std::vector<std::shared_ptr<PacedSender>> keepalive_;
    std::map<std::uint16_t, stack::TcpListener*> listeners_;
};

// --- TCP-4 -----------------------------------------------------------------

class MaxBindingsMeasurement
    : public std::enable_shared_from_this<MaxBindingsMeasurement> {
public:
    MaxBindingsMeasurement(Testbed& tb, int slot, MaxBindingsConfig config,
                           std::function<void(MaxBindingsResult)> done)
        : tb_(tb), slot_(tb.slot(slot)), config_(config),
          done_(std::move(done)), loop_(tb.loop()) {}

    void start() {
        listener_ = &tb_.server().tcp_listen(config_.server_port);
        listener_->set_accept_handler([](stack::TcpSocket& conn) {
            conn.on_data = [&conn](std::span<const std::uint8_t> d) {
                conn.send(net::Bytes(d.begin(), d.end())); // echo
            };
            conn.on_error = [](const std::string&) {};
        });
        open_next();
    }

private:
    void open_next() {
        if (config_.cancel != nullptr && *config_.cancel) {
            finish(false); // supervisor hard deadline: report partial count
            return;
        }
        if (established_ >= config_.limit) {
            finish(true);
            return;
        }
        auto self = shared_from_this();
        auto& conn = tb_.client().tcp_connect(slot_.client_addr, 0,
                                              {slot_.server_addr,
                                               config_.server_port});
        conn.on_established = [self, &conn] {
            // Pass a message over the new binding to prove it works.
            conn.send({'m'});
        };
        conn.on_data = [self](std::span<const std::uint8_t>) {
            ++self->established_;
            self->loop_.after(sim::Duration::zero(),
                              [self] { self->open_next(); });
        };
        conn.on_error = [self](const std::string&) {
            // New connection failed: the table is full.
            self->finish(false);
        };
    }

    void finish(bool hit_limit) {
        tb_.server().tcp_close_listener(*listener_);
        done_(MaxBindingsResult{established_, hit_limit});
    }

    Testbed& tb_;
    Testbed::DeviceSlot& slot_;
    MaxBindingsConfig config_;
    std::function<void(MaxBindingsResult)> done_;
    sim::EventLoop& loop_;
    stack::TcpListener* listener_ = nullptr;
    int established_ = 0;
};

} // namespace

void measure_tcp_timeout(Testbed& tb, int slot,
                         const TcpTimeoutConfig& config,
                         std::function<void(TcpTimeoutResult)> done) {
    auto m = std::make_shared<TcpTimeoutMeasurement>(tb, slot, config,
                                                     std::move(done));
    m->start();
}

void measure_throughput(Testbed& tb, int slot, const ThroughputConfig& config,
                        std::function<void(ThroughputResult)> done) {
    auto m = std::make_shared<ThroughputMeasurement>(tb, slot, config,
                                                     std::move(done));
    m->start();
}

void measure_max_bindings(Testbed& tb, int slot,
                          const MaxBindingsConfig& config,
                          std::function<void(MaxBindingsResult)> done) {
    auto m = std::make_shared<MaxBindingsMeasurement>(tb, slot, config,
                                                      std::move(done));
    m->start();
}

} // namespace gatekit::harness
