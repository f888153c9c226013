// The daemon workloads: an in-process mmd_server (hash strategy, 64 nodes, 3
// replicas, 256 read ports seeded) on 127.0.0.1, driven open-loop by one
// mm_client over one TCP connection.  Two threads: the daemon's and the
// client's, which is also the load generator (the echo floor's thread only
// runs between the daemon's slices).
//
//   daemon_locate  begin_locate_fresh on the read ports: client encode,
//                  transport syscalls, frame parse, answer_query, reply.
//   daemon_mix     40% locates on the read ports, 60% writes (register 30 /
//                  migrate 20 / deregister 10) on ports 257-4352: the same
//                  layers on the write path (post/remove fan-out, acks,
//                  two-leg migrates).  Read ports are never written, so every
//                  locate answer stays exactly checkable.
//
// Open-loop arrivals are seeded exponential and latency is timed from each
// operation's due time, so a stall also charges the operations it delays.
// After a warm-up an end-to-end run alternates `low` slices (2,000 ops/s,
// the unloaded round trip) with slices of a bare TCP echo (floor.h); each
// low slice's p50 is divided by the mean p50 of the echo slices on either
// side of it, and op_time_vs_floor is the median of those ratios.
//
// A trace run adds, per round, a `saturated` slice (closed loop, 32 ops
// outstanding: the throughput client, transport and daemon sustain
// together) and a `high` slice (open loop at a fixed rate below capacity:
// the tail under load).  Both swung by 20-35% between runs on the
// calibration host even as ratios to the echo, too far to bound, so they
// are per-layer numbers only.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "daemon/mm_client.h"
#include "daemon/mmd_server.h"
#include "daemon/strategy_factory.h"
#include "floor.h"
#include "perf.h"
#include "sim/rng.h"
#include "trace.h"
#include "transport/tcp_transport.h"

namespace perf {
namespace {

using namespace mm;
// Inside a class derived from transport::transport, "transport" names the
// base class, so the namespace goes by another name.
namespace tp = mm::transport;

constexpr net::node_id kNodes = 64;
constexpr int kReplicas = 3;
constexpr core::port_id kReadPorts = 256;    // ports 1..256, seeded at set-up
constexpr core::port_id kWritePorts = 4096;  // ports 257..4352
constexpr double kLowRate = 2000;
constexpr std::size_t kRawSpanCap = 200'000;
// Outstanding ops of the closed-loop (saturated) slices.
constexpr int kWindow = 32;
constexpr double kFailedLatencyUs = std::numeric_limits<double>::infinity();

// `high` slice rates in ops/s, about a third of the saturated throughput
// measured on a 4-vCPU x86-64 KVM guest (60-70k locates/s untraced, 40-65k
// traced; 30-50k/s traced for the mix); frozen so that every commit is
// measured at the same offered load.  Even there the p99 of one slice
// ranges from 0.2 to 40 ms, so higher rates would measure the host.
constexpr double kHighRateLocate = 20000;
constexpr double kHighRateMix = 16000;

// Trace-run decorator over a tcp_transport: spans around send, reply and
// poll, plus poll/frame counters.
class traced_transport final : public tp::transport {
public:
    traced_transport(tp::transport& inner, span_log& log, bool server)
        : inner_{inner},
          log_{log},
          send_name_{server ? "transport.server_send" : "transport.client_send"},
          reply_name_{server ? "transport.server_reply" : "transport.client_reply"},
          poll_name_{server ? "transport.server_poll" : "transport.client_poll"} {}

    bool send(const tp::wire::frame& msg) override {
        scoped_span s{&log_, send_name_, msg.tag};
        return inner_.send(msg);
    }
    bool reply(tp::peer_ref via, const tp::wire::frame& msg) override {
        scoped_span s{&log_, reply_name_, msg.tag};
        return inner_.reply(via, msg);
    }
    void arm_timer(std::int64_t delay, std::int64_t timer_id) override {
        inner_.arm_timer(delay, timer_id);
    }
    [[nodiscard]] std::int64_t now() const override { return inner_.now(); }
    std::size_t poll(std::vector<tp::completion>& out, std::int64_t max_wait) override {
        scoped_span s{&log_, poll_name_};
        const std::size_t before = out.size();
        const std::size_t n = inner_.poll(out, max_wait);
        ++polls_;
        if (n == 0) ++empty_polls_;
        for (std::size_t i = before; i < out.size(); ++i)
            if (out[i].what == tp::completion::kind::message) ++frames_;
        return n;
    }

    [[nodiscard]] std::int64_t polls() const noexcept { return polls_; }
    [[nodiscard]] std::int64_t empty_polls() const noexcept { return empty_polls_; }
    [[nodiscard]] std::int64_t frames() const noexcept { return frames_; }

private:
    tp::transport& inner_;
    span_log& log_;
    const char* send_name_;
    const char* reply_name_;
    const char* poll_name_;
    std::int64_t polls_ = 0;
    std::int64_t empty_polls_ = 0;
    std::int64_t frames_ = 0;
};

tp::transport& maybe_traced(std::optional<traced_transport>& slot, tp::tcp_transport& net,
                            span_log* log, bool server) {
    if (log == nullptr) return net;
    return slot.emplace(net, *log, server);
}

// One daemon + one client.  Traced when given span logs: both transports
// are decorated and the daemon thread runs pump() under a span instead of
// serve(), so its poll and reply spans nest inside the pump.
class daemon_under_test {
public:
    daemon_under_test(const core::locate_strategy& strategy, span_log* server_log,
                      span_log* client_log)
        : server_{maybe_traced(server_traced_, server_net_, server_log, true), strategy},
          client_{maybe_traced(client_traced_, client_net_, client_log, false), strategy} {
        const std::uint16_t port = server_net_.listen_on(0);
        for (net::node_id v = 0; v < kNodes; ++v) client_net_.add_route(v, "127.0.0.1", port);
        thread_ = std::thread{[this, server_log] {
            try {
                if (server_log == nullptr) {
                    server_.serve(stop_, 50);
                } else {
                    while (!stop_.load(std::memory_order_relaxed)) {
                        scoped_span s{server_log, "daemon.server_pump"};
                        server_.pump(50);
                    }
                }
            } catch (const std::exception& e) {
                error_ = e.what();
                crashed_.store(true);
            }
        }};
    }
    ~daemon_under_test() { stop(); }
    daemon_under_test(const daemon_under_test&) = delete;
    daemon_under_test& operator=(const daemon_under_test&) = delete;

    // Stops and joins the daemon thread; its state may be read afterwards.
    void stop() {
        stop_.store(true);
        if (thread_.joinable()) thread_.join();
    }

    daemon::mm_client& client() noexcept { return client_; }
    [[nodiscard]] const daemon::mmd_server::stats& server_stats() const { return server_.stat(); }
    [[nodiscard]] const tp::tcp_transport& server_net() const { return server_net_; }
    [[nodiscard]] const tp::tcp_transport& client_net() const { return client_net_; }
    [[nodiscard]] const traced_transport* server_traced() const {
        return server_traced_ ? &*server_traced_ : nullptr;
    }
    [[nodiscard]] const traced_transport* client_traced() const {
        return client_traced_ ? &*client_traced_ : nullptr;
    }
    [[nodiscard]] bool crashed() const { return crashed_.load(); }
    [[nodiscard]] const std::string& error() const { return error_; }

private:
    tp::tcp_transport server_net_;
    std::optional<traced_transport> server_traced_;
    daemon::mmd_server server_;
    tp::tcp_transport client_net_;
    std::optional<traced_transport> client_traced_;
    daemon::mm_client client_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> crashed_{false};
    std::string error_;  // written by the daemon thread before crashed_
    std::thread thread_;
};

enum class op_kind { locate, reg, migrate, dereg };

struct op_draw {
    op_kind kind = op_kind::locate;
    core::port_id port = 0;
    net::node_id actor = 0;  // client / host / migrate target
    net::node_id from = 0;   // migrate source
};

// The seeded operation stream.  Write ports track their current host so
// migrates and deregisters act on real bindings when there is one.
class op_source {
public:
    op_source(std::uint64_t seed, bool mix)
        : random_{seed}, mix_{mix}, host_of_(kWritePorts, net::invalid_node) {}

    op_draw next() {
        op_draw op;
        const double dice = mix_ ? random_.uniform01() : 0.0;
        if (dice < 0.4) {
            op.port = static_cast<core::port_id>(random_.uniform(1, kReadPorts));
            op.actor = node();
            return op;
        }
        const auto wi = static_cast<std::size_t>(random_.uniform(0, kWritePorts - 1));
        op.port = kReadPorts + 1 + wi;
        net::node_id& host = host_of_[wi];
        if (dice < 0.7) {
            op.kind = op_kind::reg;
            op.actor = node();
            host = op.actor;
        } else if (dice < 0.9) {
            op.kind = op_kind::migrate;
            op.from = host != net::invalid_node ? host : node();
            do op.actor = node();
            while (op.actor == op.from);
            host = op.actor;
        } else {
            op.kind = op_kind::dereg;
            op.actor = host != net::invalid_node ? host : node();
            host = net::invalid_node;
        }
        return op;
    }

private:
    net::node_id node() { return static_cast<net::node_id>(random_.uniform(0, kNodes - 1)); }

    sim::rng random_;
    bool mix_;
    std::vector<net::node_id> host_of_;
};

runtime::op_id issue(daemon::mm_client& client, const op_draw& op) {
    switch (op.kind) {
        case op_kind::locate:
            return client.begin_locate_fresh(op.port, op.actor);
        case op_kind::reg:
            return client.begin_register(op.port, op.actor);
        case op_kind::migrate:
            return client.begin_migrate(op.port, op.from, op.actor);
        case op_kind::dereg:
            return client.begin_deregister(op.port, op.actor);
    }
    return 0;
}

// One slice of offered load and what came back.
struct slice_result {
    double seconds = 0;
    std::vector<double> latency_us;   // from due time; failed = +inf
    std::vector<double> lateness_us;  // issue time - due time (open loop)
    std::int64_t issued = 0;
    std::int64_t completed_in_window = 0;
    std::int64_t failed = 0;
    std::int64_t locates = 0;
    std::int64_t locates_found = 0;
    std::int64_t locate_passes = 0;
    int max_in_flight = 0;

    [[nodiscard]] double throughput() const {
        return static_cast<double>(completed_in_window) / seconds;
    }
};

struct generator {
    daemon_under_test* dut = nullptr;
    op_source ops;
    sim::rng arrivals;
    const std::vector<net::node_id>* read_hosts = nullptr;
    span_log* log = nullptr;

    // Open loop (window == 0): offers `rate` ops/s with seeded exponential
    // gaps.  Closed loop (window > 0): keeps `window` ops outstanding.  Either
    // way for `seconds`, then drains what is still in flight.
    slice_result run(double rate, double seconds, int window = 0) {
        struct pending {
            runtime::op_id id;
            std::int64_t due;
            op_draw op;
        };
        slice_result out;
        out.seconds = seconds;
        auto& client = dut->client();
        std::deque<pending> in_flight;  // issue order
        const std::int64_t start = now_ns();
        const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
        // Past the mm_client op timeout (5 s), every stranded op has failed.
        const std::int64_t drain_cap = end + 6'000'000'000LL;
        double due = static_cast<double>(start);
        const auto issue_due = [&](std::int64_t due_ns) {
            const op_draw op = ops.next();
            const std::int64_t issued_at = now_ns();
            scoped_span s{log, "daemon.client_issue"};
            const runtime::op_id id = issue(client, op);
            s.set_tag(id);
            in_flight.push_back({id, due_ns, op});
            if (window == 0)
                out.lateness_us.push_back(static_cast<double>(issued_at - due_ns) / 1e3);
            ++out.issued;
        };
        for (;;) {
            const std::int64_t now = now_ns();
            if (window > 0) {
                while (now < end && static_cast<int>(in_flight.size()) < window) issue_due(now);
            } else {
                while (due <= static_cast<double>(now) && due < static_cast<double>(end)) {
                    issue_due(static_cast<std::int64_t>(due));
                    due += -std::log(1.0 - arrivals.uniform01()) / rate * 1e9;
                }
            }
            out.max_in_flight = std::max(out.max_in_flight, static_cast<int>(in_flight.size()));
            if (now >= end && in_flight.empty()) break;
            if (now >= drain_cap) {
                out.failed += static_cast<std::int64_t>(in_flight.size());
                out.latency_us.insert(out.latency_us.end(), in_flight.size(), kFailedLatencyUs);
                break;
            }
            {
                scoped_span s{log, "daemon.client_pump"};
                client.pump(0);
            }
            // Collect exactly the ops that completed: the client counts its
            // incomplete ops, and completions cluster at the old end of the
            // issue-ordered list, so the scan stops early.  (Scanning every
            // in-flight op per pump would slow the generator as a backlog
            // grows - a collapse of the harness, not of the daemon.)
            const std::int64_t seen = now_ns();
            std::size_t done = in_flight.size() - client.pending_ops();
            for (std::size_t i = 0; done > 0 && i < in_flight.size();) {
                const auto res = client.poll(in_flight[i].id);
                if (!res) {
                    ++i;
                    continue;
                }
                settle(out, in_flight[i].op, *res, in_flight[i].due, seen, end, window == 0);
                client.forget(in_flight[i].id);
                in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
                --done;
            }
        }
        return out;
    }

    // Checks one completed op.  Latency is kept for open-loop slices only
    // (closed-loop ones would make the harness's memory grow with the
    // throughput, and peak_rss_mib with it).
    void settle(slice_result& out, const op_draw& op, const runtime::locate_result& res,
                std::int64_t due_ns, std::int64_t seen, std::int64_t end, bool timed) const {
        const net::node_id expected =
            op.kind == op_kind::locate ? (*read_hosts)[static_cast<std::size_t>(op.port - 1)]
                                       : op.actor;
        if (op.kind == op_kind::locate) {
            ++out.locates;
            if (res.found) ++out.locates_found;
            out.locate_passes += res.message_passes;
        }
        if (!res.found || res.where != expected) {
            ++out.failed;
            out.latency_us.push_back(kFailedLatencyUs);
            return;
        }
        if (seen <= end) ++out.completed_in_window;
        if (timed) out.latency_us.push_back(static_cast<double>(seen - due_ns) / 1e3);
    }
};

// Seeds the read ports (pipelined registers, the client spinning on
// pump(0) like the generator does) and returns port -> host.
std::vector<net::node_id> seed_read_ports(daemon::mm_client& client, std::uint64_t seed,
                                          bool& ok) {
    sim::rng random{seed ^ 0x4ead5eedULL};
    std::vector<net::node_id> hosts;
    std::vector<runtime::op_id> ids;
    for (core::port_id p = 1; p <= kReadPorts; ++p) {
        hosts.push_back(static_cast<net::node_id>(random.uniform(0, kNodes - 1)));
        ids.push_back(client.begin_register(p, hosts.back()));
    }
    while (client.pending_ops() > 0) client.pump(0);
    ok = true;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto res = client.poll(ids[i]);
        ok = ok && res && res->found && res->where == hosts[i];
        client.forget(ids[i]);
    }
    return hosts;
}

// Sums the slices of one run: every op counts toward attempted/failed and
// toward the locate accounting.
struct tally {
    std::int64_t issued = 0, failed = 0, locates = 0, found = 0, passes = 0;

    void add(const slice_result& s) {
        issued += s.issued;
        failed += s.failed;
        locates += s.locates;
        found += s.locates_found;
        passes += s.locate_passes;
    }
    [[nodiscard]] double per_locate(std::int64_t n) const { return ratio(n, locates); }
};

void check_daemon(run_result& out, const daemon_under_test& dut, const std::string& name) {
    out.check(!dut.crashed(), name + ": daemon thread failed: " + dut.error());
    out.check(dut.server_stats().bad_frames == 0, name + ": daemon saw bad frames");
    out.check(dut.server_net().stat().protocol_errors == 0 &&
                  dut.client_net().stat().protocol_errors == 0,
              name + ": transport protocol errors");
}

// p50 round trip of the bare echo at the low rate, over `seconds`.
double floor_p50_us(tcp_floor& floor, double seconds) {
    return percentile(floor.round_trips(static_cast<std::int64_t>(1e9 / kLowRate), seconds), 0.50);
}

// The slices of one trace-run round.
struct round_result {
    slice_result low, saturated, high;
    double floor_p50_us = 0, floor_ops_per_s = 0;
};

round_result run_round(generator& gen, tcp_floor& floor, tally& t, double slice_s,
                       double high_rate) {
    round_result r;
    r.low = gen.run(kLowRate, slice_s);
    r.floor_p50_us = floor_p50_us(floor, slice_s);
    r.saturated = gen.run(0, slice_s, kWindow);
    r.floor_ops_per_s = floor.throughput(kWindow, slice_s);
    r.high = gen.run(high_rate, slice_s);
    for (const auto* s : {&r.low, &r.saturated, &r.high}) t.add(*s);
    std::printf("  round: low p50 %6.1f us (floor %5.1f)  saturated %6.0f ops/s (floor %6.0f)"
                "  high p99 %7.1f us\n",
                percentile(r.low.latency_us, 0.50), r.floor_p50_us, r.saturated.throughput(),
                r.floor_ops_per_s, percentile(r.high.latency_us, 0.99));
    return r;
}

run_result run_daemon(const options& opt, const std::string& name, bool mix) {
    run_result out;
    const auto strategy = daemon::make_strategy("hash", kNodes, kReplicas);
    const std::uint64_t seed = sim::splitmix64(opt.seed);
    const double high_rate = mix ? kHighRateMix : kHighRateLocate;
    // At --seconds 30: 1.5 s warm-up, then 10 low slices of 1.74 s between
    // 11 echo slices of half that.  A trace run spends the same time on 5
    // untraced low slices and 5 traced rounds of five, all 0.9 s.
    const int rounds = opt.smoke ? 2 : 10;
    const int traced_rounds = rounds / 2;
    const double warmup_s = opt.seconds / 20;
    const double low_s = opt.seconds * 0.9 / (rounds + (rounds + 1) / 2.0);
    const double slice_s = opt.seconds * 0.9 / (6 * traced_rounds);

    // Declared before the daemon, so they outlive its thread on every path.
    std::optional<span_log> client_log, server_log;
    // Set-up = listen + daemon thread + seeding, repeated; the last one serves.
    std::vector<double> setup_s;
    std::unique_ptr<daemon_under_test> dut;
    std::vector<net::node_id> read_hosts;
    for (int i = 0; i < (opt.smoke ? 2 : 9); ++i) {
        dut.reset();
        const std::int64_t t0 = now_ns();
        dut = std::make_unique<daemon_under_test>(*strategy, nullptr, nullptr);
        bool seeded = false;
        read_hosts = seed_read_ports(dut->client(), seed, seeded);
        setup_s.push_back(seconds_between(t0, now_ns()));
        out.check(seeded, name + ": seeding registers did not ack at their hosts");
    }

    tally t;
    generator gen{dut.get(), op_source{seed, mix}, sim::rng{seed ^ 0xa331ULL}, &read_hosts,
                  nullptr};
    t.add(gen.run(kLowRate, warmup_s));

    if (!opt.trace) {
        tcp_floor floor;
        std::vector<double> ratio;
        double floor_before = floor_p50_us(floor, low_s / 2);
        for (int i = 0; i < rounds; ++i) {
            const slice_result low = gen.run(kLowRate, low_s);
            t.add(low);
            const double floor_after = floor_p50_us(floor, low_s / 2);
            const double low_p50 = percentile(low.latency_us, 0.50);
            ratio.push_back(low_p50 / ((floor_before + floor_after) / 2));
            std::printf("  low p50 %6.1f us   echo p50 %5.1f .. %5.1f us   ratio %.4f\n", low_p50,
                        floor_before, floor_after, ratio.back());
            floor_before = floor_after;
        }
        dut->stop();
        check_daemon(out, *dut, name);
        out.attempted = t.issued;
        out.failed = t.failed;
        out.check(t.failed == 0, name + ": " + std::to_string(t.failed) +
                                     " operations timed out or answered wrong");
        out.add("op_time_vs_floor", median(ratio), "ratio");
        out.add("msgs_per_locate", t.per_locate(t.passes), "count");
        out.add("found_ratio", t.per_locate(t.found), "ratio");
        out.add("peak_rss_mib", bench::read_rss().peak_mb, "MiB");
        out.add("setup_s", median(setup_s), "s");
        return out;
    }

    // Trace run: untraced `low` slices are the overhead reference; a traced
    // daemon + client then runs warm-up and half the rounds.  Span totals
    // cover the traced daemon's whole life, seeding included.
    std::vector<double> untraced_low, traced_low, traced_high, lateness;
    for (int i = 0; i < traced_rounds; ++i) {
        const slice_result low = gen.run(kLowRate, slice_s);
        t.add(low);
        untraced_low.insert(untraced_low.end(), low.latency_us.begin(), low.latency_us.end());
    }
    dut->stop();
    check_daemon(out, *dut, name);
    dut.reset();
    client_log.emplace(1, kRawSpanCap);
    server_log.emplace(2, kRawSpanCap);
    dut = std::make_unique<daemon_under_test>(*strategy, &*server_log, &*client_log);
    bool seeded = false;
    {
        scoped_span s{&*client_log, "setup.daemon"};
        read_hosts = seed_read_ports(dut->client(), seed, seeded);
    }
    out.check(seeded, name + ": seeding registers did not ack at their hosts");
    gen = generator{dut.get(), op_source{seed, mix}, sim::rng{seed ^ 0xa331ULL}, &read_hosts,
                    &*client_log};
    t.add(gen.run(kLowRate, warmup_s));
    std::int64_t gen_issued = 0;
    int gen_max_in_flight = 0;
    tcp_floor floor;
    std::vector<double> saturated, floor_p50, floor_ops;
    for (int i = 0; i < traced_rounds; ++i) {
        const round_result r = run_round(gen, floor, t, slice_s, high_rate);
        saturated.push_back(r.saturated.throughput());
        floor_p50.push_back(r.floor_p50_us);
        floor_ops.push_back(r.floor_ops_per_s);
        traced_low.insert(traced_low.end(), r.low.latency_us.begin(), r.low.latency_us.end());
        traced_high.insert(traced_high.end(), r.high.latency_us.begin(), r.high.latency_us.end());
        for (const auto* s : {&r.low, &r.saturated, &r.high}) {
            lateness.insert(lateness.end(), s->lateness_us.begin(), s->lateness_us.end());
            gen_issued += s->issued;
            gen_max_in_flight = std::max(gen_max_in_flight, s->max_in_flight);
        }
    }
    dut->stop();
    check_daemon(out, *dut, name);
    out.attempted = t.issued;
    out.failed = t.failed;
    out.check(t.failed == 0,
              name + ": " + std::to_string(t.failed) + " operations timed out or answered wrong");

    const auto total_s = [](const span_log& log, const char* span) {
        return static_cast<double>(log.totals(span).total_ns) / 1e9;
    };
    const auto self_s = [](const span_log& log, const char* span) {
        return static_cast<double>(log.totals(span).self_ns) / 1e9;
    };
    const auto mean_ns = [](const span_log& log, const char* span) {
        const span_totals s = log.totals(span);
        return s.count == 0 ? 0.0 : static_cast<double>(s.total_ns) / static_cast<double>(s.count);
    };
    const traced_transport& ct = *dut->client_traced();
    const traced_transport& st = *dut->server_traced();
    const auto& cs = dut->client_net().stat();
    const auto& ss = dut->server_net().stat();
    const auto& ds = dut->server_stats();
    const double server_poll_s = total_s(*server_log, "transport.server_poll");
    const double server_handle_s = total_s(*server_log, "daemon.server_pump") - server_poll_s;

    out.add("transport.client_send_ns", mean_ns(*client_log, "transport.client_send"), "ns");
    out.add("transport.client_poll_s", total_s(*client_log, "transport.client_poll"), "s");
    out.add("transport.client_empty_poll_ratio", ratio(ct.empty_polls(), ct.polls()), "ratio");
    out.add("transport.server_poll_s", server_poll_s, "s");
    out.add("transport.server_frames_per_poll", ratio(st.frames(), st.polls()), "count");
    out.add("transport.server_reply_ns", mean_ns(*server_log, "transport.server_reply"), "ns");
    out.add("transport.frames_sent", static_cast<double>(cs.frames_sent + ss.frames_sent), "count");
    out.add("transport.frames_received",
            static_cast<double>(cs.frames_received + ss.frames_received), "count");
    out.add("transport.reconnects", static_cast<double>(cs.reconnects + ss.reconnects), "count");
    out.add("transport.frames_dropped", static_cast<double>(cs.frames_dropped + ss.frames_dropped),
            "count");
    out.add("transport.protocol_errors",
            static_cast<double>(cs.protocol_errors + ss.protocol_errors), "count");
    out.add("daemon.client_issue_us", mean_ns(*client_log, "daemon.client_issue") / 1e3, "us");
    // Self time = the span minus its child spans: pump minus poll (and, on
    // the daemon, minus the reply writes).
    out.add("daemon.client_dispatch_s", self_s(*client_log, "daemon.client_pump"), "s");
    out.add("daemon.server_handle_s", server_handle_s, "s");
    out.add("daemon.server_core_s", self_s(*server_log, "daemon.server_pump"), "s");
    out.add("daemon.hits", static_cast<double>(ds.hits), "count");
    out.add("daemon.misses", static_cast<double>(ds.misses), "count");
    out.add("daemon.posts", static_cast<double>(ds.posts), "count");
    out.add("daemon.removes", static_cast<double>(ds.removes), "count");
    out.add("daemon.bad_frames", static_cast<double>(ds.bad_frames), "count");
    out.add("setup.daemon_s", median(setup_s), "s");
    out.add("gen.lateness_p99_us", percentile(lateness, 0.99), "us");
    out.add("gen.max_in_flight", gen_max_in_flight, "count");
    out.add("gen.issued", static_cast<double>(gen_issued), "count");
    out.add("gen.rtt_p50_us.low", percentile(traced_low, 0.50), "us");
    out.add("gen.rtt_p99_us.low", percentile(traced_low, 0.99), "us");
    out.add("gen.rtt_p50_us.high", percentile(traced_high, 0.50), "us");
    out.add("gen.rtt_p99_us.high", percentile(traced_high, 0.99), "us");
    out.add("gen.saturated_ops_per_s", median(saturated), "1/s");
    out.add("floor.latency_us", median(floor_p50), "us");
    out.add("floor.ops_per_s", median(floor_ops), "1/s");
    out.add("trace.overhead_ratio", percentile(traced_low, 0.50) / percentile(untraced_low, 0.50),
            "ratio");

    const std::string path = opt.trace_dir + "/" + name + ".trace.json";
    out.check(write_chrome_trace(path, {&*client_log, &*server_log}, kRawSpanCap), "write " + path);
    return out;
}

}  // namespace

run_result run_daemon_locate(const options& opt) { return run_daemon(opt, "daemon_locate", false); }
run_result run_daemon_mix(const options& opt) { return run_daemon(opt, "daemon_mix", true); }

}  // namespace perf
