// mm_perf - the repository's end-to-end benchmark (see perf/README.md).
//
//   mm_perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//           [--trace-dir DIR]
//
// Runs one workload in this process for S seconds (default 30; --smoke runs
// toy sizes for 1 s) and prints a metric table followed by one JSON line:
// {"correct", "attempted", "failed", "metrics"}.  An untraced
// run reports the end-to-end metrics, a traced run the per-layer ones (and
// writes DIR/<workload>.trace.json).  Exits 0 when every output check
// passed, 3 when one failed (the JSON line is still printed), 2 on a usage
// error and 1 when the run itself threw.
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "perf.h"

namespace {

struct metric_def {
    const char* name;
    const char* unit;
};

// The metric vocabulary, in BENCHMARK.json order (compare.py --check holds
// the two in step).  Every end-to-end metric is reported by every workload;
// a per-layer metric a workload does not cross reads 0.
constexpr metric_def kEndToEnd[] = {
    {"op_time_vs_floor", "ratio"}, {"msgs_per_locate", "count"}, {"found_ratio", "ratio"},
    {"peak_rss_mib", "MiB"},       {"setup_s", "s"},
};

constexpr metric_def kPerLayer[] = {
    {"net.row_builds", "count"},
    {"net.rows_resident", "count"},
    {"net.row_build_us", "us"},
    {"net.est_busy_s", "s"},
    {"net.est_share", "ratio"},
    {"strategies.calls", "count"},
    {"strategies.busy_s", "s"},
    {"strategies.ns_per_call", "ns"},
    {"strategies.set_elems_per_call", "count"},
    {"strategies.share", "ratio"},
    {"sim.hops", "count"},
    {"sim.messages_sent", "count"},
    {"sim.messages_delivered", "count"},
    {"sim.messages_dropped", "count"},
    {"sim.makespan_ticks", "ticks"},
    {"sim.hops_per_host_s", "1/s"},
    {"sim.hops_per_op", "count"},
    {"sim.latency_p99_ticks", "ticks"},
    {"runtime.issued", "count"},
    {"runtime.completed", "count"},
    {"runtime.max_in_flight", "count"},
    {"runtime.self_s", "s"},
    {"runtime.promotions", "count"},
    {"runtime.hot_reposts", "count"},
    {"runtime.region_crashes", "count"},
    {"runtime.hot_hop_share", "ratio"},
    {"runtime.stale_ratio", "ratio"},
    {"runtime.ops_per_s", "1/s"},
    {"transport.client_send_ns", "ns"},
    {"transport.client_poll_s", "s"},
    {"transport.client_empty_poll_ratio", "ratio"},
    {"transport.server_poll_s", "s"},
    {"transport.server_frames_per_poll", "count"},
    {"transport.server_reply_ns", "ns"},
    {"transport.frames_sent", "count"},
    {"transport.frames_received", "count"},
    {"transport.reconnects", "count"},
    {"transport.frames_dropped", "count"},
    {"transport.protocol_errors", "count"},
    {"daemon.client_issue_us", "us"},
    {"daemon.client_dispatch_s", "s"},
    {"daemon.server_handle_s", "s"},
    {"daemon.server_core_s", "s"},
    {"daemon.hits", "count"},
    {"daemon.misses", "count"},
    {"daemon.posts", "count"},
    {"daemon.removes", "count"},
    {"daemon.bad_frames", "count"},
    {"setup.graph_s", "s"},
    {"setup.strategy_s", "s"},
    {"setup.sim_s", "s"},
    {"setup.runtime_s", "s"},
    {"setup.daemon_s", "s"},
    {"gen.lateness_p99_us", "us"},
    {"gen.max_in_flight", "count"},
    {"gen.issued", "count"},
    {"gen.rtt_p50_us.low", "us"},
    {"gen.rtt_p99_us.low", "us"},
    {"gen.rtt_p50_us.high", "us"},
    {"gen.rtt_p99_us.high", "us"},
    {"gen.saturated_ops_per_s", "1/s"},
    {"floor.latency_us", "us"},
    {"floor.ops_per_s", "1/s"},
    {"trace.overhead_ratio", "ratio"},
};

struct workload_def {
    const char* name;
    perf::run_result (*run)(const perf::options&);
};

constexpr workload_def kWorkloads[] = {
    {"cube_routes", perf::run_cube_routes},
    {"hier_hostile", perf::run_hier_hostile},
    {"daemon_locate", perf::run_daemon_locate},
    {"daemon_mix", perf::run_daemon_mix},
};

int usage(const char* why) {
    std::cerr << "mm_perf: " << why << "\n"
              << "usage: mm_perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]"
                 " [--trace-dir DIR]\nworkloads:";
    for (const auto& w : kWorkloads) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

std::string number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string{buf, res.ptr};
}

// Puts the workload's metrics into vocabulary order, filling per-layer
// gaps with 0; an unknown name, a unit mismatch, a missing end-to-end metric
// or a non-finite value fails the run.
template <std::size_t N>
std::vector<perf::metric> canonical(perf::run_result& r, const metric_def (&defs)[N],
                                    bool zero_fill) {
    std::vector<perf::metric> out;
    for (const auto& d : defs) {
        perf::metric m{d.name, 0, d.unit};
        bool found = false;
        for (const auto& have : r.metrics) {
            if (have.name != d.name) continue;
            found = true;
            m.value = have.value;
            r.check(have.unit == d.unit,
                    have.name + ": unit " + have.unit + ", expected " + d.unit);
        }
        r.check(found || zero_fill, std::string{"missing metric "} + d.name);
        r.check(std::isfinite(m.value), std::string{"non-finite metric "} + d.name);
        if (!std::isfinite(m.value)) m.value = 0;
        out.push_back(m);
    }
    for (const auto& have : r.metrics) {
        bool known = false;
        for (const auto& d : defs) known = known || have.name == d.name;
        r.check(known, "metric outside the vocabulary: " + have.name);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    perf::options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            // Both "--trace" and "--trace 0|1" are accepted.
            opt.trace = true;
            const std::string_view next = has_value ? argv[i + 1] : "";
            if (next == "0" || next == "1") opt.trace = argv[++i][0] == '1';
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--trace-dir" && has_value) {
            opt.trace_dir = argv[++i];
        } else {
            return usage(("unknown or incomplete argument " + std::string{arg}).c_str());
        }
    }
    if (opt.smoke) opt.seconds = 1;
    if (!(opt.seconds > 0)) return usage("--seconds must be positive");
    if (opt.trace && opt.trace_dir.empty()) return usage("--trace needs --trace-dir");

    const workload_def* w = nullptr;
    for (const auto& def : kWorkloads)
        if (opt.workload == def.name) w = &def;
    if (w == nullptr) return usage("unknown workload");

    std::printf("%s (seed %llu, %s)\n", w->name, static_cast<unsigned long long>(opt.seed),
                opt.trace ? "per-layer, traced" : "end-to-end");
    perf::run_result r;
    try {
        r = w->run(opt);
    } catch (const std::exception& e) {
        std::cerr << "mm_perf: " << opt.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    const std::vector<perf::metric> metrics =
        opt.trace ? canonical(r, kPerLayer, true) : canonical(r, kEndToEnd, false);

    for (const auto& m : metrics)
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("  checks: %s, attempted %lld, failed %lld\n", r.correct ? "ok" : "FAILED",
                static_cast<long long>(r.attempted), static_cast<long long>(r.failed));

    std::string json = std::string{"{\"correct\": "} + (r.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(r.attempted) +
                       ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return r.correct ? 0 : 3;
}
