// The simulator workloads, run exactly as a user calls the library: the
// default (serial) engine, no set_worker_threads, the stock event cap, and a
// fresh graph + strategy + simulator + name_service per rep.  The reps of a
// run cycle through a few seeded inputs; every rep of one input must have
// bit-identical modelled statistics (a free nondeterminism canary) while
// host times give one sample each.
//
//   cube_routes   hypercube d=17 (131,072 nodes), hypercube_strategy,
//                 run_workload 90/4/4/2 locate/register/migrate/crash.
//                 The clients (131k sources) far exceed the routing table's
//                 256-row LRU, so BFS row builds dominate the host time.
//   hier_hostile  hierarchy {10,10,10} with load_aware(hierarchical) and the
//                 e22 policy, run_scenario("hostile").  Every routing row
//                 fits the cache, so the scheduler, handlers, P/Q
//                 construction and the load-aware feedback do the work.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/hierarchy.h"
#include "net/partition.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "core/codec.h"
#include "floor.h"
#include "perf.h"
#include "runtime/name_service.h"
#include "runtime/scenario.h"
#include "runtime/workload.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "strategies/cube.h"
#include "strategies/hierarchical.h"
#include "strategies/load_aware.h"
#include "trace.h"

namespace perf {
namespace {

using namespace mm;

constexpr std::size_t kRawSpanCap = 200'000;

// Trace-run decorator handed to name_service: times every P/Q construction
// and counts the set elements it returns.  Capabilities are forwarded, so
// the service behaves exactly as over the inner strategy.
class timed_strategy final : public core::locate_strategy {
public:
    timed_strategy(const core::locate_strategy& inner, span_log& log) : inner_{inner}, log_{log} {}

    [[nodiscard]] std::string name() const override { return inner_.name(); }
    [[nodiscard]] net::node_id node_count() const override { return inner_.node_count(); }
    [[nodiscard]] core::node_set post_set(net::node_id server, core::port_id port) const override {
        scoped_span s{&log_, "strategies.post_set"};
        return counted(inner_.post_set(server, port));
    }
    [[nodiscard]] core::node_set query_set(net::node_id client, core::port_id port) const override {
        scoped_span s{&log_, "strategies.query_set"};
        return counted(inner_.query_set(client, port));
    }
    [[nodiscard]] int staged_levels() const override { return inner_.staged_levels(); }
    [[nodiscard]] core::node_set staged_query_set(net::node_id client, int level,
                                                  core::port_id port) const override {
        scoped_span s{&log_, "strategies.staged_query_set"};
        return counted(inner_.staged_query_set(client, level, port));
    }
    [[nodiscard]] std::vector<const core::locate_strategy*> fallback_chain() const override {
        return inner_.fallback_chain();
    }

    [[nodiscard]] std::int64_t elements() const noexcept { return elements_; }

private:
    core::node_set counted(core::node_set set) const {
        elements_ += static_cast<std::int64_t>(set.size());
        return set;
    }

    const core::locate_strategy& inner_;
    span_log& log_;
    mutable std::int64_t elements_ = 0;
};

struct rep_stats {
    int input = 0;  // which of the run's seeded inputs
    // Host time, seconds.
    double graph_s = 0, strategy_s = 0, sim_s = 0, runtime_s = 0, run_s = 0;
    // Modelled (deterministic for a given seed).
    std::int64_t issued = 0, completed = 0, locates = 0, found = 0, stale = 0;
    std::int64_t locate_hops = 0, per_op_hops = 0, global_hops = 0;
    std::int64_t hops = 0, sent = 0, delivered = 0, dropped = 0;
    std::int64_t latency_p99 = 0, makespan = 0, max_in_flight = 0;
    std::int64_t promotions = 0, hot_reposts = 0, region_crashes = 0;
    double hot_hop_share = 0;
    std::int64_t row_builds = 0, rows_resident = 0;
    std::uint64_t fingerprint = 0;  // over everything modelled, incl. per-op results
    // Trace runs only.
    std::int64_t strategy_calls = 0, strategy_ns = 0, strategy_elems = 0;
    // Seconds per reference search (floor.h), the mean of the timings just
    // before and just after the rep.
    double floor_s = 0;

    [[nodiscard]] double setup_s() const { return graph_s + strategy_s + sim_s + runtime_s; }
    [[nodiscard]] double ops_per_s() const { return static_cast<double>(completed) / run_s; }
    // Host time per op, in reference searches.
    [[nodiscard]] double op_time_vs_floor() const {
        return run_s / static_cast<double>(completed) / floor_s;
    }
};

template <class F>
double timed_step(span_log* log, const char* name, F&& step) {
    scoped_span s{log, name};
    const std::int64_t t0 = now_ns();
    step();
    return seconds_between(t0, now_ns());
}

// Fills the modelled fields from the finished run.
void collect(rep_stats& r, const runtime::workload_stats& wl, sim::simulator& sim) {
    r.issued = wl.issued;
    r.completed = wl.completed;
    r.locates = wl.locates;
    r.found = wl.locates_found;
    r.stale = wl.stale_served;
    for (const auto& pp : wl.per_port) r.locate_hops += pp.hops;
    r.per_op_hops = wl.per_op_message_passes;
    r.global_hops = wl.global_message_passes;
    r.hops = sim.stats().get(sim::counter_hops);
    r.sent = sim.stats().get(sim::counter_messages_sent);
    r.delivered = sim.stats().get(sim::counter_messages_delivered);
    r.dropped = sim.stats().get(sim::counter_messages_dropped);
    r.latency_p99 = wl.latency_p99;
    r.makespan = wl.makespan;
    r.max_in_flight = wl.max_in_flight;
    r.hot_hop_share = wl.hot_port_hop_share;
    r.row_builds = sim.routes().row_builds();
    r.rows_resident = static_cast<std::int64_t>(sim.routes().materialized_rows());

    core::fnv1a_hasher h;
    const auto add = [&h](std::int64_t v) { h.update_u64(static_cast<std::uint64_t>(v)); };
    for (const std::int64_t v :
         {r.issued, r.completed, r.locates, r.found, r.stale, r.locate_hops, r.per_op_hops,
          r.global_hops, r.hops, r.sent, r.delivered, r.dropped, r.latency_p99, r.makespan,
          r.max_in_flight, r.row_builds, r.rows_resident})
        add(v);
    for (const auto& res : wl.results) {
        add(res.found ? 1 : 0);
        add(res.where);
        add(res.latency);
        add(res.message_passes);
        add(res.nodes_queried);
        add(res.issued_at);
        add(res.completed_at);
    }
    r.fingerprint = h.digest();
}

// Strategy spans so far in the log (calls, ns); a rep reports the change.
std::pair<std::int64_t, std::int64_t> strategy_spans(const span_log* log) {
    std::pair<std::int64_t, std::int64_t> sum{0, 0};
    if (log == nullptr) return sum;
    for (const char* name :
         {"strategies.post_set", "strategies.query_set", "strategies.staged_query_set"}) {
        const span_totals t = log->totals(name);
        sum.first += t.count;
        sum.second += t.total_ns;
    }
    return sum;
}

// Runs the rep's workload call under a span and records its host time and,
// on traced reps, the strategy time spent inside it.
template <class F>
void run_rep(rep_stats& r, span_log* log, const std::optional<timed_strategy>& timed, F&& call) {
    const auto before = strategy_spans(log);
    r.run_s = timed_step(log, "sim.rep", call);
    const auto after = strategy_spans(log);
    r.strategy_calls = after.first - before.first;
    r.strategy_ns = after.second - before.second;
    r.strategy_elems = timed ? timed->elements() : 0;
}

// The seed of the run's input number `input`.
std::uint64_t input_seed(const options& opt, int input) {
    return sim::splitmix64(opt.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(input));
}

rep_stats cube_rep(const options& opt, int input, span_log* log) {
    const int d = opt.smoke ? 10 : 17;
    rep_stats r;
    r.input = input;
    std::optional<net::graph> g;
    std::optional<strategies::hypercube_strategy> strat;
    std::optional<timed_strategy> timed;
    std::optional<sim::simulator> sim;
    std::optional<runtime::name_service> ns;
    r.graph_s = timed_step(log, "setup.graph", [&] { g.emplace(net::make_hypercube(d)); });
    r.strategy_s = timed_step(log, "setup.strategy", [&] {
        strat.emplace(d);
        if (log != nullptr) timed.emplace(*strat, *log);
    });
    r.sim_s = timed_step(log, "setup.sim", [&] { sim.emplace(*g); });
    r.runtime_s = timed_step(log, "setup.runtime", [&] {
        ns.emplace(*sim, timed ? static_cast<const core::locate_strategy&>(*timed) : *strat);
    });

    runtime::workload_options w;
    w.seed = input_seed(opt, input);
    w.operations = opt.smoke ? 60 : 200;
    w.locate_weight = 0.90;
    w.register_weight = 0.04;
    w.migrate_weight = 0.04;
    w.crash_weight = 0.02;
    runtime::workload_stats wl;
    run_rep(r, log, timed, [&] { wl = runtime::run_workload(*ns, w); });
    collect(r, wl, *sim);
    return r;
}

rep_stats hier_rep(const options& opt, int input, span_log* log) {
    rep_stats r;
    r.input = input;
    const net::hierarchy h{{10, 10, 10}};
    std::optional<net::graph> g;
    std::optional<strategies::hierarchical_strategy> parent;
    std::optional<strategies::load_aware_strategy> tuned;
    std::optional<timed_strategy> timed;
    std::optional<sim::simulator> sim;
    std::optional<runtime::name_service> ns;
    r.graph_s = timed_step(log, "setup.graph", [&] { g.emplace(net::make_hierarchical_graph(h)); });
    r.strategy_s = timed_step(log, "setup.strategy", [&] {
        // The e22 policy: coarse target-100 carve, thresholds 10/3, 4 homes.
        parent.emplace(h);
        tuned.emplace(*parent, strategies::load_aware_strategy::options{
                                   .hot_threshold = 10, .cool_threshold = 3, .replicas = 4});
        tuned->set_regions(net::partition_connected(*g, 100));
        if (log != nullptr) timed.emplace(*tuned, *log);
    });
    r.sim_s = timed_step(log, "setup.sim", [&] { sim.emplace(*g); });
    r.runtime_s = timed_step(log, "setup.runtime", [&] {
        runtime::name_service::options policy;
        policy.entry_ttl = 600;
        policy.refresh_period = 150;
        policy.client_caching = true;
        ns.emplace(*sim, timed ? static_cast<const core::locate_strategy&>(*timed) : *tuned,
                   policy);
    });

    // 20k ops per rep: one 100k-op run would trip the simulator's 50M event cap.
    const runtime::scenario_spec spec =
        runtime::named_scenario("hostile", 64, opt.smoke ? 2000 : 20000, input_seed(opt, input));
    runtime::scenario_stats st;
    run_rep(r, log, timed, [&] { st = runtime::run_scenario(*ns, spec, &*tuned); });
    collect(r, st.wl, *sim);
    r.promotions = st.promotions;
    r.hot_reposts = st.hot_reposts;
    r.region_crashes = st.region_crashes;
    return r;
}

// Median cost of one BFS row build: routing_table::path() from 32 cold roots
// of a fresh table over the workload's graph (the table builds the row
// rooted at the source when neither endpoint's row is resident).
double row_build_us(const options& opt, const net::graph& g, span_log* log) {
    net::routing_table table{g};
    const net::node_id n = g.node_count();
    sim::rng pick{input_seed(opt, 0) ^ 0x5eedULL};
    std::vector<double> us;
    std::vector<char> used(static_cast<std::size_t>(n), 0);
    const int roots = opt.smoke ? 8 : 32;
    while (static_cast<int>(us.size()) < roots) {
        const auto root = static_cast<net::node_id>(pick.uniform(0, n - 1));
        if (used[static_cast<std::size_t>(root)] != 0) continue;
        used[static_cast<std::size_t>(root)] = 1;
        scoped_span s{log, "net.row_build"};
        const std::int64_t t0 = now_ns();
        const auto path = table.path(root, (root + n / 2) % n);
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        if (path.empty()) return 0;
    }
    return median(us);
}

using rep_fn = std::function<rep_stats(const options&, int input, span_log*)>;

// What a workload is built to exercise, checked by its runs.
struct sim_design {
    // Seeded inputs a run cycles through.  Where the modelled cost per
    // locate varies from input to input, several inputs per run narrow its
    // spread across the seeds a benchmark is judged on.
    int inputs;
    // Every message belongs to an op (no periodic refresh), so per-op hops
    // must sum exactly to the global hop counter.
    bool exact_accounting;
    // Routing-row builds should dominate (net.est_share >= 0.5) rather than
    // be negligible (<= 0.05).
    bool routing_bound;
};

run_result run_sim(const options& opt, const char* name, const rep_fn& rep,
                   const std::function<net::graph()>& make_graph, sim_design design) {
    run_result out;
    std::unique_ptr<span_log> log;
    if (opt.trace) log = std::make_unique<span_log>(1, kRawSpanCap);

    bfs_floor floor{make_graph()};
    const std::int64_t start = now_ns();
    // An untimed warm-up rep pays the process's first-touch costs.
    std::vector<rep_stats> all{rep(opt, 0, nullptr)};
    // Measured reps until the budget is spent, each list cycling through
    // the inputs.  Trace runs alternate traced and undecorated reps; the
    // latter are the tracing-overhead reference (and a second canary:
    // decorating must not change one modelled result).
    std::vector<rep_stats> reps, untraced;
    const auto min_reps = static_cast<std::size_t>(std::max(opt.smoke ? 2 : 3, design.inputs));
    for (;;) {
        const bool traced = opt.trace && reps.size() <= untraced.size();
        auto& into = opt.trace && !traced ? untraced : reps;
        const int input = static_cast<int>(into.size() % static_cast<std::size_t>(design.inputs));
        const double floor_before = floor.seconds_per_search();
        into.push_back(rep(opt, input, traced ? log.get() : nullptr));
        into.back().floor_s = (floor_before + floor.seconds_per_search()) / 2;
        all.push_back(into.back());
        const double elapsed = seconds_between(start, now_ns());
        const double per_rep = elapsed / static_cast<double>(all.size());
        const bool enough = reps.size() >= min_reps && (!opt.trace || untraced.size() >= min_reps);
        if (enough && elapsed + per_rep > opt.seconds) break;
    }

    // The first rep of each input is the reference its later reps must
    // reproduce; the modelled metrics sum over these references.
    std::vector<const rep_stats*> first(static_cast<std::size_t>(design.inputs), nullptr);
    for (const auto& r : all)
        if (first[static_cast<std::size_t>(r.input)] == nullptr)
            first[static_cast<std::size_t>(r.input)] = &r;
    std::int64_t locates = 0, locate_hops = 0, found = 0;
    for (const rep_stats* r : first) {
        locates += r->locates;
        locate_hops += r->locate_hops;
        found += r->found;
    }
    for (const auto& r : all) {
        out.attempted += r.issued;
        const bool same = r.fingerprint == first[static_cast<std::size_t>(r.input)]->fingerprint;
        const bool accounted = r.completed > 0 && r.completed <= r.issued && r.found > 0 &&
                               (design.exact_accounting ? r.per_op_hops == r.global_hops
                                                 : r.per_op_hops <= r.global_hops);
        out.check(same, std::string{name} + ": reps of one input differ in modelled stats");
        out.check(accounted, std::string{name} + ": operation or message-pass accounting");
        if (!same || !accounted) out.failed += r.issued;
    }

    std::vector<double> ops_per_s, setup_s, run_s, floor_s, op_time, untraced_ops_per_s;
    for (const auto& r : untraced) untraced_ops_per_s.push_back(r.ops_per_s());
    std::printf("  reps (run s / reference ms):");
    for (const auto& r : all) std::printf(" %.3f/%.3f", r.run_s, r.floor_s * 1e3);
    std::printf(" (first one warm-up)\n");
    for (const auto& r : reps) {
        ops_per_s.push_back(r.ops_per_s());
        setup_s.push_back(r.setup_s());
        run_s.push_back(r.run_s);
        floor_s.push_back(r.floor_s);
        op_time.push_back(r.op_time_vs_floor());
    }

    if (!opt.trace) {
        out.add("op_time_vs_floor", median(op_time), "ratio");
        out.add("msgs_per_locate", ratio(locate_hops, locates), "count");
        out.add("found_ratio", ratio(found, locates), "ratio");
        out.add("peak_rss_mib", bench::read_rss().peak_mb, "MiB");
        out.add("setup_s", median(setup_s), "s");
        return out;
    }

    // Per-layer: host-time breakdowns and modelled counts come from the
    // median rep (by run time).
    const rep_stats& mid = reps[median_index(run_s)];
    const rep_stats& setup_mid = reps[median_index(setup_s)];
    const net::graph g = make_graph();
    const double build_us = row_build_us(opt, g, log.get());
    const double est_busy_s = static_cast<double>(mid.row_builds) * build_us / 1e6;
    const double strategy_s = static_cast<double>(mid.strategy_ns) / 1e9;

    out.add("net.row_builds", static_cast<double>(mid.row_builds), "count");
    out.add("net.rows_resident", static_cast<double>(mid.rows_resident), "count");
    out.add("net.row_build_us", build_us, "us");
    out.add("net.est_busy_s", est_busy_s, "s");
    const double est_share = est_busy_s / mid.run_s;
    // A design check, not an output check: a routing change may rightly
    // move a workload out of its band.
    const bool as_designed = design.routing_bound ? est_share >= 0.5 : est_share <= 0.05;
    std::printf("  design: net.est_share %.3f, built for %s: %s\n", est_share,
                design.routing_bound ? ">= 0.5" : "<= 0.05", as_designed ? "yes" : "NO");
    out.add("net.est_share", est_share, "ratio");
    out.add("strategies.calls", static_cast<double>(mid.strategy_calls), "count");
    out.add("strategies.busy_s", strategy_s, "s");
    out.add("strategies.ns_per_call", ratio(mid.strategy_ns, mid.strategy_calls), "ns");
    out.add("strategies.set_elems_per_call", ratio(mid.strategy_elems, mid.strategy_calls),
            "count");
    out.add("strategies.share", strategy_s / mid.run_s, "ratio");
    out.add("sim.hops", static_cast<double>(mid.hops), "count");
    out.add("sim.messages_sent", static_cast<double>(mid.sent), "count");
    out.add("sim.messages_delivered", static_cast<double>(mid.delivered), "count");
    out.add("sim.messages_dropped", static_cast<double>(mid.dropped), "count");
    out.add("sim.makespan_ticks", static_cast<double>(mid.makespan), "ticks");
    out.add("sim.hops_per_host_s", static_cast<double>(mid.hops) / mid.run_s, "1/s");
    out.add("sim.hops_per_op", ratio(mid.hops, mid.completed), "count");
    out.add("sim.latency_p99_ticks", static_cast<double>(mid.latency_p99), "ticks");
    out.add("runtime.issued", static_cast<double>(mid.issued), "count");
    out.add("runtime.completed", static_cast<double>(mid.completed), "count");
    out.add("runtime.max_in_flight", static_cast<double>(mid.max_in_flight), "count");
    out.add("runtime.self_s", mid.run_s - strategy_s - est_busy_s, "s");
    out.add("runtime.promotions", static_cast<double>(mid.promotions), "count");
    out.add("runtime.hot_reposts", static_cast<double>(mid.hot_reposts), "count");
    out.add("runtime.region_crashes", static_cast<double>(mid.region_crashes), "count");
    out.add("runtime.hot_hop_share", mid.hot_hop_share, "ratio");
    out.add("runtime.stale_ratio", ratio(mid.stale, mid.found), "ratio");
    out.add("setup.graph_s", setup_mid.graph_s, "s");
    out.add("setup.strategy_s", setup_mid.strategy_s, "s");
    out.add("setup.sim_s", setup_mid.sim_s, "s");
    out.add("setup.runtime_s", setup_mid.runtime_s, "s");
    out.add("runtime.ops_per_s", median(ops_per_s), "1/s");
    out.add("floor.latency_us", median(floor_s) * 1e6, "us");
    out.add("floor.ops_per_s", 1 / median(floor_s), "1/s");
    out.add("trace.overhead_ratio", median(untraced_ops_per_s) / median(ops_per_s), "ratio");

    const std::string path = opt.trace_dir + "/" + name + ".trace.json";
    out.check(write_chrome_trace(path, {log.get()}, kRawSpanCap), "write " + path);
    return out;
}

}  // namespace

run_result run_cube_routes(const options& opt) {
    return run_sim(
        opt, "cube_routes", cube_rep,
        [&] { return net::make_hypercube(opt.smoke ? 10 : 17); },
        {.inputs = 1, .exact_accounting = true, .routing_bound = true});
}

// Four inputs: the hostile scenario's modelled cost per locate spreads by
// up to 4% (IQR) over ten seeds when each run replays one input.
run_result run_hier_hostile(const options& opt) {
    return run_sim(
        opt, "hier_hostile", hier_rep,
        [] { return net::make_hierarchical_graph(net::hierarchy{{10, 10, 10}}); },
        {.inputs = 4, .exact_accounting = false, .routing_bound = false});
}

}  // namespace perf
