// perf.h - what every mm_perf workload shares: the run options, the result
// a run reports (metrics plus output checks), and the order statistics the
// metrics are made of.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

namespace perf {

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30;     // measurement budget of one run (BENCHMARK.json run_seconds)
    bool trace = false;      // per-layer run instead of the end-to-end one
    bool smoke = false;      // toy sizes and a 1 s budget, for the output checks only
    std::string trace_dir;   // where --trace writes <workload>.trace.json
};

struct metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct run_result {
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<metric> metrics;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    // An output check: a failing one is reported on stderr and makes the
    // whole run incorrect.
    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct = false;
        std::cerr << "mm_perf: CHECK FAILED: " << what << "\n";
    }
};

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size())) - 1;
    return v[static_cast<std::size_t>(std::clamp(rank, 0.0, static_cast<double>(v.size() - 1)))];
}

// Lower median: always one of the samples, so per-rep breakdowns taken from
// the median rep add up to the reported median.
[[nodiscard]] inline std::size_t median_index(const std::vector<double>& v) {
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    return order.empty() ? 0 : order[(order.size() - 1) / 2];
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
    return v.empty() ? 0 : v[median_index(v)];
}

// a / b, or 0 when b is 0 (a layer the workload does not cross).
[[nodiscard]] inline double ratio(std::int64_t a, std::int64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

[[nodiscard]] inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
    return static_cast<double>(end_ns - start_ns) / 1e9;
}

run_result run_cube_routes(const options& opt);
run_result run_hier_hostile(const options& opt);
run_result run_daemon_locate(const options& opt);
run_result run_daemon_mix(const options& opt);

}  // namespace perf
