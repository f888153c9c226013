// trace.h - outside-in spans for the benchmark's --trace runs.
//
// A span_log belongs to one thread and records spans around calls the
// benchmark makes into the library's public functions (and through the
// decorators timed_strategy in sim_workloads.cpp and traced_transport in
// daemon_workloads.cpp).  Each span has a name, start, end, parent span
// and the op tag of the request it serves; aggregates (count, total time,
// self time = total minus the time covered by child spans) cover every span,
// while raw spans are kept only up to a cap and written out at exit in
// Chrome trace-event format (chrome://tracing, Perfetto).
//
// A null span_log* turns every scoped_span into a no-op, which is how the
// untraced runs use the same code paths.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perf {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now().time_since_epoch())
        .count();
}

struct span_record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0 = root
    std::int64_t tag = 0;     // op tag shared by every span of one request
    int tid = 0;
};

struct span_totals {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
};

class span_log {
public:
    span_log(int tid, std::size_t raw_cap);

    void begin(const char* name, std::int64_t tag);
    // Closes the innermost open span; a nonzero tag overrides the one given
    // at begin (an op id is known only once begin_* has returned).
    void end(std::int64_t tag = 0);

    // Totals of every closed span with this name (names are compared by
    // content, so literals from different translation units match).
    [[nodiscard]] span_totals totals(const std::string& name) const;
    [[nodiscard]] const std::vector<span_record>& raw() const noexcept { return raw_; }

private:
    struct open_span {
        span_record rec;
        std::int64_t child_ns = 0;
    };
    struct named_totals {
        const char* name;
        span_totals t;
    };

    int tid_;
    std::size_t raw_cap_;
    std::int64_t next_id_ = 1;
    std::vector<open_span> stack_;
    std::vector<named_totals> totals_;
    std::vector<span_record> raw_;
};

// RAII span; a no-op when log is null.
class scoped_span {
public:
    scoped_span(span_log* log, const char* name, std::int64_t tag = 0) : log_{log} {
        if (log_ != nullptr) log_->begin(name, tag);
    }
    ~scoped_span() {
        if (log_ != nullptr) log_->end(tag_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    void set_tag(std::int64_t tag) noexcept { tag_ = tag; }

private:
    span_log* log_;
    std::int64_t tag_ = 0;
};

// Writes the raw spans of all logs, at most `cap` of them (earliest first),
// as a Chrome trace-event JSON file.  Returns false if the file could not be
// written.
bool write_chrome_trace(const std::string& path, const std::vector<const span_log*>& logs,
                        std::size_t cap);

}  // namespace perf
