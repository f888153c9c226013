#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perf {

// Span ids carry the thread id in their high bits, so ids from the client
// and daemon threads never collide in one trace file.
span_log::span_log(int tid, std::size_t raw_cap)
    : tid_{tid}, raw_cap_{raw_cap}, next_id_{(static_cast<std::int64_t>(tid) << 40) + 1} {
    stack_.reserve(16);
    raw_.reserve(std::min<std::size_t>(raw_cap_, 1 << 16));
}

void span_log::begin(const char* name, std::int64_t tag) {
    open_span s;
    s.rec.name = name;
    s.rec.id = next_id_++;
    s.rec.parent = stack_.empty() ? 0 : stack_.back().rec.id;
    s.rec.tag = tag != 0 || stack_.empty() ? tag : stack_.back().rec.tag;
    s.rec.tid = tid_;
    s.rec.start_ns = now_ns();
    stack_.push_back(s);
}

void span_log::end(std::int64_t tag) {
    open_span s = stack_.back();
    stack_.pop_back();
    s.rec.end_ns = now_ns();
    if (tag != 0) s.rec.tag = tag;
    const std::int64_t dur = s.rec.end_ns - s.rec.start_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;

    auto it = std::find_if(totals_.begin(), totals_.end(),
                           [&](const named_totals& n) { return n.name == s.rec.name; });
    if (it == totals_.end()) {
        totals_.push_back({s.rec.name, {}});
        it = totals_.end() - 1;
    }
    ++it->t.count;
    it->t.total_ns += dur;
    it->t.self_ns += dur - s.child_ns;

    if (raw_.size() < raw_cap_) raw_.push_back(s.rec);
}

span_totals span_log::totals(const std::string& name) const {
    span_totals sum;
    for (const auto& n : totals_) {
        if (name != n.name) continue;
        sum.count += n.t.count;
        sum.total_ns += n.t.total_ns;
        sum.self_ns += n.t.self_ns;
    }
    return sum;
}

namespace {

void write_escaped(std::ostream& out, const char* s) {
    for (; *s != '\0'; ++s) {
        if (*s == '"' || *s == '\\') out << '\\';
        out << *s;
    }
}

}  // namespace

bool write_chrome_trace(const std::string& path, const std::vector<const span_log*>& logs,
                        std::size_t cap) {
    std::vector<const span_record*> all;
    for (const auto* log : logs)
        for (const auto& r : log->raw()) all.push_back(&r);
    std::sort(all.begin(), all.end(), [](const span_record* a, const span_record* b) {
        return a->start_ns < b->start_ns;
    });
    if (all.size() > cap) all.resize(cap);
    const std::int64_t origin = all.empty() ? 0 : all.front()->start_ns;

    std::ofstream out{path};
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char num[96];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const span_record& r = *all[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"";
        write_escaped(out, r.name);
        std::snprintf(num, sizeof num, "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,", r.tid,
                      static_cast<double>(r.start_ns - origin) / 1e3);
        out << num;
        std::snprintf(num, sizeof num, "\"dur\":%.3f,",
                      static_cast<double>(r.end_ns - r.start_ns) / 1e3);
        out << num << "\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
            << ",\"tag\":" << r.tag << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perf
