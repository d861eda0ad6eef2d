#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <unordered_map>

namespace perfbench {

using xrl::Trace_span;

namespace {

bool is_root(const std::string& name) { return name.rfind("bench/", 0) == 0; }

bool has_prefix(const std::string& name, const std::vector<std::string>& prefixes)
{
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string& p) { return name.rfind(p, 0) == 0; });
}

/// Length of the union of `intervals` clipped to [begin, end).
std::uint64_t covered_us(std::vector<std::pair<std::uint64_t, std::uint64_t>>& intervals,
                         std::uint64_t begin, std::uint64_t end)
{
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = begin;
    for (const auto& [from, to] : intervals) {
        const std::uint64_t lo = std::max(from, reach);
        const std::uint64_t hi = std::min(to, end);
        if (hi > lo) {
            covered += hi - lo;
            reach = hi;
        }
    }
    return covered;
}

} // namespace

void accumulate(const std::vector<Trace_span>& spans, Span_table& table)
{
    std::unordered_map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto parent = by_id.find(spans[i].parent_span);
        if (parent != by_id.end() && parent->second != i) children[parent->second].push_back(i);
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> below;
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        // Self time subtracts every descendant, not only direct children:
        // work handed to another thread (a shard executing a client's
        // request) hangs under short-lived spans that end before it does.
        below.clear();
        stack.assign(children[i].begin(), children[i].end());
        while (!stack.empty()) {
            const std::size_t at = stack.back();
            stack.pop_back();
            below.emplace_back(spans[at].start_us, spans[at].start_us + spans[at].duration_us);
            stack.insert(stack.end(), children[at].begin(), children[at].end());
        }
        const std::uint64_t begin = spans[i].start_us;
        const std::uint64_t end = begin + spans[i].duration_us;
        const std::uint64_t self = spans[i].duration_us - covered_us(below, begin, end);

        // Walk up to the benchmark's root span; a tree whose root was
        // evicted from the ring is grouped under "?".
        std::string root = "?";
        for (std::size_t at = i;;) {
            if (is_root(spans[at].name)) {
                root = spans[at].name;
                break;
            }
            const auto parent = by_id.find(spans[at].parent_span);
            if (parent == by_id.end()) break;
            at = parent->second;
        }
        Span_total& entry = table[{root, spans[i].name}];
        entry.total_s += static_cast<double>(spans[i].duration_us) * 1e-6;
        entry.self_s += static_cast<double>(self) * 1e-6;
        entry.count += 1;
    }
}

double self_seconds(const Span_table& table, const std::string& name)
{
    double sum = 0.0;
    for (const auto& [key, entry] : table)
        if (key.second == name) sum += entry.self_s;
    return sum;
}

std::uint64_t span_count(const Span_table& table, const std::string& name)
{
    std::uint64_t sum = 0;
    for (const auto& [key, entry] : table)
        if (key.second == name) sum += entry.count;
    return sum;
}

double uncovered_seconds(const std::vector<Trace_span>& spans, const std::string& root,
                         const std::vector<std::string>& prefixes)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covering;
    for (const Trace_span& span : spans)
        if (has_prefix(span.name, prefixes))
            covering.emplace_back(span.start_us, span.start_us + span.duration_us);

    std::uint64_t uncovered = 0;
    for (const Trace_span& span : spans)
        if (span.name == root)
            uncovered += span.duration_us -
                         covered_us(covering, span.start_us, span.start_us + span.duration_us);
    return static_cast<double>(uncovered) * 1e-6;
}

void print_table(std::ostream& os, const Span_table& table, int rounds)
{
    const double per = 1.0 / std::max(rounds, 1);
    char line[256];
    std::snprintf(line, sizeof line, "%-16s %-30s %10s %12s %8s\n", "root", "span", "count",
                  "self s", "share");
    os << "per-layer self time, per round (" << rounds << " round" << (rounds == 1 ? "" : "s")
       << ")\n" << line;
    for (const auto& [key, entry] : table) {
        const auto root = table.find({key.first, key.first});
        const double root_total = root == table.end() ? 0.0 : root->second.total_s;
        const double share = root_total > 0.0 ? entry.self_s / root_total : 0.0;
        std::snprintf(line, sizeof line, "%-16s %-30s %10.1f %12.6f %7.2f%%\n", key.first.c_str(),
                      key.second.c_str(), static_cast<double>(entry.count) * per,
                      entry.self_s * per, share * 100.0);
        os << line;
    }
}

} // namespace perfbench
