// Per-layer aggregation of the spans a traced run records.
//
// The benchmark opens one root span per operation ("bench/train",
// "bench/optimise", "bench/search") around its call into the library; the
// library's own spans ("rollout/*", "candidates/*", "client/*", ...) nest
// under it. A span's self time is its duration minus its children's.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/trace.h"

namespace perfbench {

struct Span_total {
    double self_s = 0.0;
    double total_s = 0.0;
    std::uint64_t count = 0;
};

/// Keyed by (enclosing root span name, span name); roots key as (name, name).
using Span_table = std::map<std::pair<std::string, std::string>, Span_total>;

/// Add `spans` (one or more complete trees) to `table`.
void accumulate(const std::vector<xrl::Trace_span>& spans, Span_table& table);

/// Self time of every span called `name`, under any root.
double self_seconds(const Span_table& table, const std::string& name);
std::uint64_t span_count(const Span_table& table, const std::string& name);

/// Seconds of the spans called `root` that no span whose name starts with
/// one of `prefixes` covers (the union of their intervals is subtracted).
double uncovered_seconds(const std::vector<xrl::Trace_span>& spans, const std::string& root,
                         const std::vector<std::string>& prefixes);

/// Table of self time, count and share of the enclosing root span, grouped
/// by root, divided by `rounds` (figures per round).
void print_table(std::ostream& os, const Span_table& table, int rounds);

} // namespace perfbench
