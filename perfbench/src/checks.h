// Output checks for the end-to-end benchmark.
//
// Every optimised graph the benchmark receives is checked here before its
// operation counts as passed. The checks are written against the library's
// public surface only (the reference executor, the cost model and the
// end-to-end simulator) and deliberately avoid Tensor::max_abs_difference,
// which ignores NaN.
//
//   semantics  the reference executor's outputs for the input and the
//              returned graph, under the same bindings and weight seed,
//              agree within a tolerance relative to the output's magnitude;
//              any non-finite value is a failure;
//   sources    every input and weight node of the returned graph is one of
//              the input's (same id, kind and shape), and every model input
//              survives;
//   latency    the latencies the result reports equal the benchmark's own
//              recomputation under the backend's signal;
//   monotone   final <= initial, for backends whose best-so-far starts at
//              the input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cost/device.h"
#include "ir/executor.h"
#include "ir/graph.h"

namespace perfbench {

/// The latency signal a backend reports in initial_ms / final_ms.
enum class Latency_signal {
    simulator,  ///< Noiseless E2e_simulator (X-RLflow).
    cost_model, ///< Sum-of-ops Cost_model (TASO, PET, Tensat).
};

/// What the returned graph is compared against: the input's reference
/// outputs under fixed bindings.
struct Reference {
    xrl::Binding_map bindings;
    std::uint64_t weight_seed = 0;
    /// Weight ids the input uses as batch-norm variance. Both sides run
    /// with these bound to positive constants: the executor's U(-0.5, 0.5)
    /// weights would make sqrt(var + eps) NaN on about half the channels,
    /// and relu / max-pool turn that NaN into 0 on both sides alike.
    std::vector<xrl::Node_id> variances;
    std::vector<xrl::Tensor> outputs;
};

/// Bindings and weight seed drawn from `seed`; runs the reference executor
/// on `input` once.
Reference make_reference(const xrl::Graph& input, std::uint64_t seed);

struct Check_config {
    Latency_signal signal = Latency_signal::simulator;
    xrl::Device_profile device;
    bool require_no_regression = false; ///< final <= initial.
};

/// The semantics check's bound, as a share of max |reference output|.
inline constexpr double semantics_tolerance = 1e-4;

/// What the backend reported alongside its graph.
struct Reported {
    double initial_ms = 0.0;
    double final_ms = 0.0;
};

struct Check_report {
    /// One entry per failed check, "<check>: <detail>"; empty = passed.
    std::vector<std::string> failures;

    bool passed() const { return failures.empty(); }
    bool failed(const std::string& check) const;
};

/// Run every check on one returned graph; semantics are not compared when
/// the sources already differ.
Check_report check_output(const xrl::Graph& input, const Reference& reference,
                          const xrl::Graph& output, const Reported& reported,
                          const Check_config& config);

/// The individual checks (exposed for the benchmark's own tests). Each
/// appends to `report` and leaves it untouched when it passes.
void check_semantics(const xrl::Graph& output, const Reference& reference, Check_report& report);
void check_sources(const xrl::Graph& input, const xrl::Graph& output, Check_report& report);
void check_latency(const xrl::Graph& input, const xrl::Graph& output, const Reported& reported,
                   const Check_config& config, Check_report& report);

/// The latency `graph` has under `signal` on `device`.
double latency_ms(const xrl::Graph& graph, Latency_signal signal, const xrl::Device_profile& device);

} // namespace perfbench
