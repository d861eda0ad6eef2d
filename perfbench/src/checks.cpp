#include "checks.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <sstream>

#include "cost/cost_model.h"
#include "cost/e2e_simulator.h"
#include "support/rng.h"

namespace perfbench {

using namespace xrl;

namespace {

/// Sources a model binds at run time; constants carry their own payload.
bool is_bound_source(Op_kind kind) { return kind == Op_kind::input || kind == Op_kind::weight; }

std::string describe_node(const Graph& graph, Node_id id)
{
    std::ostringstream os;
    const Node& node = graph.node(id);
    os << op_kind_name(node.kind) << " #" << id;
    if (!node.name.empty()) os << " '" << node.name << "'";
    return os.str();
}

const Shape& source_shape(const Node& node)
{
    static const Shape none;
    return node.output_shapes.empty() ? none : node.output_shapes.front();
}

/// `graph` with the reference's variance weights turned into constants
/// holding 0.5 + |w|, under the same ids on every side.
Graph with_positive_variances(const Graph& graph, const Reference& reference)
{
    Graph copy = graph;
    for (const Node_id id : reference.variances) {
        if (static_cast<std::size_t>(id) >= copy.capacity() || !copy.is_alive(id)) continue;
        Node& node = copy.node_mut(id);
        if (node.kind != Op_kind::weight) continue;
        Tensor value = materialise_weight(source_shape(node), id, reference.weight_seed);
        for (std::int64_t i = 0; i < value.volume(); ++i)
            value.data()[i] = 0.5F + std::abs(value.data()[i]);
        node.kind = Op_kind::constant;
        node.payload = std::make_shared<const Tensor>(std::move(value));
    }
    return copy;
}

} // namespace

bool Check_report::failed(const std::string& check) const
{
    const std::string prefix = check + ":";
    return std::any_of(failures.begin(), failures.end(),
                       [&](const std::string& f) { return f.rfind(prefix, 0) == 0; });
}

Reference make_reference(const Graph& input, std::uint64_t seed)
{
    Reference reference;
    Rng rng(seed ^ 0xb1d1ULL);
    reference.bindings = random_bindings(input, rng);
    reference.weight_seed = seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL;
    for (const Node_id id : input.node_ids()) {
        const Node& node = input.node(id);
        if (node.kind != Op_kind::batch_norm) continue;
        const Node_id variance = node.inputs.at(4).node;
        if (input.node(variance).kind == Op_kind::weight) reference.variances.push_back(variance);
    }
    reference.outputs = execute(with_positive_variances(input, reference), reference.bindings,
                                reference.weight_seed);
    return reference;
}

double latency_ms(const Graph& graph, Latency_signal signal, const Device_profile& device)
{
    if (signal == Latency_signal::cost_model) return Cost_model(device).graph_cost_ms(graph);
    return E2e_simulator(device, 0).noiseless_ms(graph);
}

void check_semantics(const Graph& output, const Reference& reference, Check_report& report)
{
    std::vector<Tensor> got;
    try {
        got = execute(with_positive_variances(output, reference), reference.bindings,
                      reference.weight_seed);
    } catch (const std::exception& e) {
        report.failures.push_back(std::string("semantics: executor rejected the graph: ") +
                                  e.what());
        return;
    }
    if (got.size() != reference.outputs.size()) {
        report.failures.push_back("semantics: " + std::to_string(got.size()) + " outputs, input has " +
                                  std::to_string(reference.outputs.size()));
        return;
    }
    for (std::size_t k = 0; k < got.size(); ++k) {
        const Tensor& want = reference.outputs[k];
        const Tensor& have = got[k];
        if (want.shape() != have.shape()) {
            report.failures.push_back("semantics: output " + std::to_string(k) + " changed shape");
            continue;
        }
        double magnitude = 0.0;
        std::int64_t non_finite = 0;
        for (std::int64_t i = 0; i < want.volume(); ++i) {
            const double w = want.data()[i];
            const double h = have.data()[i];
            if (!std::isfinite(w) || !std::isfinite(h)) ++non_finite;
            else magnitude = std::max(magnitude, std::abs(w));
        }
        if (non_finite > 0) {
            report.failures.push_back("semantics: output " + std::to_string(k) + " has " +
                                      std::to_string(non_finite) + " non-finite values");
            continue;
        }
        const double bound = semantics_tolerance * std::max(magnitude, 1e-6);
        double worst = 0.0;
        for (std::int64_t i = 0; i < want.volume(); ++i)
            worst = std::max(worst, std::abs(static_cast<double>(want.data()[i]) - have.data()[i]));
        if (worst > bound) {
            std::ostringstream os;
            os << "semantics: output " << k << " differs by " << worst << " (bound " << bound
               << " = " << semantics_tolerance << " x max |y| " << magnitude << ")";
            report.failures.push_back(os.str());
        }
    }
}

void check_sources(const Graph& input, const Graph& output, Check_report& report)
{
    int foreign = 0;
    std::string first;
    for (const Node_id id : output.node_ids()) {
        const Node& node = output.node(id);
        if (!is_bound_source(node.kind)) continue;
        const bool known = static_cast<std::size_t>(id) < input.capacity() && input.is_alive(id) &&
                           input.node(id).kind == node.kind &&
                           source_shape(input.node(id)) == source_shape(node);
        if (known) continue;
        if (foreign++ == 0) first = describe_node(output, id);
    }
    if (foreign > 0)
        report.failures.push_back("sources: " + std::to_string(foreign) +
                                  " input/weight nodes are not the input's, first " + first);

    for (const Node_id id : input.node_ids()) {
        const Node& node = input.node(id);
        if (node.kind != Op_kind::input) continue;
        const bool kept = static_cast<std::size_t>(id) < output.capacity() &&
                          output.is_alive(id) && output.node(id).kind == Op_kind::input &&
                          source_shape(output.node(id)) == source_shape(node);
        if (!kept) report.failures.push_back("sources: model input " + describe_node(input, id) +
                                             " did not survive");
    }
}

void check_latency(const Graph& input, const Graph& output, const Reported& reported,
                   const Check_config& config, Check_report& report)
{
    const auto agrees = [](double recomputed, double claimed) {
        return std::abs(recomputed - claimed) <= 1e-9 * std::max(1.0, std::abs(recomputed));
    };
    const double initial = latency_ms(input, config.signal, config.device);
    const double final_ms = latency_ms(output, config.signal, config.device);
    std::ostringstream os;
    os.precision(12);
    if (!agrees(initial, reported.initial_ms)) {
        os << "latency: reported initial " << reported.initial_ms << " ms, recomputed " << initial;
        report.failures.push_back(os.str());
        os.str("");
    }
    if (!agrees(final_ms, reported.final_ms)) {
        os << "latency: reported final " << reported.final_ms << " ms, recomputed " << final_ms;
        report.failures.push_back(os.str());
        os.str("");
    }
    if (config.require_no_regression && reported.final_ms > reported.initial_ms) {
        os << "monotone: final " << reported.final_ms << " ms > initial " << reported.initial_ms;
        report.failures.push_back(os.str());
    }
}

Check_report check_output(const Graph& input, const Reference& reference, const Graph& output,
                          const Reported& reported, const Check_config& config)
{
    Check_report report;
    check_sources(input, output, report);
    check_latency(input, output, reported, config, report);
    // With foreign sources the executor would seed different weights, so
    // a comparison could show nothing; the operation has failed already.
    if (report.failed("sources")) return report;
    check_semantics(output, reference, report);
    return report;
}

} // namespace perfbench
