// The benchmark's output checks must be able to fail: each test hands them
// a deliberately broken graph and asserts the operation would be counted
// failed, by the check that should catch it.
#include <gtest/gtest.h>

#include <limits>

#include "checks.h"
#include "cost/device.h"
#include "ir/builder.h"
#include "models/models.h"

namespace {

using namespace xrl;
using namespace perfbench;

struct Fixture {
    Graph input = make_dense_layer_example();
    Reference reference = make_reference(input, 11);
    Check_config config;

    Fixture()
    {
        config.device = gtx1080_profile();
        config.signal = Latency_signal::simulator;
        config.require_no_regression = true;
    }

    Reported honest(const Graph& output) const
    {
        return {latency_ms(input, config.signal, config.device),
                latency_ms(output, config.signal, config.device)};
    }

    Node_id first_of(const Graph& graph, Op_kind kind) const
    {
        for (const Node_id id : graph.node_ids())
            if (graph.node(id).kind == kind) return id;
        ADD_FAILURE() << "no " << op_kind_name(kind) << " node";
        return invalid_node;
    }
};

TEST(Checks, UnchangedGraphPasses)
{
    const Fixture f;
    const Check_report report = check_output(f.input, f.reference, f.input, f.honest(f.input),
                                             f.config);
    EXPECT_TRUE(report.passed()) << ::testing::PrintToString(report.failures);
}

TEST(Checks, CostModelSignalPasses)
{
    Fixture f;
    f.config.signal = Latency_signal::cost_model;
    const Check_report report = check_output(f.input, f.reference, f.input, f.honest(f.input),
                                             f.config);
    EXPECT_TRUE(report.passed()) << ::testing::PrintToString(report.failures);
}

TEST(Checks, RenumberedWeightFails)
{
    const Fixture f;
    Graph broken = f.input;
    const Node_id old_weight = f.first_of(broken, Op_kind::weight);
    const Shape_list shapes = broken.node(old_weight).output_shapes;
    const Node_id fresh = broken.add_node(Op_kind::weight, {}, {}, "w");
    broken.node_mut(fresh).output_shapes = shapes;
    broken.replace_all_uses({old_weight, 0}, {fresh, 0});
    broken.erase_node(old_weight);
    broken.infer_shapes();

    const Check_report report = check_output(f.input, f.reference, broken, f.honest(broken),
                                             f.config);
    EXPECT_TRUE(report.failed("sources")) << ::testing::PrintToString(report.failures);
    EXPECT_FALSE(report.passed());
}

TEST(Checks, LostModelInputFails)
{
    const Fixture f;
    Graph broken = f.input;
    const Node_id old_input = f.first_of(broken, Op_kind::input);
    const Shape_list shapes = broken.node(old_input).output_shapes;
    const Node_id fresh = broken.add_node(Op_kind::input, {}, {}, "x");
    broken.node_mut(fresh).output_shapes = shapes;
    broken.replace_all_uses({old_input, 0}, {fresh, 0});
    broken.erase_node(old_input);
    broken.infer_shapes();

    Check_report report;
    check_sources(f.input, broken, report);
    EXPECT_TRUE(report.failed("sources"));
    EXPECT_EQ(report.failures.size(), 2U) << ::testing::PrintToString(report.failures);
}

TEST(Checks, ChangedOpKindFails)
{
    const Fixture f;
    Graph broken = f.input;
    broken.node_mut(f.first_of(broken, Op_kind::relu)).kind = Op_kind::sigmoid;
    broken.infer_shapes();

    const Check_report report = check_output(f.input, f.reference, broken, f.honest(broken),
                                             f.config);
    EXPECT_TRUE(report.failed("semantics")) << ::testing::PrintToString(report.failures);
    EXPECT_FALSE(report.failed("sources"));
    EXPECT_FALSE(report.failed("latency"));
}

TEST(Checks, NanOutputFails)
{
    const Fixture f;
    Graph broken = f.input;
    const Edge out = broken.outputs().front();
    const Shape shape = broken.shape_of(out);
    const Node_id nan = broken.add_constant(
        Tensor::full(shape, std::numeric_limits<float>::quiet_NaN()), "nan");
    const Node_id sum = broken.add_node(Op_kind::add, {out, {nan, 0}});
    broken.set_outputs({{sum, 0}});
    broken.infer_shapes();

    Check_report report;
    check_semantics(broken, f.reference, report);
    ASSERT_TRUE(report.failed("semantics"));
    EXPECT_NE(report.failures.front().find("non-finite"), std::string::npos)
        << report.failures.front();
}

TEST(Checks, BatchNormChannelsAreAllCompared)
{
    Graph_builder b;
    const Edge x = b.input({1, 8, 4, 4}, "x");
    const Edge w = b.weight({8, 8, 3, 3}, "w");
    const Graph input = b.finish({b.batch_norm(b.conv2d(x, w, 1, 1), 8)});
    const Reference reference = make_reference(input, 11);
    ASSERT_EQ(reference.variances.size(), 1U);
    Check_report unchanged;
    check_semantics(input, reference, unchanged);
    EXPECT_TRUE(unchanged.passed()) << ::testing::PrintToString(unchanged.failures);

    // Feeding the mean where the beta goes changes every channel.
    Graph broken = input;
    for (const Node_id id : broken.node_ids()) {
        Node& node = broken.node_mut(id);
        if (node.kind == Op_kind::batch_norm) std::swap(node.inputs[2], node.inputs[3]);
    }
    Check_report report;
    check_semantics(broken, reference, report);
    EXPECT_TRUE(report.failed("semantics")) << ::testing::PrintToString(report.failures);
}

TEST(Checks, OffReportedLatencyFails)
{
    const Fixture f;
    Reported reported = f.honest(f.input);
    reported.final_ms *= 0.99;

    const Check_report report = check_output(f.input, f.reference, f.input, reported, f.config);
    EXPECT_TRUE(report.failed("latency")) << ::testing::PrintToString(report.failures);
    EXPECT_FALSE(report.failed("semantics"));
}

TEST(Checks, RegressionFailsOnlyWhenRequired)
{
    Fixture f;
    Reported reported = f.honest(f.input);
    reported.final_ms = reported.initial_ms * 1.5;

    Check_report strict;
    check_latency(f.input, f.input, reported, f.config, strict);
    EXPECT_TRUE(strict.failed("monotone"));

    f.config.require_no_regression = false;
    Check_report lenient;
    check_latency(f.input, f.input, reported, f.config, lenient);
    EXPECT_FALSE(lenient.failed("monotone"));
}

TEST(Checks, ToleranceIsRelativeToOutputMagnitude)
{
    const Fixture f;
    const auto perturbed = [&](float relative) {
        Reference shifted = f.reference;
        for (Tensor& t : shifted.outputs)
            for (std::int64_t i = 0; i < t.volume(); ++i) t.data()[i] *= 1.0F + relative;
        Check_report report;
        check_semantics(f.input, shifted, report);
        return report;
    };
    EXPECT_TRUE(perturbed(static_cast<float>(semantics_tolerance / 100)).passed());
    EXPECT_TRUE(perturbed(static_cast<float>(semantics_tolerance * 100)).failed("semantics"));
}

} // namespace
