// End-to-end benchmark: graph in, optimised graph out.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// Workloads (see README.md for why each exists and its exact make-up):
//   xrlflow     train + optimise BERT, ViT and InceptionV3 with X-RLflow
//   search-zoo  7 models x {taso, pet, tensat} through an in-process
//               xrlflowd Daemon and one Client
//
// A run sets the workload up, then repeats whole rounds of the same
// operations until they have taken --seconds (at least one round). Every
// returned graph is then checked (checks.h); an operation whose checks
// fail is counted in "failed". The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones, from spans recorded
// around and inside the library calls, and a per-layer table and a Chrome
// trace are written as well.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "core/xrlflow.h"
#include "cost/e2e_simulator.h"
#include "ir/graph_io.h"
#include "models/models.h"
#include "net/client.h"
#include "net/daemon.h"
#include "rules/corpus.h"
#include "spans.h"
#include "support/record_file.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace {

using namespace xrl;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

const Clock::time_point process_start = Clock::now();

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

Args parse_args(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value after " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--trace-out") {
            args.trace_out = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return args;
}

/// splitmix64: decorrelates the per-purpose seeds drawn from --seed.
std::uint64_t mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// One operation's outcome and the round it belongs to
// ---------------------------------------------------------------------------

struct Model {
    std::string name;
    Graph graph;
};

struct Op_result {
    std::size_t model = 0;      ///< Index into the workload's models.
    std::string label;          ///< "<model>/<backend>".
    std::string backend;
    double train_s = 0.0;       ///< X-RLflow only.
    double optimise_s = 0.0;    ///< What the caller waited for the graph.
    double traced_optimise_s = 0.0; ///< Same operation, traced (trace mode).
    double backend_wall_s = 0.0;    ///< Optimize_result::wall_seconds (served backends).
    int steps = 0;              ///< Inference steps (X-RLflow) or backend steps.
    double speedup = 1.0;       ///< Noiseless simulator: input / output latency.

    // What the checks need; they run after the measured rounds.
    Graph output;
    Reported reported;
    Check_config check;
    Check_report report;
};

using Round = std::vector<Op_result>;

/// Collects and aggregates spans in trace mode; absent otherwise.
struct Trace_sink {
    Span_table table;
    std::vector<Trace_span> all;
    double train_update_s = 0.0;
    /// Spans the ring evicted, over every recorded operation. clear()
    /// resets the ring's own count, so it is read after each one.
    std::uint64_t dropped = 0;

    /// Opens a fresh trace with a benchmark root span around `call`.
    template <typename F>
    void record(const char* root, F&& call)
    {
        Trace_buffer::global().clear();
        {
            const Trace_scope scope(new_trace_id(), 0);
            const Span_scope span(root);
            call();
        }
        std::vector<Trace_span> spans = Trace_buffer::global().spans();
        dropped += Trace_buffer::global().dropped();
        accumulate(spans, table);
        if (std::string(root) == "bench/train")
            train_update_s += uncovered_seconds(spans, root, {"rollout/", "candidates/"});
        all.insert(all.end(), spans.begin(), spans.end());
    }
};

class Workload {
public:
    virtual ~Workload() = default;

    /// One pass over every operation of the workload. `sink` is set in
    /// trace mode.
    virtual Round run_round(Trace_sink* sink) = 0;

    const std::vector<Model>& models() const { return models_; }

protected:
    explicit Workload(std::vector<Model> models) : models_(std::move(models)) {}

    std::vector<Model> models_;
};

/// Runs every check on the operations' outputs against reference outputs
/// drawn from the seed. Results are memoised by the returned graph's exact
/// bytes: rounds repeat the same operations, and an identical graph under
/// identical bindings gives identical outputs, so the reference executor
/// runs once per distinct result.
class Checker {
public:
    Checker(const std::vector<Model>& models, std::uint64_t seed) : models_(&models)
    {
        for (const Model& m : models) references_.push_back(make_reference(m.graph, seed));
    }

    void check(Op_result& op)
    {
        Byte_writer writer;
        serialise_graph_binary(writer, op.output);
        std::ostringstream key;
        key.precision(17);
        key << op.model << '|' << op.check.device.name << '|' << static_cast<int>(op.check.signal)
            << '|' << op.check.require_no_regression << '|' << op.reported.initial_ms << '|'
            << op.reported.final_ms << '|' << writer.bytes();
        const auto [it, fresh] = memo_.try_emplace(key.str());
        if (fresh)
            it->second = check_output((*models_)[op.model].graph, references_[op.model], op.output,
                                      op.reported, op.check);
        op.report = it->second;
    }

private:
    const std::vector<Model>* models_;
    std::vector<Reference> references_;
    std::unordered_map<std::string, Check_report> memo_;
};

double simulated_speedup(const Graph& input, const Graph& output, const Device_profile& device)
{
    return latency_ms(input, Latency_signal::simulator, device) /
           latency_ms(output, Latency_signal::simulator, device);
}

// ---------------------------------------------------------------------------
// X-RLflow workloads: train a fresh agent, then optimise with it
// ---------------------------------------------------------------------------

/// The figure benches' smoke configuration (bench/bench_common.cpp). The
/// seed is fixed, not drawn from --seed: the trained policy's decisions
/// (episode lengths, rewrites that grow the graph) change the work by
/// 20-40% from seed to seed, which no bound could absorb.
Xrlflow_config smoke_xrlflow_config()
{
    Xrlflow_config config;
    config.seed = 7;
    config.agent.gnn.hidden_dim = 16;
    config.agent.gnn.global_dim = 16;
    config.agent.head_hidden = {64, 32};
    config.agent.max_candidates = 31;
    config.env.max_steps = 40;
    config.agent.gnn.num_gat_layers = 5;
    config.env.feedback_frequency = 5;
    config.inference_rollouts = 6;
    config.trainer.update_every_episodes = 4;
    config.trainer.ppo.minibatch_size = 8;
    config.trainer.ppo.epochs = 2;
    config.trainer.seed = config.seed;
    return config;
}

class Xrlflow_workload final : public Workload {
public:
    /// Each model is trained for one PPO update window of
    /// `window_episodes[i]` episodes, then optimised.
    Xrlflow_workload(std::vector<Model> models, std::vector<int> window_episodes)
        : Workload(std::move(models)), rules_(standard_rule_corpus()),
          window_episodes_(std::move(window_episodes))
    {
    }

    Round run_round(Trace_sink* sink) override
    {
        Round round;
        for (std::size_t i = 0; i < models_.size(); ++i) {
            const Model& m = models_[i];
            Xrlflow_config config = smoke_xrlflow_config();
            config.trainer.update_every_episodes = window_episodes_[i];
            Xrlflow system(rules_, config);

            Op_result op;
            op.model = i;
            op.label = m.name + "/xrlflow";
            op.backend = "xrlflow";
            const auto train = [&] {
                const Clock::time_point start = Clock::now();
                system.train(m.graph, window_episodes_[i]);
                op.train_s = seconds_since(start);
            };
            Optimisation_outcome outcome;
            // The heartbeat runs once per environment step of every
            // inference rollout: the step count of the whole call.
            int steps = 0;
            Inference_options inference;
            inference.heartbeat = [&steps](int, double) { return ++steps > 0; };
            const auto optimise = [&](double& seconds) {
                const Clock::time_point start = Clock::now();
                steps = 0;
                outcome = system.optimise(m.graph, inference);
                seconds = seconds_since(start);
            };
            if (sink == nullptr) {
                train();
                optimise(op.optimise_s);
            } else {
                // The untraced optimise gives the overhead's baseline; the
                // policy is fixed by then, so both do the same work.
                sink->record("bench/train", train);
                set_trace_enabled(false);
                optimise(op.optimise_s);
                set_trace_enabled(true);
                sink->record("bench/optimise", [&] { optimise(op.traced_optimise_s); });
            }
            op.steps = steps;
            op.speedup = simulated_speedup(m.graph, outcome.best_graph, config.device);
            op.output = std::move(outcome.best_graph);
            op.reported = {outcome.initial_ms, outcome.final_ms};
            op.check.signal = Latency_signal::simulator;
            op.check.device = config.device;
            op.check.require_no_regression = true;
            round.push_back(std::move(op));
        }
        return round;
    }

private:
    Rule_set rules_;
    std::vector<int> window_episodes_;
};

// ---------------------------------------------------------------------------
// search-zoo: the evaluation models through taso / pet / tensat, served
// ---------------------------------------------------------------------------

/// Two shards, one per simulated device, each with the backends' default
/// search budgets (TASO and PET: 100 queue pops; Tensat: 10 iterations,
/// 10 000 e-nodes).
Daemon_config zoo_daemon()
{
    Service_config service;
    service.cache_capacity = 0; // rounds repeat requests: every one must search
    Daemon_config config;
    for (const char* device : {"gtx1080-sim", "a100-sim"}) {
        Shard_config shard;
        shard.server.service = service;
        shard.server.workers = 1;
        shard.device_affinity = {device};
        config.router.shards.push_back(shard);
    }
    return config;
}

std::vector<Model> zoo_models()
{
    std::vector<Model> models;
    for (const Model_spec& spec : evaluation_models(Scale::smoke))
        models.push_back({spec.name, spec.build()});
    return models;
}

class Zoo_workload final : public Workload {
public:
    explicit Zoo_workload(std::uint64_t seed)
        : Workload(zoo_models()), seed_(seed), daemon_(zoo_daemon())
    {
        Client_config config;
        config.host = daemon_.host();
        config.port = daemon_.port();
        config.poll_wait_seconds = 0.01;
        config.client_name = "perfbench";
        client_ = std::make_unique<Client>(config);
    }

    Round run_round(Trace_sink* sink) override
    {
        static const char* const backends[] = {"taso", "pet", "tensat"};
        Round round;
        for (std::size_t i = 0; i < models_.size(); ++i) {
            const Model& m = models_[i];
            // Alternate the fleet's two devices so both shards serve.
            const Device_profile device = i % 2 == 0 ? gtx1080_profile() : a100_profile();
            for (const char* backend : backends) {
                Optimize_request request;
                request.seed = seed_;
                request.device = Target_device(device.name);
                Op_result op;
                op.model = i;
                op.label = m.name + "/" + backend;
                op.backend = backend;
                Optimize_result result;
                const auto call = [&](double& seconds) {
                    const Clock::time_point start = Clock::now();
                    result = client_->optimize(backend, m.graph, request);
                    seconds = seconds_since(start);
                };
                if (sink == nullptr) {
                    call(op.optimise_s);
                } else {
                    set_trace_enabled(false);
                    call(op.optimise_s);
                    set_trace_enabled(true);
                    sink->record("bench/search", [&] { call(op.traced_optimise_s); });
                }
                op.backend_wall_s = result.wall_seconds;
                op.steps = result.steps;
                op.speedup = simulated_speedup(m.graph, result.best_graph, device);
                op.output = std::move(result.best_graph);
                op.reported = {result.initial_ms, result.final_ms};
                op.check.signal = Latency_signal::cost_model;
                op.check.device = device;
                // TASO's best-so-far starts at the input; PET and Tensat
                // may legitimately return a costlier graph.
                op.check.require_no_regression = op.backend == "taso";
                round.push_back(std::move(op));
            }
        }
        return round;
    }

private:
    std::uint64_t seed_;
    Daemon daemon_;
    std::unique_ptr<Client> client_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double median(std::vector<double> values)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Per-round sums of `field`, in round order.
template <typename F>
std::vector<double> round_sums(const std::vector<Round>& rounds, F field)
{
    std::vector<double> sums;
    for (const Round& round : rounds) {
        double sum = 0.0;
        for (const Op_result& op : round) sum += field(op);
        sums.push_back(sum);
    }
    return sums;
}

/// Median over the rounds of the `j`th operation's `field`.
template <typename F>
double op_median(const std::vector<Round>& rounds, std::size_t j, F field)
{
    std::vector<double> samples;
    for (const Round& round : rounds) samples.push_back(field(round[j]));
    return median(samples);
}

/// Σ over a round's operations of each one's median over the rounds. The
/// machine's speed wanders by ±20% within seconds; this way a slow stretch
/// moves one sample of one operation rather than a whole round's sum.
template <typename F>
double sum_of_medians(const std::vector<Round>& rounds, F field)
{
    double sum = 0.0;
    for (std::size_t j = 0; j < rounds.front().size(); ++j) sum += op_median(rounds, j, field);
    return sum;
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        os << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
           << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
    os << "}}";
    std::cout << os.str() << std::endl;
}

/// One line per operation: median times over the rounds, the first
/// round's outcome.
void print_operations(const std::vector<Round>& rounds)
{
    std::printf("%-24s %10s %12s %9s %6s %6s  %s\n", "operation", "train s", "optimise s",
                "speedup", "steps", "ops", "checks");
    for (std::size_t j = 0; j < rounds.front().size(); ++j) {
        const Op_result& op = rounds.front()[j];
        std::printf("%-24s %10.3f %12.3f %9.4f %6d %6zu  %s\n", op.label.c_str(),
                    op_median(rounds, j, [](const Op_result& o) { return o.train_s; }),
                    op_median(rounds, j, [](const Op_result& o) { return o.optimise_s; }),
                    op.speedup, op.steps, op.output.size(), op.report.passed() ? "ok" : "FAILED");
        for (const std::string& f : op.report.failures) std::printf("    %s\n", f.c_str());
    }
    std::fflush(stdout);
}

std::unique_ptr<Workload> make_workload(const Args& args)
{
    if (args.workload == "xrlflow")
        return std::make_unique<Xrlflow_workload>(
            std::vector<Model>{{"BERT", make_bert(Scale::smoke)},
                               {"ViT", make_vit(Scale::smoke)},
                               {"InceptionV3", make_inception_v3(Scale::smoke)}},
            std::vector<int>{4, 4, 2});
    if (args.workload == "search-zoo") return std::make_unique<Zoo_workload>(args.seed);
    throw std::invalid_argument("unknown workload '" + args.workload + "' (xrlflow, search-zoo)");
}

int run(const Args& args)
{
    const std::unique_ptr<Workload> workload = make_workload(args);
    // Warm the process-wide pool the candidate engines and shards share.
    Thread_pool::shared().run(Thread_pool::shared().workers() + 1, [](std::size_t) {});
    const double setup_s = seconds_since(process_start);

    std::optional<Trace_sink> sink;
    set_trace_enabled(args.trace);
    if (args.trace) sink.emplace();

    // Whole rounds until the operations themselves have taken --seconds.
    // Peak RSS is read after the first round and before any check runs:
    // search-zoo's RSS keeps climbing over identical rounds, so a later
    // reading would depend on how many rounds fit in --seconds.
    std::vector<Round> rounds;
    double measured = 0.0;
    double first_round_rss_mb = 0.0;
    do {
        rounds.push_back(workload->run_round(sink ? &*sink : nullptr));
        if (rounds.size() == 1) first_round_rss_mb = peak_rss_mb();
        for (const Op_result& op : rounds.back())
            measured += op.train_s + op.optimise_s + op.traced_optimise_s;
    } while (measured < args.seconds);
    set_trace_enabled(false);

    const Clock::time_point checks_start = Clock::now();
    Checker checker(workload->models(), mix(args.seed));
    for (Round& round : rounds)
        for (Op_result& op : round) checker.check(op);
    const double checks_s = seconds_since(checks_start);

    // The one failure the benchmark expects: Tensat's extraction rebuilds
    // sources under fresh ids (extract_best in
    // src/optimizers/tensat/egraph.cpp), so its graphs cannot be bound to
    // the model's weights. Any other failure makes the run incorrect.
    const auto known_fault = [](const Op_result& op) {
        return op.backend == "tensat" && op.report.failed("sources");
    };
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t unexpected = 0;
    double log_speedup = 0.0;
    for (const Round& round : rounds)
        for (const Op_result& op : round) {
            ++attempted;
            log_speedup += std::log(op.speedup);
            if (op.report.passed()) continue;
            ++failed;
            if (!known_fault(op)) ++unexpected;
        }
    print_operations(rounds);
    if (failed > unexpected)
        std::printf("%zu failed: Tensat rebuilds sources under fresh ids (extract_best in "
                    "src/optimizers/tensat/egraph.cpp), so its graphs cannot be bound to the "
                    "model's weights\n",
                    failed - unexpected);
    if (unexpected > 0) std::printf("%zu operations failed their checks unexpectedly\n", unexpected);

    const auto train = [](const Op_result& op) { return op.train_s; };
    const auto optimise = [](const Op_result& op) { return op.optimise_s; };
    const auto total = [](const Op_result& op) { return op.train_s + op.optimise_s; };
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", setup_s, "s"},
            {"total_s", sum_of_medians(rounds, total), "s"},
            {"optimise_s", sum_of_medians(rounds, optimise), "s"},
            {"speedup_geomean", std::exp(log_speedup / static_cast<double>(attempted)), "ratio"},
            {"peak_rss_mb", first_round_rss_mb, "MiB"},
        };
    } else {
        const double n = static_cast<double>(rounds.size());
        const Span_table& t = sink->table;
        const auto per_round = [&](auto field) {
            double sum = 0.0;
            for (const Round& round : rounds)
                for (const Op_result& op : round) sum += field(op);
            return sum / n;
        };
        const auto backend_s = [&](const std::string& backend) {
            return per_round([&](const Op_result& op) {
                return op.backend == backend ? op.traced_optimise_s : 0.0;
            });
        };
        const double traced = per_round([](const Op_result& op) { return op.traced_optimise_s; });
        metrics = {
            {"train.wall_s", per_round(train), "s"},
            {"train.update_s", sink->train_update_s / n, "s"},
            {"rollout.gnn_inference_s", self_seconds(t, "rollout/gnn_inference") / n, "s"},
            {"rollout.gnn_inference_n",
             static_cast<double>(span_count(t, "rollout/gnn_inference")) / n, "count"},
            {"rollout.gnn_encode_s", self_seconds(t, "rollout/gnn_encode") / n, "s"},
            {"rollout.env_step_s", self_seconds(t, "rollout/env_step") / n, "s"},
            {"candidates.index_build_s", self_seconds(t, "candidates/index_build") / n, "s"},
            {"candidates.match_s", self_seconds(t, "candidates/match") / n, "s"},
            {"candidates.dedup_s", self_seconds(t, "candidates/dedup") / n, "s"},
            {"candidates.materialise_s", self_seconds(t, "candidates/materialise") / n, "s"},
            {"infer.steps", per_round([](const Op_result& op) {
                 return op.backend == "xrlflow" ? double(op.steps) : 0.0;
             }), "count"},
            {"output.ops", per_round([](const Op_result& op) { return double(op.output.size()); }),
             "count"},
            {"search.taso_s", backend_s("taso"), "s"},
            {"search.pet_s", backend_s("pet"), "s"},
            {"search.tensat_s", backend_s("tensat"), "s"},
            {"search.backend_s", per_round([](const Op_result& op) { return op.backend_wall_s; }),
             "s"},
            {"serve.overhead_s", per_round([](const Op_result& op) {
                 return op.backend == "xrlflow" ? 0.0 : op.traced_optimise_s - op.backend_wall_s;
             }), "s"},
            {"search.steps", per_round([](const Op_result& op) {
                 return op.backend == "xrlflow" ? 0.0 : double(op.steps);
             }), "count"},
            {"trace.overhead_s", traced - per_round(optimise), "s"},
            {"trace.dropped", static_cast<double>(sink->dropped) / n, "count"},
        };
        print_table(std::cout, t, static_cast<int>(rounds.size()));
        if (!args.trace_out.empty()) {
            std::ofstream out(args.trace_out);
            write_chrome_trace(out, sink->all);
            if (!out) throw std::runtime_error("cannot write " + args.trace_out);
            std::printf("chrome trace: %s (%zu spans)\n", args.trace_out.c_str(), sink->all.size());
        }
    }
    std::printf("checks: %.1f s, in no metric\n", checks_s);
    std::printf("%zu round%s, %.1f s measured; per round (train + optimise / optimise s):",
                rounds.size(), rounds.size() == 1 ? "" : "s", measured);
    const std::vector<double> totals = round_sums(rounds, total);
    const std::vector<double> optimises = round_sums(rounds, optimise);
    for (std::size_t r = 0; r < rounds.size(); ++r)
        std::printf(" %.3f/%.3f", totals[r], optimises[r]);
    std::printf("\n");
    print_result(unexpected == 0, attempted, failed, metrics);
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
