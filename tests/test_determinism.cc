/**
 * @file
 * Thread-count determinism: the engine's outputs, its instrumentation
 * (LayerExecStats, traces), and the optimizer's resulting NetworkPlan
 * must be bitwise identical with SNAPEA_THREADS=1 and =4.  This is
 * the contract documented in util/thread_pool.hh — parallelism may
 * only change scheduling, never arithmetic or merge order.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "nn/models/model_zoo.hh"
#include "snapea/engine.hh"
#include "snapea/optimizer.hh"
#include "snapea/reorder.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "workload/dataset.hh"
#include "workload/evaluator.hh"
#include "workload/weight_init.hh"

using namespace snapea;

namespace {

/** Restore automatic thread-count resolution on scope exit. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { util::setThreadCount(0); }
};

/** Small calibrated AlexNet + dataset shared by the tests. */
struct Context
{
    std::unique_ptr<Network> net;
    Dataset data;

    Context()
    {
        ModelScale scale;
        scale.input_size = 40;
        net = buildModel(ModelId::AlexNet, scale);
        Rng rng(7);
        DatasetSpec cspec;
        cspec.num_classes = 4;
        cspec.images_per_class = 1;
        Rng crng = rng.fork(1);
        Dataset calib = makeDataset(crng, net->inputShape(), cspec);
        WeightInitSpec wspec;
        wspec.neg_fraction = 0.55;
        Rng wrng = rng.fork(2);
        initializeWeights(*net, wrng, calib.images, wspec);

        DatasetSpec dspec;
        dspec.num_classes = 8;
        dspec.images_per_class = 1;
        Rng drng = rng.fork(3);
        data = makeDataset(drng, net->inputShape(), dspec);
        selfLabel(*net, data);
    }
};

Context &
ctx()
{
    static Context c;
    return c;
}

/** Synthetic predictive plan: every kernel speculates. */
NetworkPlan
predictivePlan(const Network &net)
{
    std::map<int, std::vector<SpeculationParams>> params;
    for (int l : net.convLayers()) {
        const auto &conv = static_cast<const Conv2D &>(net.layer(l));
        SpeculationParams sp;
        sp.n_groups = 8;
        sp.th = 0.05f;
        params[l].assign(conv.spec().out_channels, sp);
    }
    return makeNetworkPlan(net, params);
}

struct EngineRun
{
    std::vector<Tensor> outputs;
    std::map<int, LayerExecStats> stats;
    std::vector<ImageTrace> traces;
};

EngineRun
runEngine(ExecMode mode)
{
    EngineRun run;
    SnapeaEngine engine(*ctx().net, predictivePlan(*ctx().net));
    engine.setMode(mode);
    engine.setCollectTraces(mode == ExecMode::Instrumented);
    for (const Tensor &img : ctx().data.images) {
        if (mode == ExecMode::Instrumented)
            engine.beginImage();
        run.outputs.push_back(ctx().net->forward(img, &engine));
    }
    run.stats = engine.stats();
    run.traces = engine.traces();
    return run;
}

void
expectBitwiseEqual(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
              0);
}

void
expectStatsEqual(const LayerExecStats &a, const LayerExecStats &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.macs_full, b.macs_full);
    EXPECT_EQ(a.macs_performed, b.macs_performed);
    EXPECT_EQ(a.spec_terminated, b.spec_terminated);
    EXPECT_EQ(a.sign_terminated, b.sign_terminated);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.actual_negative, b.actual_negative);
    EXPECT_EQ(a.actual_positive, b.actual_positive);
    EXPECT_EQ(a.true_negative, b.true_negative);
    EXPECT_EQ(a.false_negative, b.false_negative);
    EXPECT_EQ(a.pos_seen, b.pos_seen);
    ASSERT_EQ(a.fn_values.size(), b.fn_values.size());
    EXPECT_EQ(std::memcmp(a.fn_values.data(), b.fn_values.data(),
                          a.fn_values.size() * sizeof(float)),
              0);
    ASSERT_EQ(a.pos_sample.size(), b.pos_sample.size());
    EXPECT_EQ(std::memcmp(a.pos_sample.data(), b.pos_sample.data(),
                          a.pos_sample.size() * sizeof(float)),
              0);
}

} // namespace

TEST(Determinism, InstrumentedEngineIdenticalAt1And4Threads)
{
    ThreadCountGuard guard;
    util::setThreadCount(1);
    const EngineRun serial = runEngine(ExecMode::Instrumented);
    util::setThreadCount(4);
    const EngineRun parallel = runEngine(ExecMode::Instrumented);

    ASSERT_EQ(serial.outputs.size(), parallel.outputs.size());
    for (size_t i = 0; i < serial.outputs.size(); ++i)
        expectBitwiseEqual(serial.outputs[i], parallel.outputs[i]);

    ASSERT_EQ(serial.stats.size(), parallel.stats.size());
    for (const auto &[l, st] : serial.stats) {
        ASSERT_TRUE(parallel.stats.count(l));
        expectStatsEqual(st, parallel.stats.at(l));
    }

    ASSERT_EQ(serial.traces.size(), parallel.traces.size());
    for (size_t i = 0; i < serial.traces.size(); ++i) {
        const auto &ta = serial.traces[i].conv_layers;
        const auto &tb = parallel.traces[i].conv_layers;
        ASSERT_EQ(ta.size(), tb.size());
        for (size_t j = 0; j < ta.size(); ++j) {
            EXPECT_EQ(ta[j].ops, tb[j].ops);
            EXPECT_EQ(ta[j].macs_performed, tb[j].macs_performed);
            EXPECT_EQ(ta[j].macs_full, tb[j].macs_full);
        }
    }
}

TEST(Determinism, FastEngineIdenticalAt1And4Threads)
{
    ThreadCountGuard guard;
    util::setThreadCount(1);
    const EngineRun serial = runEngine(ExecMode::Fast);
    util::setThreadCount(4);
    const EngineRun parallel = runEngine(ExecMode::Fast);

    ASSERT_EQ(serial.outputs.size(), parallel.outputs.size());
    for (size_t i = 0; i < serial.outputs.size(); ++i)
        expectBitwiseEqual(serial.outputs[i], parallel.outputs[i]);
}

TEST(Determinism, ServingEngineIdenticalAt1And4Threads)
{
    ThreadCountGuard guard;
    util::setThreadCount(1);
    const EngineRun serial = runEngine(ExecMode::Serving);
    util::setThreadCount(4);
    const EngineRun parallel = runEngine(ExecMode::Serving);

    ASSERT_EQ(serial.outputs.size(), parallel.outputs.size());
    for (size_t i = 0; i < serial.outputs.size(); ++i)
        expectBitwiseEqual(serial.outputs[i], parallel.outputs[i]);
}

TEST(Determinism, AccuracyIdenticalAt1And4Threads)
{
    ThreadCountGuard guard;
    const NetworkPlan plan = predictivePlan(*ctx().net);

    util::setThreadCount(1);
    SnapeaEngine e1(*ctx().net, plan);
    e1.setMode(ExecMode::Fast);
    const double a1 = accuracy(*ctx().net, ctx().data, &e1);

    util::setThreadCount(4);
    SnapeaEngine e4(*ctx().net, plan);
    e4.setMode(ExecMode::Fast);
    const double a4 = accuracy(*ctx().net, ctx().data, &e4);

    EXPECT_DOUBLE_EQ(a1, a4);
}

TEST(Determinism, OptimizerPlanIdenticalAt1And4Threads)
{
    ThreadCountGuard guard;
    OptimizerConfig cfg;
    cfg.local_images = 6;
    cfg.profile_images = 3;
    cfg.group_counts = {8, 16};
    cfg.fn_quantiles = {0.10, 0.30};

    auto runOpt = [&](int threads) {
        util::setThreadCount(threads);
        SpeculationOptimizer opt(*ctx().net, ctx().data, cfg);
        return std::make_pair(opt.run(0.02), opt.paramL());
    };
    const auto [res1, paramL1] = runOpt(1);
    const auto [res4, paramL4] = runOpt(4);

    // ParamL must match candidate for candidate, bitwise.
    ASSERT_EQ(paramL1.size(), paramL4.size());
    for (const auto &[l, cands1] : paramL1) {
        ASSERT_TRUE(paramL4.count(l));
        const auto &cands4 = paramL4.at(l);
        ASSERT_EQ(cands1.size(), cands4.size()) << "layer " << l;
        for (size_t c = 0; c < cands1.size(); ++c) {
            EXPECT_EQ(cands1[c].n_groups, cands4[c].n_groups);
            EXPECT_EQ(cands1[c].op, cands4[c].op);
            EXPECT_EQ(cands1[c].err, cands4[c].err);
            ASSERT_EQ(cands1[c].params.size(), cands4[c].params.size());
            for (size_t o = 0; o < cands1[c].params.size(); ++o) {
                EXPECT_EQ(cands1[c].params[o].n_groups,
                          cands4[c].params[o].n_groups);
                EXPECT_EQ(cands1[c].params[o].th,
                          cands4[c].params[o].th);
            }
        }
    }

    // And so must the final NetworkPlan parameters and stats.
    EXPECT_EQ(res1.stats.final_err, res4.stats.final_err);
    EXPECT_EQ(res1.stats.global_iterations, res4.stats.global_iterations);
    ASSERT_EQ(res1.params.size(), res4.params.size());
    for (const auto &[l, ps1] : res1.params) {
        ASSERT_TRUE(res4.params.count(l));
        const auto &ps4 = res4.params.at(l);
        ASSERT_EQ(ps1.size(), ps4.size());
        for (size_t o = 0; o < ps1.size(); ++o) {
            EXPECT_EQ(ps1[o].n_groups, ps4[o].n_groups);
            EXPECT_EQ(ps1[o].th, ps4[o].th);
        }
    }
}
