/**
 * @file
 * Scalar-vs-SIMD equality for the row kernels of snapea/kernels/.
 * The module's determinism contract says every compiled variant is
 * bitwise identical to the scalar reference in default mode — same
 * output bits, same early-termination decisions, same op counts —
 * including the ragged row tails the vector registers cannot cover.
 * These tests check that contract at three levels: raw row kernels
 * over the padding-paths geometries, the dense-convolution fallback
 * (row path and channel-major path), and a full engine run in each
 * execution mode (Fast, Serving, Instrumented).
 */

#include <cstring>

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "nn/conv.hh"
#include "nn/models/model_zoo.hh"
#include "snapea/engine.hh"
#include "snapea/kernels/kernels.hh"
#include "snapea/reorder.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "workload/dataset.hh"
#include "workload/weight_init.hh"

using namespace snapea;

namespace {

/** Restore the CPUID-dispatched kernel set on scope exit. */
struct IsaGuard
{
    kernels::Isa saved = kernels::kernelOps().isa;
    ~IsaGuard() { kernels::setActiveIsa(saved); }
};

/** The non-scalar variants available on this machine. */
std::vector<kernels::Isa>
simdIsas()
{
    std::vector<kernels::Isa> isas = kernels::availableIsas();
    isas.erase(std::remove(isas.begin(), isas.end(),
                           kernels::Isa::Scalar),
               isas.end());
    return isas;
}

struct KernelCase
{
    int in_ch, out_ch, k, stride, pad;
    int in_hw;
    uint64_t seed;
};

std::string
caseName(const testing::TestParamInfo<KernelCase> &info)
{
    const KernelCase &c = info.param;
    return "ic" + std::to_string(c.in_ch) + "oc"
        + std::to_string(c.out_ch) + "k" + std::to_string(c.k) + "s"
        + std::to_string(c.stride) + "p" + std::to_string(c.pad)
        + "hw" + std::to_string(c.in_hw);
}

void
fillConv(Conv2D &conv, Rng &rng)
{
    for (size_t i = 0; i < conv.weights().size(); ++i)
        conv.weights()[i] = static_cast<float>(rng.gaussian());
    for (auto &b : conv.bias())
        b = static_cast<float>(rng.gaussian(-0.2, 0.5));
}

/** Post-ReLU input, as the early-termination math assumes. */
Tensor
reluInput(Rng &rng, int ch, int hw)
{
    Tensor t({ch, hw, hw});
    for (size_t i = 0; i < t.size(); ++i)
        t[i] = std::max(0.0f,
                        static_cast<float>(rng.gaussian(0.1, 1.0)));
    return t;
}

/** Per-window walk result buffers. */
struct WalkBufs
{
    std::vector<float> out, full;
    std::vector<int32_t> ops;
    std::vector<uint8_t> flags;

    explicit WalkBufs(int n)
        : out(static_cast<size_t>(n), 7.0f),
          full(static_cast<size_t>(n), 7.0f),
          ops(static_cast<size_t>(n), -7),
          flags(static_cast<size_t>(n), 0xee)
    {
    }

    kernels::WalkSoa soa()
    {
        return {out.data(), full.data(), ops.data(), flags.data()};
    }
};

} // namespace

class KernelRows : public testing::TestWithParam<KernelCase>
{
};

/**
 * conv_row, prefix_row, and walk_row of every compiled SIMD variant
 * produce the scalar reference's bits for every interior row span —
 * all span lengths from 1 to the full row, so every ragged-tail
 * shape each register width can see is covered — for exact and
 * predictive plans and both walk modes.
 */
TEST_P(KernelRows, SimdVariantsMatchScalarBitwise)
{
    const KernelCase &c = GetParam();
    Rng rng(c.seed);
    Conv2D conv("c", ConvSpec{c.in_ch, c.out_ch, c.k, c.stride, c.pad,
                              /*groups=*/1});
    fillConv(conv, rng);
    const Tensor input = reluInput(rng, c.in_ch, c.in_hw);

    const int oh = conv.outDim(c.in_hw), ow = conv.outDim(c.in_hw);
    int xlo, xhi;
    kernels::interiorXSpan(c.in_hw, c.k, c.stride, c.pad, ow, &xlo,
                           &xhi);
    if (xhi <= xlo)
        GTEST_SKIP() << "no interior windows in this geometry";

    SpeculationParams sp;
    sp.n_groups = 4;
    sp.th = 0.1f;
    const kernels::KernelOps &sc =
        *kernels::kernelOpsFor(kernels::Isa::Scalar);

    for (int o = 0; o < c.out_ch; ++o) {
        for (const bool predictive : {false, true}) {
            const KernelPlan plan = predictive
                ? makePredictivePlan(conv, o, sp)
                : makeExactPlan(conv, o);
            PreparedKernel pk = prepareKernel(conv, o, plan);
            computeInteriorOffsets(pk, c.in_hw, c.in_hw);
            const kernels::PackedKernel packed = kernels::packKernel(
                pk.w, pk.interior_off, pk.prefix_len, pk.neg_start,
                pk.th, pk.bias);
            const int ks = static_cast<int>(packed.w.size());

            for (int y = 0; y < oh; ++y) {
                const int iy0 = y * c.stride - c.pad;
                if (iy0 < 0 || iy0 + c.k > c.in_hw)
                    continue;
                const float *win0 = input.data()
                    + static_cast<size_t>(iy0) * c.in_hw
                    + (xlo * c.stride - c.pad);
                for (int n = 1; n <= xhi - xlo; ++n) {
                    WalkBufs ref(n);
                    sc.conv_row(win0, c.stride, n, packed.w.data(),
                                packed.off.data(), ks, packed.panel,
                                packed.bias, ref.out.data());
                    for (const kernels::Isa isa : simdIsas()) {
                        const kernels::KernelOps &ko =
                            *kernels::kernelOpsFor(isa);
                        WalkBufs got(n);
                        ko.conv_row(win0, c.stride, n,
                                    packed.w.data(),
                                    packed.off.data(), ks,
                                    packed.panel, packed.bias,
                                    got.out.data());
                        EXPECT_EQ(std::memcmp(ref.out.data(),
                                              got.out.data(),
                                              n * sizeof(float)),
                                  0)
                            << "conv_row " << kernels::isaName(isa)
                            << " o=" << o << " y=" << y
                            << " n=" << n;
                    }

                    if (predictive) {
                        WalkBufs pref(n);
                        sc.prefix_row(packed, win0, c.stride, n,
                                      pref.out.data());
                        for (const kernels::Isa isa : simdIsas()) {
                            const kernels::KernelOps &ko =
                                *kernels::kernelOpsFor(isa);
                            WalkBufs pgot(n);
                            ko.prefix_row(packed, win0, c.stride, n,
                                          pgot.out.data());
                            EXPECT_EQ(
                                std::memcmp(pref.out.data(),
                                            pgot.out.data(),
                                            n * sizeof(float)),
                                0)
                                << "prefix_row "
                                << kernels::isaName(isa) << " o=" << o
                                << " y=" << y << " n=" << n;
                        }
                    }

                    for (const bool need_full : {false, true}) {
                        WalkBufs wref(n);
                        sc.walk_row(packed, win0, c.stride, n,
                                    need_full, wref.soa());
                        for (const kernels::Isa isa : simdIsas()) {
                            const kernels::KernelOps &ko =
                                *kernels::kernelOpsFor(isa);
                            WalkBufs wgot(n);
                            ko.walk_row(packed, win0, c.stride, n,
                                        need_full, wgot.soa());
                            const std::string where =
                                std::string("walk_row ")
                                + kernels::isaName(isa)
                                + " o=" + std::to_string(o)
                                + " y=" + std::to_string(y)
                                + " n=" + std::to_string(n)
                                + " full=" + std::to_string(need_full);
                            EXPECT_EQ(std::memcmp(wref.out.data(),
                                                  wgot.out.data(),
                                                  n * sizeof(float)),
                                      0)
                                << where;
                            EXPECT_EQ(std::memcmp(wref.full.data(),
                                                  wgot.full.data(),
                                                  n * sizeof(float)),
                                      0)
                                << where;
                            EXPECT_EQ(
                                std::memcmp(wref.ops.data(),
                                            wgot.ops.data(),
                                            n * sizeof(int32_t)),
                                0)
                                << where;
                            EXPECT_EQ(std::memcmp(wref.flags.data(),
                                                  wgot.flags.data(),
                                                  n),
                                      0)
                                << where;
                        }
                    }
                }
            }
        }
    }
}

/**
 * The row kernels' early-termination decisions (which check fired,
 * after how many ops) equal the scalar walkWindow's on interior
 * windows, per variant.
 */
TEST_P(KernelRows, TerminationDecisionsMatchWalkWindow)
{
    const KernelCase &c = GetParam();
    Rng rng(c.seed + 1);
    Conv2D conv("c", ConvSpec{c.in_ch, c.out_ch, c.k, c.stride, c.pad,
                              /*groups=*/1});
    fillConv(conv, rng);
    const Tensor input = reluInput(rng, c.in_ch, c.in_hw);

    const int oh = conv.outDim(c.in_hw), ow = conv.outDim(c.in_hw);
    int xlo, xhi;
    kernels::interiorXSpan(c.in_hw, c.k, c.stride, c.pad, ow, &xlo,
                           &xhi);
    if (xhi <= xlo)
        GTEST_SKIP() << "no interior windows in this geometry";

    SpeculationParams sp;
    sp.n_groups = 4;
    sp.th = 0.1f;
    for (int o = 0; o < c.out_ch; ++o) {
        PreparedKernel pk =
            prepareKernel(conv, o, makePredictivePlan(conv, o, sp));
        computeInteriorOffsets(pk, c.in_hw, c.in_hw);
        const kernels::PackedKernel packed = kernels::packKernel(
            pk.w, pk.interior_off, pk.prefix_len, pk.neg_start, pk.th,
            pk.bias);
        for (int y = 0; y < oh; ++y) {
            const int iy0 = y * c.stride - c.pad;
            if (iy0 < 0 || iy0 + c.k > c.in_hw)
                continue;
            const int n = xhi - xlo;
            const float *win0 = input.data()
                + static_cast<size_t>(iy0) * c.in_hw
                + (xlo * c.stride - c.pad);
            for (const kernels::Isa isa : kernels::availableIsas()) {
                const kernels::KernelOps &ko =
                    *kernels::kernelOpsFor(isa);
                WalkBufs got(n);
                ko.walk_row(packed, win0, c.stride, n, false,
                            got.soa());
                for (int x = 0; x < n; ++x) {
                    const WindowWalk ww = walkWindow(
                        pk, input, iy0,
                        (xlo + x) * c.stride - c.pad, false);
                    const std::string where =
                        std::string(kernels::isaName(isa))
                        + " o=" + std::to_string(o)
                        + " y=" + std::to_string(y)
                        + " x=" + std::to_string(x);
                    EXPECT_EQ(got.ops[x], ww.ops) << where;
                    EXPECT_EQ(got.out[x], ww.out) << where;
                    EXPECT_EQ((got.flags[x] & kernels::kWalkSpecFired)
                                  != 0,
                              ww.spec_fired)
                        << where;
                    EXPECT_EQ((got.flags[x] & kernels::kWalkSignFired)
                                  != 0,
                              ww.sign_fired)
                        << where;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KernelRows,
    testing::Values(KernelCase{3, 4, 3, 1, 1, 8, 11},
                    KernelCase{2, 3, 5, 1, 2, 9, 22},
                    KernelCase{4, 2, 3, 2, 1, 10, 33},
                    KernelCase{1, 2, 7, 2, 3, 12, 44},
                    // Wide row: spans longer than any register so
                    // every variant sees full blocks plus a tail.
                    KernelCase{3, 2, 3, 1, 1, 32, 55}),
    caseName);

/**
 * The dense matvec kernel is bitwise identical across variants for
 * widths covering every remainder mod 8.
 */
TEST(KernelDense, VariantsMatchScalarBitwise)
{
    Rng rng(5);
    const kernels::KernelOps &sc =
        *kernels::kernelOpsFor(kernels::Isa::Scalar);
    for (const int n_in : {1, 2, 3, 5, 7, 8, 9, 15, 16, 63, 64, 200}) {
        const int n_out = 13;
        std::vector<float> w(static_cast<size_t>(n_in) * n_out);
        std::vector<float> x(static_cast<size_t>(n_in));
        std::vector<float> bias(static_cast<size_t>(n_out));
        for (float &v : w)
            v = static_cast<float>(rng.gaussian());
        for (float &v : x)
            v = static_cast<float>(rng.gaussian());
        for (float &v : bias)
            v = static_cast<float>(rng.gaussian());

        std::vector<float> ref(static_cast<size_t>(n_out));
        sc.dense(w.data(), x.data(), bias.data(), n_in, n_out,
                 ref.data());
        for (const kernels::Isa isa : simdIsas()) {
            std::vector<float> got(static_cast<size_t>(n_out), -9.0f);
            kernels::kernelOpsFor(isa)->dense(w.data(), x.data(),
                                              bias.data(), n_in,
                                              n_out, got.data());
            EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << kernels::isaName(isa) << " n_in=" << n_in;
        }
    }
}

/**
 * The channel-major kernel matches both the scalar variant and the
 * plain (ic, ky, kx) convolution loop bitwise — with and without a
 * border tap subset.
 */
TEST(KernelConvChan, VariantsMatchPlainLoopBitwise)
{
    Rng rng(6);
    const int cin = 3, k = 3, ih = 7, iw = 7;
    const int ks = cin * k * k;
    std::vector<float> wt(static_cast<size_t>(ks) * 8);
    float bias8[8];
    for (float &v : wt)
        v = static_cast<float>(rng.gaussian());
    for (float &b : bias8)
        b = static_cast<float>(rng.gaussian());
    std::vector<float> in(static_cast<size_t>(cin) * ih * iw);
    for (float &v : in)
        v = static_cast<float>(rng.uniform());

    // Full-kernel offsets in plain-loop order.
    std::vector<int32_t> off;
    for (int ic = 0; ic < cin; ++ic)
        for (int ky = 0; ky < k; ++ky)
            for (int kx = 0; kx < k; ++kx)
                off.push_back((ic * ih + ky) * iw + kx);

    // A strict subset, as a clipped border window would use.
    std::vector<int32_t> sub_idx, sub_off;
    for (int j = 0; j < ks; ++j)
        if (j % 3 != 1) {
            sub_idx.push_back(j);
            sub_off.push_back(off[j]);
        }

    // Window count covers full lane blocks plus ragged tails.
    for (const int nwin : {1, 2, 3, 4, 5, 8, 9}) {
        std::vector<const float *> bases;
        for (int wi = 0; wi < nwin; ++wi)
            bases.push_back(in.data() + wi % (iw - k + 1));

        for (const bool subset : {false, true}) {
            const int32_t *idx = subset ? sub_idx.data() : nullptr;
            const int32_t *offs =
                subset ? sub_off.data() : off.data();
            const int ntaps =
                subset ? static_cast<int>(sub_idx.size()) : ks;

            // Plain serial loop, the module's ground truth.
            std::vector<float> ref(static_cast<size_t>(nwin) * 8);
            for (int wi = 0; wi < nwin; ++wi)
                for (int l = 0; l < 8; ++l) {
                    float acc = bias8[l];
                    for (int j = 0; j < ntaps; ++j)
                        acc += wt[static_cast<size_t>(
                                      idx ? idx[j] : j)
                                      * 8
                                  + l]
                            * bases[wi][offs[j]];
                    ref[static_cast<size_t>(wi) * 8 + l] = acc;
                }

            for (const kernels::Isa isa : kernels::availableIsas()) {
                std::vector<float> got(static_cast<size_t>(nwin) * 8,
                                       -9.0f);
                kernels::kernelOpsFor(isa)->conv_chan(
                    wt.data(), bias8, bases.data(), nwin, offs, idx,
                    ntaps, got.data());
                EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                      ref.size() * sizeof(float)),
                          0)
                    << kernels::isaName(isa) << " nwin=" << nwin
                    << " subset=" << subset;
            }
        }
    }
}

/**
 * Conv2D::forwardInto is bitwise identical under every dispatched
 * variant, on both a large map (row path) and a tiny map with many
 * output channels (channel-major path, including its remainder
 * channels).
 */
TEST(KernelConvLayer, ForwardBitwiseIdenticalAcrossIsas)
{
    if (simdIsas().empty())
        GTEST_SKIP() << "only the scalar variant is available";
    IsaGuard guard;
    struct LayerCase
    {
        ConvSpec spec;
        int in_hw;
    };
    const LayerCase cases[] = {
        {{3, 4, 3, 1, 1, 1}, 32},    // row path
        {{8, 19, 3, 1, 1, 1}, 8},    // channel-major + remainder
        {{4, 16, 5, 2, 2, 2}, 9},    // grouped, channel-major
    };
    Rng rng(9);
    for (const LayerCase &lc : cases) {
        Conv2D conv("c", lc.spec);
        fillConv(conv, rng);
        const Tensor input = reluInput(rng, lc.spec.in_channels,
                                       lc.in_hw);

        kernels::setActiveIsa(kernels::Isa::Scalar);
        const Tensor ref = conv.forward({&input});
        for (const kernels::Isa isa : simdIsas()) {
            kernels::setActiveIsa(isa);
            const Tensor got = conv.forward({&input});
            ASSERT_EQ(ref.shape(), got.shape());
            EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << kernels::isaName(isa) << " k=" << lc.spec.kernel
                << " hw=" << lc.in_hw;
        }
    }
}

namespace {

/** Small calibrated AlexNet + dataset for the engine-level test. */
struct EngineContext
{
    std::unique_ptr<Network> net;
    Dataset data;

    EngineContext()
    {
        ModelScale scale;
        scale.input_size = 40;
        net = buildModel(ModelId::AlexNet, scale);
        Rng rng(17);
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
        dspec.num_classes = 4;
        dspec.images_per_class = 1;
        Rng drng = rng.fork(3);
        data = makeDataset(drng, net->inputShape(), dspec);
    }
};

EngineContext &
engineCtx()
{
    static EngineContext c;
    return c;
}

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
};

EngineRun
runEngine(ExecMode mode, NetworkPlan plan)
{
    EngineRun run;
    SnapeaEngine engine(*engineCtx().net, std::move(plan));
    engine.setMode(mode);
    for (const Tensor &img : engineCtx().data.images)
        run.outputs.push_back(engineCtx().net->forward(img, &engine));
    run.stats = engine.stats();
    return run;
}

EngineRun
runEngine(ExecMode mode)
{
    return runEngine(mode, predictivePlan(*engineCtx().net));
}

void
expectOutputsBitwiseEqual(const EngineRun &ref, const EngineRun &got)
{
    ASSERT_EQ(ref.outputs.size(), got.outputs.size());
    for (size_t i = 0; i < ref.outputs.size(); ++i) {
        ASSERT_EQ(ref.outputs[i].shape(), got.outputs[i].shape());
        EXPECT_EQ(std::memcmp(ref.outputs[i].data(),
                              got.outputs[i].data(),
                              ref.outputs[i].size() * sizeof(float)),
                  0)
            << "image " << i;
    }
}

} // namespace

/**
 * A full engine run — Fast, Serving and Instrumented — produces
 * identical output bits and identical termination statistics whether
 * the kernels dispatch scalar or the best compiled SIMD variant.
 */
TEST(KernelEngine, ScalarAndBestIsaRunsBitwiseIdentical)
{
    const std::vector<kernels::Isa> simd = simdIsas();
    if (simd.empty())
        GTEST_SKIP() << "only the scalar variant is available";
    IsaGuard guard;

    for (const ExecMode mode :
         {ExecMode::Fast, ExecMode::Serving, ExecMode::Instrumented}) {
        kernels::setActiveIsa(kernels::Isa::Scalar);
        const EngineRun ref = runEngine(mode);
        kernels::setActiveIsa(simd.back());
        const EngineRun got = runEngine(mode);

        expectOutputsBitwiseEqual(ref, got);
        ASSERT_EQ(ref.stats.size(), got.stats.size());
        for (const auto &[l, st] : ref.stats) {
            ASSERT_TRUE(got.stats.count(l));
            const LayerExecStats &gs = got.stats.at(l);
            EXPECT_EQ(st.macs_performed, gs.macs_performed);
            EXPECT_EQ(st.spec_terminated, gs.spec_terminated);
            EXPECT_EQ(st.sign_terminated, gs.sign_terminated);
            EXPECT_EQ(st.completed, gs.completed);
            EXPECT_EQ(st.true_negative, gs.true_negative);
            EXPECT_EQ(st.false_negative, gs.false_negative);
        }
    }
}

/**
 * On predictive plans Serving and Instrumented run the same
 * early-terminating walk and differ only in what they record per
 * window, so their output tensors are bitwise equal under every
 * available kernel variant.
 */
TEST(KernelEngine, ServingAndInstrumentedOutputsBitwiseIdentical)
{
    IsaGuard guard;
    const Network &net = *engineCtx().net;
    for (const kernels::Isa isa : kernels::availableIsas()) {
        kernels::setActiveIsa(isa);
        SCOPED_TRACE(kernels::isaName(isa));
        expectOutputsBitwiseEqual(
            runEngine(ExecMode::Instrumented, predictivePlan(net)),
            runEngine(ExecMode::Serving, predictivePlan(net)));
    }
}

/**
 * After ReLU the exact sign cut is lossless, so Serving declines
 * every layer without a speculating kernel and the exact plan runs on
 * the plain dense kernels: its outputs are the bits of
 * Network::forward without an override, for every kernel variant and
 * thread count, and for signed inputs too (which the sign cut would
 * get wrong).
 */
TEST(KernelEngine, ServingExactPlanIsBitwisePlainDense)
{
    IsaGuard guard;
    struct ThreadGuard
    {
        ~ThreadGuard() { util::setThreadCount(0); }
    } threads;
    const Network &net = *engineCtx().net;

    std::vector<Tensor> inputs = engineCtx().data.images;
    Tensor centred(net.inputShape());
    Rng rng(23);
    for (size_t i = 0; i < centred.size(); ++i)
        centred[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    inputs.push_back(std::move(centred));

    for (const kernels::Isa isa : kernels::availableIsas()) {
        kernels::setActiveIsa(isa);
        for (const int n_threads : {1, 4}) {
            util::setThreadCount(n_threads);
            SCOPED_TRACE(std::string(kernels::isaName(isa)) + ", "
                         + std::to_string(n_threads) + " threads");
            SnapeaEngine engine(net, makeExactNetworkPlan(net));
            engine.setMode(ExecMode::Serving);
            for (size_t i = 0; i < inputs.size(); ++i) {
                const Tensor ref = net.forward(inputs[i], nullptr);
                const Tensor got = net.forward(inputs[i], &engine);
                ASSERT_EQ(ref.shape(), got.shape());
                EXPECT_EQ(std::memcmp(ref.data(), got.data(),
                                      ref.size() * sizeof(float)),
                          0)
                    << "input " << i;
            }
        }
    }
}
