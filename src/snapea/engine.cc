#include "snapea/engine.hh"

#include <algorithm>

#include "util/check.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace snapea {

PreparedKernel
prepareKernel(const Conv2D &conv, int out_ch, const KernelPlan &plan)
{
    const auto &spec = conv.spec();
    const int ks = conv.kernelSize();
    SNAPEA_ASSERT(static_cast<int>(plan.order.size()) == ks);

    const int cin_g = spec.in_channels / spec.groups;
    const int cout_g = spec.out_channels / spec.groups;
    const int ic0 = (out_ch / cout_g) * cin_g;

    PreparedKernel pk;
    pk.w.resize(ks);
    pk.ic.resize(ks);
    pk.dy.resize(ks);
    pk.dx.resize(ks);
    pk.prefix_len = plan.prefix_len;
    pk.neg_start = plan.neg_start;
    pk.th = plan.params.th;
    pk.bias = conv.bias()[out_ch];
    pk.kernel_w = spec.kernel;

    for (int i = 0; i < ks; ++i) {
        const int idx = plan.order[i];
        int ic_rel, ky, kx;
        conv.decodeIndex(idx, ic_rel, ky, kx);
        pk.w[i] = conv.weightAt(out_ch, idx);
        pk.ic[i] = ic0 + ic_rel;
        pk.dy[i] = ky;
        pk.dx[i] = kx;
        // Index-buffer entries drive raw pointer arithmetic in the
        // window walk; a stale plan (wrong layer, wrong group) shows
        // up here before it can read out of bounds.
        SNAPEA_CHECK(pk.ic[i] >= ic0 && pk.ic[i] < ic0 + cin_g
                     && pk.ic[i] < spec.in_channels);
        SNAPEA_CHECK(ky >= 0 && ky < spec.kernel
                     && kx >= 0 && kx < spec.kernel);
    }
    return pk;
}

void
computeInteriorOffsets(PreparedKernel &pk, int ih, int iw)
{
    pk.interior_off.resize(pk.w.size());
    for (size_t i = 0; i < pk.w.size(); ++i) {
        pk.interior_off[i] = (pk.ic[i] * ih + pk.dy[i]) * iw + pk.dx[i];
    }
}

namespace {

/** True if the window at (iy0, ix0) has no out-of-bounds taps. */
bool
isInterior(const PreparedKernel &pk, int ih, int iw, int iy0, int ix0)
{
    return iy0 >= 0 && ix0 >= 0
        && iy0 + pk.kernel_w <= ih && ix0 + pk.kernel_w <= iw;
}

/** One input tap; out-of-bounds taps read as zero (padding). */
inline float
tapValue(const PreparedKernel &pk, const Tensor &in, int ih, int iw,
         int iy0, int ix0, size_t i)
{
    const int iy = iy0 + pk.dy[i];
    const int ix = ix0 + pk.dx[i];
    if (iy < 0 || iy >= ih || ix < 0 || ix >= iw)
        return 0.0f;
    return in.data()[(static_cast<size_t>(pk.ic[i]) * ih + iy) * iw + ix];
}

/**
 * The interior/border split of one conv layer's output rows.  Only
 * windows of a vertically interior row inside [xlo, xhi) have no
 * padding taps; the SIMD row kernels take that span, the scalar
 * padding paths everything else.
 */
struct RowSplit
{
    int ih, iw, ow, stride, pad, kw;
    int xlo = 0, xhi = 0;

    RowSplit(const Conv2D &conv, const Tensor &in, const Tensor &out)
        : ih(in.dim(1)), iw(in.dim(2)), ow(out.dim(2)),
          stride(conv.spec().stride), pad(conv.spec().pad),
          kw(conv.spec().kernel)
    {
        kernels::interiorXSpan(iw, kw, stride, pad, ow, &xlo, &xhi);
    }

    /**
     * Visit output row @p y: @p border(iy0, x0, x1) gets each run of
     * border windows, @p interior(win0) the interior span, where
     * win0 is the origin of window xlo inside @p in.
     */
    template <class Border, class Interior>
    void row(const Tensor &in, int y, Border &&border,
             Interior &&interior) const
    {
        const int iy0 = y * stride - pad;
        if (iy0 >= 0 && iy0 + kw <= ih && xhi > xlo) {
            border(iy0, 0, xlo);
            interior(in.data() + static_cast<size_t>(iy0) * iw
                     + (xlo * stride - pad));
            border(iy0, xhi, ow);
        } else {
            border(iy0, 0, ow);
        }
    }
};

/** One walked window, as handed to a walk sink. */
struct WalkedWindow
{
    float out;     ///< Value the PE wrote.
    float full;    ///< True convolution value (if kWalkFullKnown).
    int32_t ops;   ///< Eq. (1) MAC count until termination.
    uint8_t flags; ///< kernels::kWalk* bits.
};

} // namespace

/**
 * Reusable walk buffers, hoisted out of the per-layer invocation
 * (they were reallocated per layer per image, and the allocator
 * noise polluted kernel benchmarks).  Serving and Instrumented
 * engines process one image at a time, so one scratch per engine
 * suffices; the row buffers are per worker because kernels walk in
 * parallel.
 */
struct EngineScratch
{
    /**
     * Instrumentation counters of one kernel's walk over one input,
     * merged into LayerExecStats in kernel order after the parallel
     * region joins.
     */
    struct ChannelPartial
    {
        size_t windows = 0;
        size_t macs_performed = 0;
        size_t spec_terminated = 0;
        size_t sign_terminated = 0;
        size_t completed = 0;
        size_t actual_negative = 0;
        size_t actual_positive = 0;
        size_t true_negative = 0;
        size_t false_negative = 0;
        std::vector<float> fn_values;
        std::vector<float> pos_sample;
        size_t pos_seen = 0;

        /** Zero the counters, keeping vector capacity. */
        void reset()
        {
            windows = macs_performed = 0;
            spec_terminated = sign_terminated = completed = 0;
            actual_negative = actual_positive = 0;
            true_negative = false_negative = 0;
            fn_values.clear();
            pos_sample.clear();
            pos_seen = 0;
        }
    };

    /**
     * One output row of walk results besides the written values
     * (kernels::WalkSoa::out points straight into the output row).
     */
    struct WalkRow
    {
        std::vector<float> full;
        std::vector<int32_t> ops;
        std::vector<uint8_t> flags;
    };

    std::vector<ChannelPartial> parts;  ///< One per output channel.
    std::vector<WalkRow> rows;          ///< One per pool worker.

    /** Size one row buffer per pool worker for rows of @p ow. */
    void sizeRows(int ow)
    {
        rows.resize(std::max(util::threadCount(), 1));
        for (WalkRow &r : rows) {
            r.full.resize(ow);
            r.ops.resize(ow);
            r.flags.resize(ow);
        }
    }
};

float
prefixSum(const PreparedKernel &pk, const Tensor &in, int iy0, int ix0)
{
    const int ih = in.dim(1), iw = in.dim(2);
    float psum = pk.bias;
    if (isInterior(pk, ih, iw, iy0, ix0) && !pk.interior_off.empty()) {
        const float *base = in.data()
            + static_cast<size_t>(iy0) * iw + ix0;
        for (int i = 0; i < pk.prefix_len; ++i) {
            SNAPEA_DCHECK(static_cast<size_t>(base - in.data())
                              + static_cast<size_t>(pk.interior_off[i])
                          < in.size());
            psum += pk.w[i] * base[pk.interior_off[i]];
        }
    } else {
        for (int i = 0; i < pk.prefix_len; ++i)
            psum += pk.w[i] * tapValue(pk, in, ih, iw, iy0, ix0, i);
    }
    return psum;
}

WindowWalk
walkWindow(const PreparedKernel &pk, const Tensor &in, int iy0, int ix0,
           bool need_full)
{
    const int ih = in.dim(1), iw = in.dim(2);
    const int ks = static_cast<int>(pk.w.size());
    const bool interior = isInterior(pk, ih, iw, iy0, ix0)
        && !pk.interior_off.empty();
    const float *base = interior
        ? in.data() + static_cast<size_t>(iy0) * iw + ix0 : nullptr;

    auto tap = [&](int i) {
        // The interior fast path indexes the flat activation buffer
        // directly; check the precomputed offset lands inside it.
        SNAPEA_DCHECK(!interior
                      || static_cast<size_t>(base - in.data())
                              + static_cast<size_t>(pk.interior_off[i])
                          < in.size());
        return interior ? base[pk.interior_off[i]]
                        : tapValue(pk, in, ih, iw, iy0, ix0, i);
    };

    WindowWalk res;
    float psum = pk.bias;
    int i = 0;

    // Phase 1: speculation prefix plus the PAU threshold check.
    for (; i < pk.prefix_len; ++i)
        psum += pk.w[i] * tap(i);
    if (pk.prefix_len > 0 && psum <= pk.th) {
        res.ops = pk.prefix_len;
        res.spec_fired = true;
        // The PE emits a negative surrogate so the downstream ReLU
        // yields zero (Fig. 4c emits "-1").
        res.out = -1.0f;
        if (need_full) {
            // Continue (without counting ops) until the true sign
            // settles: once the partial sum goes negative inside the
            // negative-weight run it can only decrease further.
            float full = psum;
            for (int j = i; j < ks; ++j) {
                // Same monotonicity property as phase 3 below: the
                // early return on a settled negative sign is only
                // sound if later terms cannot push the sum back up.
                SNAPEA_DCHECK(j < pk.neg_start
                              || pk.w[j] * tap(j) <= 0.0f);
                full += pk.w[j] * tap(j);
                if (j >= pk.neg_start && full < 0.0f) {
                    res.full_sum = full;
                    res.full_known = true;
                    return res;
                }
            }
            res.full_sum = full;
            res.full_known = true;
        }
        return res;
    }

    // Phase 2: remaining positive weights, no checks needed.
    for (; i < pk.neg_start; ++i)
        psum += pk.w[i] * tap(i);

    // Phase 3: negative weights with the single-bit sign check.
    for (; i < ks; ++i) {
        // The paper's exactness argument (Section III): weights here
        // are negative and activations non-negative, so every term
        // is <= 0 and the partial sum is monotonically non-
        // increasing — a sign once negative is final.  A positive
        // weight (bad plan) or a negative activation (non-ReLU
        // input) would void the argument; catch both.
        SNAPEA_DCHECK(pk.w[i] < 0.0f);
        SNAPEA_DCHECK(pk.w[i] * tap(i) <= 0.0f);
        psum += pk.w[i] * tap(i);
        if (psum < 0.0f) {
            res.ops = i + 1;
            res.sign_fired = true;
            res.out = psum;
            // Monotonicity makes the sign exact; the full value is
            // not needed (ReLU zeroes it either way).
            res.full_known = false;
            return res;
        }
    }

    res.ops = ks;
    res.out = psum;
    res.full_sum = psum;
    res.full_known = true;
    return res;
}

SnapeaEngine::~SnapeaEngine() = default;

SnapeaEngine::SnapeaEngine(const Network &net, NetworkPlan plan)
    : net_(net),
      plan_(std::move(plan)),
      scratch_(std::make_unique<EngineScratch>())
{
    // Kernel preparation is bounded per-layer work with no dataset
    // dependence; cancellable drivers poll between constructions
    // (the optimizer's profiling loop, runMode's accuracy check).
    // snapea-lint: allow(SL008)
    for (const auto &[idx, lp] : plan_) {
        SNAPEA_ASSERT(net_.layer(idx).kind() == LayerKind::Conv);
        const auto &conv = static_cast<const Conv2D &>(net_.layer(idx));
        SNAPEA_ASSERT(static_cast<int>(lp.kernels.size())
                      == conv.spec().out_channels);

        // Interior offsets depend on the layer's input geometry,
        // which is known statically from the network graph.
        const int prod = net_.producers(idx)[0];
        const auto &in_shape = prod == Network::kInput
            ? net_.inputShape() : net_.outputShape(prod);

        PreparedLayer pl;
        pl.kernels.resize(lp.kernels.size());
        pl.packed.resize(lp.kernels.size());
        util::parallel_for(
            0, conv.spec().out_channels, 1, [&](std::int64_t o) {
                PreparedKernel pk = prepareKernel(
                    conv, static_cast<int>(o), lp.kernels[o]);
                computeInteriorOffsets(pk, in_shape[1], in_shape[2]);
                // SoA panel form for the SIMD row kernels; offsets
                // are only valid away from borders, matching where
                // the row kernels run.
                pl.packed[o] = kernels::packKernel(
                    pk.w, pk.interior_off, pk.prefix_len, pk.neg_start,
                    pk.th, pk.bias);
                pl.kernels[o] = std::move(pk);
            });
        for (const auto &kp : lp.kernels)
            pl.any_predictive |= kp.params.predictive();

        prepared_.emplace(idx, std::move(pl));
    }
}

void
SnapeaEngine::beginImage()
{
    if (collect_traces_)
        traces_.emplace_back();
}

void
SnapeaEngine::resetStats()
{
    stats_.clear();
}

void
SnapeaEngine::clearTraces()
{
    traces_.clear();
}

template <class Sink>
void
SnapeaEngine::walk(const PreparedLayer &pl, const Conv2D &conv,
                   const Tensor &in, Tensor &out, bool need_full,
                   Sink &&sink)
{
    const int oh = out.dim(1);
    const RowSplit rs(conv, in, out);
    const kernels::KernelOps &kops = kernels::kernelOps();

    scratch_->sizeRows(rs.ow);

    // Each row is walked straight into the output plane plus SoA
    // scratch — interior spans by the SIMD walk kernel (one window
    // per lane, termination via vector masks), border windows by the
    // scalar walkWindow — then handed to @p sink window by window in
    // (y, x) order.  Kernels write disjoint output planes and a sink
    // sees only its own kernel's windows, so outputs are bitwise
    // identical for any thread count.
    util::parallel_for(
        0, static_cast<std::int64_t>(pl.kernels.size()), 1,
        [&](std::int64_t o) {
            const PreparedKernel &pk = pl.kernels[o];
            EngineScratch::WalkRow &wr =
                scratch_->rows[util::workerIndex()];
            float *plane = out.data() + o * static_cast<size_t>(oh) * rs.ow;
            size_t widx = 0;
            for (int y = 0; y < oh; ++y) {
                const kernels::WalkSoa soa = {
                    plane + static_cast<size_t>(y) * rs.ow,
                    wr.full.data(), wr.ops.data(), wr.flags.data()};
                rs.row(
                    in, y,
                    [&](int iy0, int x0, int x1) {
                        for (int x = x0; x < x1; ++x) {
                            const WindowWalk ww = walkWindow(
                                pk, in, iy0, x * rs.stride - rs.pad,
                                need_full);
                            soa.out[x] = ww.out;
                            soa.full[x] = ww.full_sum;
                            soa.ops[x] = ww.ops;
                            soa.flags[x] = static_cast<uint8_t>(
                                (ww.spec_fired ? kernels::kWalkSpecFired
                                               : 0)
                                | (ww.sign_fired
                                       ? kernels::kWalkSignFired : 0)
                                | (ww.full_known
                                       ? kernels::kWalkFullKnown : 0));
                        }
                    },
                    [&](const float *win0) {
                        const int xlo = rs.xlo;
                        kops.walk_row(pl.packed[o], win0, rs.stride,
                                      rs.xhi - xlo, need_full,
                                      {soa.out + xlo, soa.full + xlo,
                                       soa.ops + xlo, soa.flags + xlo});
                    });
                for (int x = 0; x < rs.ow; ++x, ++widx) {
                    sink(o, widx,
                         WalkedWindow{soa.out[x], soa.full[x],
                                      soa.ops[x], soa.flags[x]});
                }
            }
        });
}

bool
SnapeaEngine::runConv(int layer_idx, const Conv2D &conv, const Tensor &in,
                      Tensor &out)
{
    auto it = prepared_.find(layer_idx);
    if (it == prepared_.end())
        return false;
    const PreparedLayer &pl = it->second;

    if (mode_ == ExecMode::Instrumented) {
        runInstrumented(layer_idx, pl, conv, in, out);
        return true;
    }
    // Outputs-only modes decline layers with no speculating kernel:
    // after ReLU the sign cut is lossless, so the plain dense
    // convolution (Conv2D::forward, which lanes over windows or
    // channels without idling) gives the layer's answer — and gives
    // the right one for signed inputs too, where the cut would not.
    if (!pl.any_predictive)
        return false;
    if (mode_ == ExecMode::Fast) {
        runFast(pl, conv, in, out);
    } else {
        // What a deployed PE does: need_full=false, so a terminated
        // window stops paying MACs right there, and nothing is
        // recorded.
        walk(pl, conv, in, out, /*need_full=*/false,
             [](std::int64_t, size_t, const WalkedWindow &) {});
    }
    return true;
}

void
SnapeaEngine::runFast(const PreparedLayer &pl, const Conv2D &conv,
                      const Tensor &in, Tensor &out)
{
    // The dense pass writes straight into the caller's tensor (no
    // per-invocation allocation); speculated windows are squashed in
    // place below.
    conv.forwardInto(in, out);

    const int oh = out.dim(1);
    const RowSplit rs(conv, in, out);
    const kernels::KernelOps &kops = kernels::kernelOps();

    // Kernels write disjoint output planes; the per-window prefix
    // sums are unchanged, so the squashing decisions are identical
    // for any thread count.  Interior spans run on the SIMD prefix
    // kernel (one window per lane, identical per-window accumulation
    // order); border windows use the scalar padding path.
    util::parallel_for(
        0, static_cast<std::int64_t>(pl.kernels.size()), 1,
        [&](std::int64_t o) {
            const PreparedKernel &pk = pl.kernels[o];
            if (pk.prefix_len == 0)
                return;
            float *plane = out.data() + o * static_cast<size_t>(oh) * rs.ow;
            for (int y = 0; y < oh; ++y) {
                float *orow = plane + static_cast<size_t>(y) * rs.ow;
                rs.row(
                    in, y,
                    [&](int iy0, int x0, int x1) {
                        for (int x = x0; x < x1; ++x) {
                            if (prefixSum(pk, in, iy0,
                                          x * rs.stride - rs.pad)
                                <= pk.th)
                                orow[x] = -1.0f;
                        }
                    },
                    [&](const float *win0) {
                        kops.prefix_row(pl.packed[o], win0, rs.stride,
                                        rs.xhi - rs.xlo, orow + rs.xlo);
                    });
            }
        });
}

void
SnapeaEngine::runInstrumented(int layer_idx, const PreparedLayer &pl,
                              const Conv2D &conv, const Tensor &in,
                              Tensor &out)
{
    const int oh = out.dim(1), ow = out.dim(2);
    const int ks = conv.kernelSize();

    LayerExecStats &st = stats_[layer_idx];
    if (st.name.empty())
        st.name = conv.name();

    ConvLayerTrace *trace = nullptr;
    if (collect_traces_) {
        SNAPEA_ASSERT(!traces_.empty());
        traces_.back().conv_layers.emplace_back();
        trace = &traces_.back().conv_layers.back();
        trace->layer_idx = layer_idx;
        trace->name = conv.name();
        trace->out_channels = conv.spec().out_channels;
        trace->out_h = oh;
        trace->out_w = ow;
        trace->kernel_size = ks;
        trace->kernel_w = conv.spec().kernel;
        trace->stride = conv.spec().stride;
        trace->in_channels = in.dim(0);
        trace->in_h = in.dim(1);
        trace->in_w = in.dim(2);
        trace->predictive = pl.any_predictive;
        trace->ops.resize(static_cast<size_t>(conv.spec().out_channels)
                          * oh * ow);
    }

    // Kernels walk in parallel into per-kernel partials which are
    // merged below on this thread in kernel order.  Every partial
    // depends only on its own kernel's windows and the merge order
    // is fixed, so counters, fn_values, and the positive sample are
    // bitwise identical for any thread count (including the serial
    // path, which runs the very same code).
    const std::int64_t n_ch =
        static_cast<std::int64_t>(pl.kernels.size());
    std::vector<EngineScratch::ChannelPartial> &parts = scratch_->parts;
    parts.resize(n_ch);
    for (EngineScratch::ChannelPartial &p : parts)
        p.reset();

    walk(pl, conv, in, out, /*need_full=*/true,
         [&](std::int64_t o, size_t widx, const WalkedWindow &w) {
        EngineScratch::ChannelPartial &p = parts[o];
        const bool spec_fired = w.flags & kernels::kWalkSpecFired;
        const bool sign_fired = w.flags & kernels::kWalkSignFired;

        ++p.windows;
        p.macs_performed += w.ops;
        if (trace) {
            trace->ops[static_cast<size_t>(o) * oh * ow + widx] =
                static_cast<uint16_t>(std::min(w.ops, 65535));
        }

        bool actual_neg;
        if (sign_fired) {
            actual_neg = true;  // sign check is exact
        } else if (spec_fired) {
            SNAPEA_ASSERT(w.flags & kernels::kWalkFullKnown);
            actual_neg = w.full <= 0.0f;
        } else {
            actual_neg = w.out <= 0.0f;
        }
        if (actual_neg)
            ++p.actual_negative;
        else
            ++p.actual_positive;

        if (spec_fired) {
            ++p.spec_terminated;
            if (actual_neg) {
                ++p.true_negative;
            } else {
                ++p.false_negative;
                p.fn_values.push_back(w.full);
            }
        } else if (sign_fired) {
            ++p.sign_terminated;
        } else {
            ++p.completed;
            if (w.out > 0.0f) {
                // Fixed-stride sample of positive magnitudes for the
                // "errors land on small positives" statistic of
                // Section VI-B: every kPosSampleStride-th positive of
                // this kernel, in (y, x) order.  Unlike a count-keyed
                // reservoir, the stride sample depends only on this
                // kernel's own windows, so it survives the per-kernel
                // merge unchanged.
                if (p.pos_seen % LayerExecStats::kPosSampleStride == 0
                    && p.pos_sample.size()
                           < LayerExecStats::kPosSampleCap) {
                    p.pos_sample.push_back(w.out);
                }
                ++p.pos_seen;
            }
        }
    });

    size_t macs_performed = 0;
    for (std::int64_t o = 0; o < n_ch; ++o) {
        const EngineScratch::ChannelPartial &p = parts[o];
        st.windows += p.windows;
        st.macs_full += p.windows * static_cast<size_t>(ks);
        st.macs_performed += p.macs_performed;
        st.spec_terminated += p.spec_terminated;
        st.sign_terminated += p.sign_terminated;
        st.completed += p.completed;
        st.actual_negative += p.actual_negative;
        st.actual_positive += p.actual_positive;
        st.true_negative += p.true_negative;
        st.false_negative += p.false_negative;
        st.fn_values.insert(st.fn_values.end(), p.fn_values.begin(),
                            p.fn_values.end());
        for (float v : p.pos_sample) {
            if (st.pos_sample.size() < LayerExecStats::kPosSampleCap)
                st.pos_sample.push_back(v);
        }
        st.pos_seen += p.pos_seen;
        macs_performed += p.macs_performed;
    }
    if (trace) {
        trace->macs_performed = macs_performed;
        trace->macs_full = static_cast<size_t>(ks) * pl.kernels.size()
            * oh * ow;
    }
}

} // namespace snapea
