#include "kernels_micro.hh"

#include <algorithm>
#include <functional>
#include <vector>

#include "nn/conv.hh"
#include "nn/dense.hh"
#include "snapea/engine.hh"
#include "snapea/kernels/kernels.hh"

namespace perfbench {

namespace {

using snapea::Conv2D;
using snapea::Tensor;
namespace kernels = snapea::kernels;

/** Maps with at most this many windows run channel-major (nn/conv.cc). */
constexpr int kChanMajorMaxWindows = 64;

/** Timed repetitions of each call list (the median is reported). */
constexpr int kRepeats = 7;

/** One kernel's call list and its per-list work. */
struct CallList
{
    std::vector<std::function<void()>> calls;
    double macs = 0;  ///< MACs of one pass over the list.
    double bytes = 0; ///< Operand bytes of one pass over the list.
};

void
report(Result &r, const char *fn, CallList &cl)
{
    if (cl.calls.empty())
        return;
    for (auto &c : cl.calls) // warm-up pass
        c();
    std::vector<double> ns;
    for (int rep = 0; rep < kRepeats; ++rep) {
        const int64_t t0 = nowNs();
        for (auto &c : cl.calls)
            c();
        ns.push_back(static_cast<double>(nowNs() - t0));
    }
    const double pass_ns = median(ns);
    const double n = static_cast<double>(cl.calls.size());
    const std::string p = std::string("kernels.") + fn + ".";
    r.metric(p + "ns_per_call", pass_ns / n, "ns");
    r.metric(p + "gmac_s", cl.macs / pass_ns, "GMAC/s");
    r.metric(p + "bytes_per_call", cl.bytes / n, "B");
}

} // namespace

void
kernelsMicro(Result &r, const snapea::Network &net,
             const snapea::NetworkPlan &plan, const Tensor &image)
{
    const kernels::KernelOps &kops = kernels::kernelOps();
    std::vector<Tensor> acts;
    net.forwardAll(image, acts);

    // Storage the call lists point into; kept alive until reported.
    std::vector<std::unique_ptr<kernels::PackedKernel>> packed;
    std::vector<std::unique_ptr<std::vector<float>>> bufs;
    std::vector<std::unique_ptr<std::vector<int32_t>>> ibufs;
    std::vector<std::unique_ptr<std::vector<uint8_t>>> fbufs;
    std::vector<std::unique_ptr<std::vector<const float *>>> pbufs;

    CallList conv_row, prefix_row, walk_row, conv_chan, dense;

    for (int l : net.convLayers()) {
        const auto &conv = static_cast<const Conv2D &>(net.layer(l));
        const int prod = net.producers(l)[0];
        const Tensor &in = prod == snapea::Network::kInput
            ? image : acts[static_cast<size_t>(prod)];
        const int ih = in.dim(1), iw = in.dim(2);
        const auto &os = net.outputShape(l);
        const int oh = os[1], ow = os[2];
        const auto &spec = conv.spec();
        const int k = spec.kernel, stride = spec.stride, pad = spec.pad;
        const int cin_g = spec.in_channels / spec.groups;
        const int cout_g = spec.out_channels / spec.groups;
        const int ks = conv.kernelSize();

        if (oh * ow > kChanMajorMaxWindows) {
            // Row kernels: every output channel, every interior row.
            int xlo = 0, xhi = 0;
            kernels::interiorXSpan(iw, k, stride, pad, ow, &xlo, &xhi);
            if (xhi <= xlo || !plan.count(l))
                continue;
            const int n = xhi - xlo;
            auto out = std::make_unique<std::vector<float>>(
                static_cast<size_t>(n) * 2);
            auto ops = std::make_unique<std::vector<int32_t>>(
                static_cast<size_t>(n));
            auto flags = std::make_unique<std::vector<uint8_t>>(
                static_cast<size_t>(n));
            const kernels::WalkSoa soa{out->data(), out->data() + n,
                                       ops->data(), flags->data()};
            const double span_bytes = 4.0 * cin_g * k
                * ((n - 1) * stride + k);
            for (int o = 0; o < spec.out_channels; ++o) {
                snapea::PreparedKernel pk = snapea::prepareKernel(
                    conv, o, plan.at(l).kernels[static_cast<size_t>(o)]);
                snapea::computeInteriorOffsets(pk, ih, iw);
                packed.push_back(std::make_unique<kernels::PackedKernel>(
                    kernels::packKernel(pk.w, pk.interior_off,
                                        pk.prefix_len, pk.neg_start,
                                        pk.th, pk.bias)));
                const kernels::PackedKernel &pp = *packed.back();
                const int nt = static_cast<int>(pp.w.size());
                for (int y = 0; y < oh; ++y) {
                    const int iy0 = y * stride - pad;
                    if (iy0 < 0 || iy0 + k > ih)
                        continue;
                    const float *win0 = in.data()
                        + static_cast<size_t>(iy0) * iw
                        + (xlo * stride - pad);
                    float *o0 = out->data();
                    conv_row.calls.push_back([&kops, &pp, win0, stride, n,
                                              nt, o0] {
                        kops.conv_row(win0, stride, n, pp.w.data(),
                                      pp.off.data(), nt, pp.panel,
                                      pp.bias, o0);
                    });
                    conv_row.macs += static_cast<double>(nt) * n;
                    conv_row.bytes += 8.0 * nt + span_bytes + 4.0 * n;
                    prefix_row.calls.push_back(
                        [&kops, &pp, win0, stride, n, o0] {
                            kops.prefix_row(pp, win0, stride, n, o0);
                        });
                    prefix_row.macs +=
                        static_cast<double>(pp.prefix_len) * n;
                    prefix_row.bytes +=
                        8.0 * pp.prefix_len + span_bytes + 4.0 * n;
                    walk_row.calls.push_back(
                        [&kops, &pp, win0, stride, n, soa] {
                            kops.walk_row(pp, win0, stride, n,
                                          /*need_full=*/false, soa);
                        });
                    // Ops performed depend on the data: count them
                    // from one untimed call.
                    kops.walk_row(pp, win0, stride, n, false, soa);
                    for (int x = 0; x < n; ++x)
                        walk_row.macs += (*ops)[static_cast<size_t>(x)];
                    walk_row.bytes +=
                        8.0 * nt + span_bytes + 13.0 * n;
                }
            }
            bufs.push_back(std::move(out));
            ibufs.push_back(std::move(ops));
            fbufs.push_back(std::move(flags));
        } else if (cout_g >= 8) {
            // Channel-major: chunks of 8 output channels, the interior
            // windows batched per call.
            auto off = std::make_unique<std::vector<int32_t>>();
            for (int ic = 0; ic < cin_g; ++ic)
                for (int ky = 0; ky < k; ++ky)
                    for (int kx = 0; kx < k; ++kx)
                        off->push_back((ic * ih + ky) * iw + kx);
            for (int g = 0; g < spec.groups; ++g) {
                const float *chan0 = in.data()
                    + static_cast<size_t>(g) * cin_g * ih * iw;
                auto bases = std::make_unique<std::vector<const float *>>();
                for (int y = 0; y < oh; ++y)
                    for (int x = 0; x < ow; ++x) {
                        const int iy0 = y * stride - pad;
                        const int ix0 = x * stride - pad;
                        if (iy0 >= 0 && iy0 + k <= ih && ix0 >= 0
                            && ix0 + k <= iw) {
                            bases->push_back(chan0 + iy0 * iw + ix0);
                        }
                    }
                const int nwin = static_cast<int>(bases->size());
                if (nwin == 0)
                    continue;
                for (int c8 = 0; c8 + 8 <= cout_g; c8 += 8) {
                    const int o0 = g * cout_g + c8;
                    auto wt = std::make_unique<std::vector<float>>(
                        static_cast<size_t>(ks) * 8 + 8);
                    for (int lane = 0; lane < 8; ++lane) {
                        const float *w = conv.weights().data()
                            + static_cast<size_t>(o0 + lane) * ks;
                        for (int t = 0; t < ks; ++t)
                            (*wt)[static_cast<size_t>(t) * 8 + lane] = w[t];
                        (*wt)[static_cast<size_t>(ks) * 8 + lane] =
                            conv.bias()[static_cast<size_t>(o0 + lane)];
                    }
                    auto out = std::make_unique<std::vector<float>>(
                        static_cast<size_t>(nwin) * 8);
                    const float *wtp = wt->data();
                    const float *bias8 = wt->data() + ks * 8;
                    const float *const *bp = bases->data();
                    const int32_t *offp = off->data();
                    float *outp = out->data();
                    conv_chan.calls.push_back([&kops, wtp, bias8, bp,
                                               nwin, offp, ks, outp] {
                        kops.conv_chan(wtp, bias8, bp, nwin, offp,
                                       nullptr, ks, outp);
                    });
                    conv_chan.macs += 8.0 * ks * nwin;
                    conv_chan.bytes += 4.0 * ks * 8 + 4.0 * ks
                        + 4.0 * cin_g * ih * iw + 32.0 * nwin;
                    bufs.push_back(std::move(wt));
                    bufs.push_back(std::move(out));
                }
                pbufs.push_back(std::move(bases));
            }
            ibufs.push_back(std::move(off));
        }
    }

    for (int l = 0; l < net.numLayers(); ++l) {
        if (net.layer(l).kind() != snapea::LayerKind::FullyConnected)
            continue;
        const auto &fc =
            static_cast<const snapea::FullyConnected &>(net.layer(l));
        const Tensor &x = acts[static_cast<size_t>(net.producers(l)[0])];
        const int n_in = fc.inFeatures(), n_out = fc.outFeatures();
        auto out = std::make_unique<std::vector<float>>(
            static_cast<size_t>(n_out));
        const float *w = fc.weights().data();
        const float *xp = x.data();
        const float *b = fc.bias().data();
        float *o = out->data();
        dense.calls.push_back([&kops, w, xp, b, n_in, n_out, o] {
            kops.dense(w, xp, b, n_in, n_out, o);
        });
        dense.macs += static_cast<double>(n_in) * n_out;
        dense.bytes += 4.0 * (static_cast<double>(n_in) * n_out + n_in
                              + 2.0 * n_out);
        bufs.push_back(std::move(out));
    }

    report(r, "conv_row", conv_row);
    report(r, "prefix_row", prefix_row);
    report(r, "walk_row", walk_row);
    report(r, "conv_chan", conv_chan);
    report(r, "dense", dense);
}

} // namespace perfbench
