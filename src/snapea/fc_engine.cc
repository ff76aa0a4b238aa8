#include "snapea/fc_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace snapea {

FcLayerPlan
makeFcExactPlan(const FullyConnected &fc)
{
    FcLayerPlan plan;
    plan.neurons.resize(fc.outFeatures());
    const int n_in = fc.inFeatures();
    for (int o = 0; o < fc.outFeatures(); ++o) {
        const float *w = fc.weights().data()
            + static_cast<size_t>(o) * n_in;
        FcNeuronPlan &np = plan.neurons[o];
        np.order.reserve(n_in);
        for (int i = 0; i < n_in; ++i)
            if (w[i] >= 0.0f)
                np.order.push_back(i);
        np.neg_start = static_cast<int>(np.order.size());
        std::vector<int> negs;
        for (int i = 0; i < n_in; ++i)
            if (w[i] < 0.0f)
                negs.push_back(i);
        std::stable_sort(negs.begin(), negs.end(), [&](int a, int b) {
            return w[a] < w[b];  // most negative first
        });
        np.order.insert(np.order.end(), negs.begin(), negs.end());
        np.w.reserve(np.order.size());
        for (int idx : np.order)
            np.w.push_back(w[idx]);
    }
    return plan;
}

Tensor
runFcExact(const FullyConnected &fc, const FcLayerPlan &plan,
           const Tensor &in, FcExecStats *stats)
{
    SNAPEA_ASSERT(in.size() == static_cast<size_t>(fc.inFeatures()));
    SNAPEA_ASSERT(plan.neurons.size()
                  == static_cast<size_t>(fc.outFeatures()));

    Tensor out({fc.outFeatures()});
    const float *x = in.data();
    const int n_in = fc.inFeatures();

    for (int o = 0; o < fc.outFeatures(); ++o) {
        const FcNeuronPlan &np = plan.neurons[o];
        SNAPEA_ASSERT(np.w.size() == np.order.size());
        const float *w = np.w.data();
        const int *ord = np.order.data();
        float psum = fc.bias()[o];
        int ops = 0;
        bool terminated = false;
        for (int i = 0; i < n_in; ++i) {
            psum += w[i] * x[ord[i]];
            ++ops;
            if (i >= np.neg_start && psum < 0.0f) {
                terminated = true;
                break;
            }
        }
        out[o] = psum;
        if (stats) {
            ++stats->neurons;
            stats->terminated += terminated;
            stats->macs_full += n_in;
            stats->macs_performed += ops;
        }
    }
    return out;
}

} // namespace snapea
