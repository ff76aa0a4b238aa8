#include "serve/params_cache.hh"

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "nn/models/model_zoo.hh"
#include "serve/timebase.hh"
#include "snapea/params.hh"
#include "snapea/reorder.hh"
#include "util/random.hh"
#include "workload/dataset.hh"
#include "workload/weight_init.hh"

namespace snapea::serve {

namespace {

/** Forwards timed per level; the calibration keeps the fastest. */
constexpr int kTimedForwards = 3;

/**
 * Run one instrumented image through a plan and summarize the
 * early-termination behavior (deterministic: same network, plan, and
 * image give the same counts on every boot), then time the Serving
 * forward the level's requests run, best of kTimedForwards.
 */
LevelCalib
calibrate(const Network &net, const NetworkPlan &plan,
          const Tensor &image)
{
    SnapeaEngine engine(net, plan);
    engine.setMode(ExecMode::Instrumented);
    net.forward(image, &engine);
    size_t windows = 0, terminated = 0;
    size_t macs_full = 0, macs_performed = 0;
    for (const auto &[l, st] : engine.stats()) {
        windows += st.windows;
        terminated += st.spec_terminated + st.sign_terminated;
        macs_full += st.macs_full;
        macs_performed += st.macs_performed;
    }
    LevelCalib c;
    if (windows)
        c.early_term_rate =
            static_cast<double>(terminated) / windows;
    if (macs_full)
        c.mac_ratio =
            static_cast<double>(macs_performed) / macs_full;

    engine.setMode(ExecMode::Serving);
    int64_t best_ns = 0;
    for (int i = 0; i < kTimedForwards; ++i) {
        const int64_t t0 = nowNs();
        net.forward(image, &engine);
        const int64_t ns = nowNs() - t0;
        if (i == 0 || ns < best_ns)
            best_ns = ns;
    }
    c.ms_per_image = static_cast<double>(best_ns) / 1e6;
    return c;
}

} // namespace

StatusOr<std::unique_ptr<ParamsCache>>
ParamsCache::build(const ServeModelConfig &cfg, bool calibrate_levels)
{
    const ModelInfo *model = findModelByName(cfg.model);
    if (!model) {
        return statusf(StatusCode::InvalidArgument,
                       "unknown model '%s'", cfg.model.c_str());
    }
    if (cfg.input_px < 16 || cfg.input_px > 512) {
        return statusf(StatusCode::InvalidArgument,
                       "input size %d outside [16, 512]",
                       cfg.input_px);
    }
    if (!std::isfinite(cfg.mu)) {
        return Status(StatusCode::InvalidArgument,
                      "mu must be a finite threshold");
    }
    if (cfg.spec_groups < 1) {
        return statusf(StatusCode::InvalidArgument,
                       "spec groups %d must be >= 1", cfg.spec_groups);
    }

    auto cache = std::unique_ptr<ParamsCache>(new ParamsCache());
    cache->cfg_ = cfg;

    ModelScale scale = defaultScale(model->id);
    scale.input_size = cfg.input_px;
    cache->net_ = buildModel(model->id, scale);

    // Same derivation chain as the benches: fork(1) calibration
    // images, fork(2) weights, so a cold snapea_cli run with the same
    // seed reproduces this network bit for bit.
    Rng rng(cfg.seed);
    DatasetSpec cspec;
    cspec.num_classes = 4;
    cspec.images_per_class = 1;
    Rng crng = rng.fork(1);
    Dataset calib =
        makeDataset(crng, cache->net_->inputShape(), cspec);
    WeightInitSpec wspec;
    wspec.neg_fraction = model->neg_fraction_target;
    Rng wrng = rng.fork(2);
    initializeWeights(*cache->net_, wrng, calib.images, wspec);

    cache->exact_plan_ = makeExactNetworkPlan(*cache->net_);

    std::map<int, std::vector<SpeculationParams>> params;
    for (int l : cache->net_->convLayers()) {
        const auto &conv =
            static_cast<const Conv2D &>(cache->net_->layer(l));
        SpeculationParams sp;
        sp.n_groups = cfg.spec_groups;
        sp.th = cfg.mu;
        params[l].assign(conv.spec().out_channels, sp);
    }
    cache->predictive_plan_ = makeNetworkPlan(*cache->net_, params);

    if (calibrate_levels) {
        cache->calib_[0] = calibrate(*cache->net_, cache->exact_plan_,
                                     calib.images[0]);
        cache->calib_[1] = calibrate(
            *cache->net_, cache->predictive_plan_, calib.images[0]);
    }

    cache->input_elems_ =
        Tensor::elemCount(cache->net_->inputShape());
    cache->output_elems_ = Tensor::elemCount(
        cache->net_->outputShape(cache->net_->numLayers() - 1));
    return cache;
}

const NetworkPlan &
ParamsCache::plan(ServeLevel level) const
{
    return level == ServeLevel::Predictive ? predictive_plan_
                                           : exact_plan_;
}

const LevelCalib &
ParamsCache::calib(ServeLevel level) const
{
    return calib_[level == ServeLevel::Predictive ? 1 : 0];
}

} // namespace snapea::serve
