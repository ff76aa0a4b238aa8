/**
 * @file
 * The shared read-only model state of snapea_serve: one network and
 * one plan per serving level, built once at startup and then only
 * read.
 *
 * Cross-request batching amortizes plan and threshold lookup over
 * this cache — a worker resolves (model, level) to a prepared engine
 * once per batch, not once per request.  The engines themselves are
 * per-worker, not shared: Serving mode (the dense kernels for the
 * exact plan, the early-terminating walk for speculating layers) uses
 * per-engine scratch, so each worker thread owns a pair of
 * Serving-mode engines built over these shared plans.  The plans and
 * network are what this cache keeps immutable.
 *
 * The predictive plan implements the Fig. 11 accuracy knob: every
 * kernel speculates with n_groups prefix taps and threshold mu, the
 * same synthetic-plan shape bench_throughput uses, so the daemon pays
 * no Algorithm 1 optimizer run at boot.  One instrumented calibration
 * image per level, run at build time, records the level's
 * early-termination rate and MAC ratio for the stats endpoint, and
 * the same image's Serving forward, timed best of 3, records what the
 * level costs per image on this host.
 */

#ifndef SNAPEA_SERVE_PARAMS_CACHE_HH
#define SNAPEA_SERVE_PARAMS_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "nn/network.hh"
#include "serve/ladder.hh"
#include "serve/stats.hh"
#include "snapea/engine.hh"
#include "util/status.hh"

namespace snapea::serve {

/** Model configuration of one serving instance. */
struct ServeModelConfig
{
    std::string model = "AlexNet";
    int input_px = 48;       ///< Input resolution (square RGB).
    float mu = 0.0f;         ///< Predictive threshold Th (Fig. 11 knob).
    int spec_groups = 8;     ///< Speculation prefix length N.
    uint32_t seed = 42;      ///< Weight/calibration RNG seed.
};

/** Immutable-after-build shared model state. */
class ParamsCache
{
  public:
    /**
     * Build the network, weights, plans, and calibration profile for
     * @p cfg.  InvalidArgument on unknown models or out-of-range
     * knobs.  With @p calibrate_levels false the calibration forwards
     * (per level one instrumented, three timed) are skipped and the
     * profile stays at its defaults.  Worker processes in a supervised
     * pool pass false so a respawn after a crash reaches WorkerReady
     * faster — the supervisor already owns the calibrated profile for
     * stats.
     */
    static StatusOr<std::unique_ptr<ParamsCache>>
    build(const ServeModelConfig &cfg, bool calibrate_levels = true);

    const ServeModelConfig &config() const { return cfg_; }
    const Network &net() const { return *net_; }

    /**
     * The shared plan for @p level (Predictive gets the speculating
     * plan, every other level the exact one; rejected requests never
     * reach an engine, the mapping just keeps the accessor total).
     * Read-only after build — workers copy it into their own
     * Serving-mode engines.
     */
    const NetworkPlan &plan(ServeLevel level) const;

    /** Startup calibration profile of @p level. */
    const LevelCalib &calib(ServeLevel level) const;

    /** Input tensor element count (the Infer body contract). */
    size_t inputElems() const { return input_elems_; }

    /** Output tensor element count (the InferReply body contract). */
    size_t outputElems() const { return output_elems_; }

  private:
    ParamsCache() = default;

    ServeModelConfig cfg_;
    std::unique_ptr<Network> net_;
    NetworkPlan exact_plan_;
    NetworkPlan predictive_plan_;
    LevelCalib calib_[2];
    size_t input_elems_ = 0;
    size_t output_elems_ = 0;
};

} // namespace snapea::serve

#endif // SNAPEA_SERVE_PARAMS_CACHE_HH
