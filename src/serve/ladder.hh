/**
 * @file
 * The three-level graceful-degradation ladder (DESIGN.md §5f).
 *
 * Queue depth drives the serving level:
 *
 *   Exact      -> full-precision SnaPEA exact mode (sign-check
 *                 reordering only).  Bitwise-equal to the plain conv:
 *                 the sign cut is lossless after ReLU, so Serving
 *                 engines decline these layers and the dense kernels
 *                 compute them.
 *   Predictive -> the Fig. 11 accuracy knob: every kernel speculates
 *                 with the configured threshold mu, trading a bounded
 *                 accuracy loss for fewer MACs per window (Eq. (1)).
 *                 On a CPU the walk that saves those MACs costs more
 *                 wall time than the dense exact level; STATS reports
 *                 both levels' measured ms_per_image.
 *   Reject     -> admission control refuses new work (Overloaded)
 *                 until the backlog recedes; queued work still runs.
 *
 * Each boundary is a hysteresis band (enter above, exit below a
 * strictly lower mark) so a queue oscillating around one depth does
 * not flap the level — and, with it, the reply contents — on every
 * request.  Transitions are monotone in depth: update() never skips
 * from Exact to Reject without the depth actually being past the
 * reject mark, and recovery steps down through Predictive unless the
 * queue has fully drained below the predictive-exit mark.
 */

#ifndef SNAPEA_SERVE_LADDER_HH
#define SNAPEA_SERVE_LADDER_HH

#include <atomic>
#include <cstddef>
#include <mutex>

#include "util/debug_mutex.hh"

namespace snapea::serve {

/** Serving level, ordered by increasing degradation. */
enum class ServeLevel : int {
    Exact = 0,
    Predictive = 1,
    Reject = 2,
};

/** Stable lower-case name ("exact", "predictive", "reject"). */
const char *serveLevelName(ServeLevel level);

/** Hysteresis marks, in queue-depth units. */
struct LadderConfig
{
    size_t predictive_enter = 0; ///< depth >= this: leave Exact.
    size_t predictive_exit = 0;  ///< depth <= this: back to Exact.
    size_t reject_enter = 0;     ///< depth >= this: refuse admission.
    size_t reject_exit = 0;      ///< depth <= this: admit again.

    /**
     * Default marks for a queue of @p capacity: speculate at half
     * full (recover at a quarter), reject at nine tenths (recover at
     * six tenths).  The reject-enter mark is the "high water mark" of
     * the admission-control contract: below it the reject rate is
     * exactly zero.
     */
    static LadderConfig forCapacity(size_t capacity);

    /** enter > exit per band, predictive band below the reject band. */
    bool valid() const;
};

/**
 * The ladder itself.  update() is called with the current queue depth
 * at every admission and every batch dequeue; level() is a cheap
 * atomic read for stats snapshots.  Thread-safe.
 *
 * Two external overrides can pin the published level regardless of
 * queue depth, without disturbing the hysteresis state underneath:
 *
 *   forceReject    -> the supervisor's crash-storm circuit breaker is
 *                     open; publish Reject until it closes.
 *   vetoPredictive -> the shadow-audit guardrail found too much
 *                     divergence; publish Exact where depth alone
 *                     would have said Predictive (accuracy beats
 *                     latency until the veto cools down).
 *
 * The raw depth-driven level keeps evolving while an override is
 * active, so clearing the override lands on whatever the hysteresis
 * would have decided anyway — no transition replay needed.
 */
class DegradationLadder
{
  public:
    explicit DegradationLadder(const LadderConfig &cfg) : cfg_(cfg) {}

    /** Fold a depth observation in; returns the (new) level. */
    ServeLevel update(size_t depth);

    /** Last decided level, without a new observation. */
    ServeLevel level() const
    {
        return static_cast<ServeLevel>(
            level_.load(std::memory_order_relaxed));
    }

    /** Pin the published level to Reject (circuit breaker open). */
    void forceReject(bool on);

    /** Downgrade published Predictive to Exact (audit guardrail). */
    void vetoPredictive(bool on);

    bool rejectForced() const
    {
        return force_reject_.load(std::memory_order_relaxed);
    }
    bool predictiveVetoed() const
    {
        return veto_predictive_.load(std::memory_order_relaxed);
    }

    const LadderConfig &config() const { return cfg_; }

  private:
    /** Apply the overrides to a raw level; mu_ must be held. */
    ServeLevel effectiveLocked(ServeLevel raw) const;

    const LadderConfig cfg_;
    /** Serializes transitions so hysteresis state cannot be torn. */
    DebugMutex mu_{"DegradationLadder::mu_"};
    /** Depth-driven hysteresis state, before overrides. */
    ServeLevel raw_level_ SNAPEA_GUARDED_BY(mu_) = ServeLevel::Exact;
    /** Published effective level (raw + overrides). */
    std::atomic<int> level_{static_cast<int>(ServeLevel::Exact)};
    std::atomic<bool> force_reject_{false};
    std::atomic<bool> veto_predictive_{false};
};

} // namespace snapea::serve

#endif // SNAPEA_SERVE_LADDER_HH
