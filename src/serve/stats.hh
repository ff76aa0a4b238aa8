/**
 * @file
 * Serving-side metrics: request counters per outcome and degradation
 * level, batching figures, and a bounded latency reservoir feeding
 * p50/p99.
 *
 * Everything is cheap enough to record on the request path: counters
 * are relaxed atomics, and the latency reservoir is a fixed-size ring
 * (the last kLatencyRingCap completions) behind a small mutex, so
 * memory stays bounded no matter how long the daemon runs.  The JSON
 * snapshot is served by the Stats protocol message and printed by the
 * daemon on shutdown.
 */

#ifndef SNAPEA_SERVE_STATS_HH
#define SNAPEA_SERVE_STATS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "serve/ladder.hh"
#include "util/debug_mutex.hh"

namespace snapea::serve {

/**
 * Startup-measured execution profile of one serving level: what one
 * instrumented calibration image said about early termination.  The
 * Serving-mode engines answering traffic collect no statistics, so
 * these are the (deterministic) constants the stats endpoint reports
 * as the level's early-termination behavior.
 */
struct LevelCalib
{
    double early_term_rate = 0.0; ///< Terminated windows / windows.
    double mac_ratio = 1.0;       ///< MACs performed / MACs full.
};

/** Counter + reservoir state shared by the server's threads. */
class ServeStats
{
  public:
    static constexpr size_t kLatencyRingCap = 4096;

    void recordAdmitted()
    {
        admitted_.fetch_add(1, std::memory_order_relaxed);
    }
    void recordRejected()
    {
        rejected_.fetch_add(1, std::memory_order_relaxed);
    }
    void recordShed()
    {
        shed_.fetch_add(1, std::memory_order_relaxed);
    }
    void recordFailed()
    {
        failed_.fetch_add(1, std::memory_order_relaxed);
    }
    void recordWorkerLost()
    {
        worker_lost_.fetch_add(1, std::memory_order_relaxed);
    }
    void recordAuditDropped()
    {
        audit_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    void recordRetry()
    {
        retries_.fetch_add(1, std::memory_order_relaxed);
    }
    void recordBatch(size_t n)
    {
        batches_.fetch_add(1, std::memory_order_relaxed);
        batched_requests_.fetch_add(n, std::memory_order_relaxed);
    }

    /** One successful reply at @p level, @p latency_ns after admit. */
    void recordCompleted(ServeLevel level, int64_t latency_ns);

    /**
     * One shadow-audit comparison: a sampled predictive reply re-run
     * in exact mode, @p divergent when the top-1 classes differed.
     * Feeds both the lifetime counters and the sliding window that
     * auditWindowRate() summarizes.
     */
    void recordAuditSample(bool divergent);

    /**
     * Divergence rate over the current audit window, or -1 while the
     * window holds fewer than @p min_samples (too few to judge).
     */
    double auditWindowRate(size_t min_samples) const;

    /** Forget the audit window (after a veto fires or cools down). */
    void resetAuditWindow();

    /** Sum of all terminal outcomes (completed + rejected + ...). */
    uint64_t completedTotal() const;

    uint64_t admittedTotal() const
    {
        return admitted_.load(std::memory_order_relaxed);
    }
    uint64_t rejectedTotal() const
    {
        return rejected_.load(std::memory_order_relaxed);
    }
    uint64_t shedTotal() const
    {
        return shed_.load(std::memory_order_relaxed);
    }
    uint64_t failedTotal() const
    {
        return failed_.load(std::memory_order_relaxed);
    }
    uint64_t retriesTotal() const
    {
        return retries_.load(std::memory_order_relaxed);
    }
    uint64_t workerLostTotal() const
    {
        return worker_lost_.load(std::memory_order_relaxed);
    }
    uint64_t auditSamplesTotal() const
    {
        return audit_samples_.load(std::memory_order_relaxed);
    }
    uint64_t auditDivergentTotal() const
    {
        return audit_divergent_.load(std::memory_order_relaxed);
    }
    uint64_t auditDroppedTotal() const
    {
        return audit_dropped_.load(std::memory_order_relaxed);
    }

    /**
     * JSON object with every counter, latency quantiles over the
     * reservoir, and the caller-supplied instantaneous state (queue
     * depth/capacity, current level, per-level calibration).
     */
    std::string toJson(size_t queue_depth, size_t queue_capacity,
                       ServeLevel level, const LevelCalib &exact,
                       const LevelCalib &predictive,
                       bool audit_veto = false) const;

  private:
    /** Last kAuditWindowCap audit verdicts; enough to trip a budget
     *  without letting ancient history dilute a fresh regression. */
    static constexpr size_t kAuditWindowCap = 64;

    std::atomic<uint64_t> admitted_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> worker_lost_{0};
    std::atomic<uint64_t> retries_{0};
    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> batched_requests_{0};
    std::atomic<uint64_t> completed_by_level_[3] = {};
    std::atomic<uint64_t> audit_samples_{0};
    std::atomic<uint64_t> audit_divergent_{0};
    std::atomic<uint64_t> audit_dropped_{0};

    mutable DebugMutex lat_mu_{"ServeStats::lat_mu_"};
    /** Latency samples, milliseconds. */
    std::vector<double> lat_ring_ SNAPEA_GUARDED_BY(lat_mu_);
    /** Ring write cursor. */
    size_t lat_next_ SNAPEA_GUARDED_BY(lat_mu_) = 0;

    mutable DebugMutex audit_mu_{"ServeStats::audit_mu_"};
    /** Sliding window of audit verdicts (1 = divergent). */
    std::vector<uint8_t> audit_ring_ SNAPEA_GUARDED_BY(audit_mu_);
    size_t audit_next_ SNAPEA_GUARDED_BY(audit_mu_) = 0;
};

} // namespace snapea::serve

#endif // SNAPEA_SERVE_STATS_HH
