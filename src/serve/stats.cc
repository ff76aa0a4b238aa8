#include "serve/stats.hh"

#include <cstdio>

#include "util/stats.hh"

namespace snapea::serve {

void
ServeStats::recordCompleted(ServeLevel level, int64_t latency_ns)
{
    const auto idx = static_cast<size_t>(level);
    if (idx < 3)
        completed_by_level_[idx].fetch_add(1,
                                           std::memory_order_relaxed);
    const double ms = static_cast<double>(latency_ns) / 1e6;
    std::lock_guard lock(lat_mu_);
    if (lat_ring_.size() < kLatencyRingCap) {
        lat_ring_.push_back(ms);
    } else {
        lat_ring_[lat_next_] = ms;
        lat_next_ = (lat_next_ + 1) % kLatencyRingCap;
    }
}

void
ServeStats::recordAuditSample(bool divergent)
{
    audit_samples_.fetch_add(1, std::memory_order_relaxed);
    if (divergent)
        audit_divergent_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(audit_mu_);
    const uint8_t v = divergent ? 1 : 0;
    if (audit_ring_.size() < kAuditWindowCap) {
        audit_ring_.push_back(v);
    } else {
        audit_ring_[audit_next_] = v;
        audit_next_ = (audit_next_ + 1) % kAuditWindowCap;
    }
}

double
ServeStats::auditWindowRate(size_t min_samples) const
{
    std::lock_guard lock(audit_mu_);
    if (audit_ring_.size() < min_samples || audit_ring_.empty())
        return -1.0;
    size_t divergent = 0;
    for (uint8_t v : audit_ring_)
        divergent += v;
    return static_cast<double>(divergent)
        / static_cast<double>(audit_ring_.size());
}

void
ServeStats::resetAuditWindow()
{
    std::lock_guard lock(audit_mu_);
    audit_ring_.clear();
    audit_next_ = 0;
}

uint64_t
ServeStats::completedTotal() const
{
    uint64_t total = 0;
    for (const auto &c : completed_by_level_)
        total += c.load(std::memory_order_relaxed);
    return total;
}

std::string
ServeStats::toJson(size_t queue_depth, size_t queue_capacity,
                   ServeLevel level, const LevelCalib &exact,
                   const LevelCalib &predictive,
                   bool audit_veto) const
{
    std::vector<double> lats;
    {
        std::lock_guard lock(lat_mu_);
        lats = lat_ring_;
    }
    const double p50 = lats.empty() ? 0.0 : quantile(lats, 0.50);
    const double p99 = lats.empty() ? 0.0 : quantile(lats, 0.99);
    const double avg = mean(lats);

    const uint64_t batches = batches_.load(std::memory_order_relaxed);
    const uint64_t batched =
        batched_requests_.load(std::memory_order_relaxed);
    const double batch_avg =
        batches ? static_cast<double>(batched) / batches : 0.0;

    const double audit_rate = auditWindowRate(1);

    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\"admitted\": %llu, \"rejected\": %llu, \"invalid\": %llu, "
        "\"shed\": %llu, "
        "\"failed\": %llu, \"worker_lost\": %llu, \"retries\": %llu, "
        "\"completed\": {\"exact\": %llu, \"predictive\": %llu}, "
        "\"batches\": %llu, \"batch_size_avg\": %.3f, "
        "\"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, "
        "\"mean\": %.3f, \"samples\": %zu}, "
        "\"queue\": {\"depth\": %zu, \"capacity\": %zu}, "
        "\"level\": \"%s\", "
        "\"audit\": {\"samples\": %llu, \"divergent\": %llu, "
        "\"dropped\": %llu, \"window_rate\": %.4f, \"veto\": %s}, "
        "\"calib\": {"
        "\"exact\": {\"early_term_rate\": %.4f, \"mac_ratio\": %.4f, "
        "\"ms_per_image\": %.3f}, "
        "\"predictive\": {\"early_term_rate\": %.4f, "
        "\"mac_ratio\": %.4f, \"ms_per_image\": %.3f}}}",
        static_cast<unsigned long long>(
            admitted_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            rejected_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            invalid_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            shed_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            failed_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            worker_lost_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            retries_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            completed_by_level_[0].load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            completed_by_level_[1].load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(batches), batch_avg, p50, p99,
        avg, lats.size(), queue_depth, queue_capacity,
        serveLevelName(level),
        static_cast<unsigned long long>(
            audit_samples_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            audit_divergent_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            audit_dropped_.load(std::memory_order_relaxed)),
        audit_rate < 0 ? 0.0 : audit_rate,
        audit_veto ? "true" : "false",
        exact.early_term_rate, exact.mac_ratio, exact.ms_per_image,
        predictive.early_term_rate, predictive.mac_ratio,
        predictive.ms_per_image);
    return buf;
}

} // namespace snapea::serve
