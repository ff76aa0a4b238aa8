/**
 * @file
 * Measurement primitives of the benchmark: the percentile rule,
 * open-loop lateness accounting, in-memory spans with self-time
 * arithmetic, and the result record every workload fills.
 *
 * Everything here is plain arithmetic over recorded samples, kept
 * apart from the workloads so the benchmark's own tests can check it
 * without running a model.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Samples a reported percentile must leave above it. */
inline constexpr size_t kTailSamples = 10;

/** A percentile as reported: value, percentile used, sample count. */
struct Pct
{
    double value = 0.0;
    double percentile = 0.0; ///< Percentile actually reported.
    size_t n = 0;            ///< Samples it was taken over.
};

/**
 * Nearest-rank percentile @p want of @p samples.  Tail percentiles
 * (@p want above 50) obey the percentile rule: the reported rank
 * leaves at least kTailSamples samples beyond it, so with too few
 * samples for @p want the highest supported percentile is reported
 * instead, and Pct::percentile says which.  When no tail percentile
 * is supported (fewer than 2 * kTailSamples samples, so the highest
 * allowed rank is not above the median) the maximum is reported as
 * percentile 100.  Empty input gives n == 0.
 */
Pct percentile(std::vector<double> samples, double want);

/**
 * CPU time the hypervisor gave other guests while this machine's CPUs
 * wanted to run (steal, summed over CPUs, in USER_HZ ticks, from
 * /proc/stat); 0 where the kernel reports none.
 */
int64_t hostStealTicks();

/**
 * Which of a phase's windows latency figures are taken over, given
 * each window's host steal: those with at most the median window's
 * steal, so at least half of them, and all of them on a host that
 * reports no steal.  Steal comes from outside the program, so the
 * choice cannot hide a change in the program's own speed.
 */
std::vector<bool> quietWindows(const std::vector<int64_t> &steal);

/** Median (mean of the middle two for an even count; 0 when empty). */
double median(std::vector<double> samples);

/**
 * Open-loop request timing.  Each request has a scheduled send time;
 * latency runs from that time, not from when the generator got round
 * to sending, so a generator or server stall is charged to every
 * request it delayed.  Lateness is how far behind schedule the
 * generator sent.
 */
struct OpenLoopLog
{
    std::vector<int64_t> scheduled_ns;
    std::vector<int64_t> sent_ns;     ///< -1 until sent.
    std::vector<int64_t> received_ns; ///< -1 until a reply arrived.

    explicit OpenLoopLog(std::vector<int64_t> schedule);

    size_t size() const { return scheduled_ns.size(); }

    /** Latency of request @p i in ms, or -1 without a reply. */
    double latencyMs(size_t i) const;

    /** Generator lateness of request @p i in ms (>= 0), -1 unsent. */
    double lagMs(size_t i) const;
};

/**
 * Poisson arrival schedule: the arrival offsets (ns) that fall in
 * [0, @p seconds) at @p rate_per_s, exponential gaps drawn from
 * @p seed.
 */
std::vector<int64_t> poissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds);

/** One recorded span (a timed call into a layer). */
struct Span
{
    int kind = 0;      ///< Workload-defined span name id.
    int parent = -1;   ///< Index of the enclosing span, -1 = root.
    uint64_t req = 0;  ///< Request id the span belongs to.
    int a = -1, b = -1, c = -1; ///< Workload-defined labels.
    int64_t t0 = 0, t1 = 0;     ///< Start and end, ns.
};

/**
 * In-memory span recorder.  Disabled recorders hand out -1 and record
 * nothing, so instrumented code paths cost one branch when tracing is
 * off.  Not thread-safe: one recorder per thread.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    /** Open a span now; returns its index (or -1 when off). */
    int begin(int kind, int parent = -1, uint64_t req = 0, int a = -1,
              int b = -1, int c = -1);

    /** Close span @p id now (no-op for -1). */
    void end(int id);

    /** Record a finished span with explicit times. */
    int add(const Span &s);

    const std::vector<Span> &spans() const { return spans_; }

    /** Drop every span. */
    void clear() { spans_.clear(); }

  private:
    bool on_;
    std::vector<Span> spans_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children are
 * merged, and children are clipped to the parent's interval).
 */
std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

/**
 * Write @p spans to @p path as TSV (id, kind, parent, req, a, b, c,
 * t0_ns, t1_ns, self_ns).
 */
void writeSpans(const std::string &path, const std::vector<Span> &spans);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Host/config fingerprint: key -> JSON value text. */
    std::vector<std::pair<std::string, std::string>> fingerprint;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &key, const std::string &json_value)
    {
        fingerprint.emplace_back(key, json_value);
    }
    void note(const std::string &key, double v);
    void noteStr(const std::string &key, const std::string &s);
};

/**
 * Fold @p from, a traced run of another workload, into @p into: its
 * metrics whose names @p into lacks, its operations and failures, its
 * verdict, and its fingerprint as the nested object @p key.
 */
void absorb(Result &into, const Result &from, const std::string &key);

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

/** JSON number text of @p v with all its digits. */
std::string jsonNumber(double v);

/** The result as one JSON object. */
std::string toJson(const Result &r);

/** VmHWM of process @p pid in MB (0 when unreadable). */
double peakRssMb(int pid);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
