#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

namespace perfbench {

Pct
percentile(std::vector<double> samples, double want)
{
    Pct p;
    p.n = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    // Nearest rank k (1-based): the smallest k with k/n >= want/100.
    size_t k = static_cast<size_t>(std::ceil(want / 100.0 * n));
    k = std::clamp<size_t>(k, 1, n);
    if (want > 50.0 && n - k < kTailSamples) {
        // Too few samples for the tail asked for: the highest rank
        // with kTailSamples beyond it -- or, when that rank is not
        // above the median, no tail is supported and the maximum is
        // reported as percentile 100.
        k = n > kTailSamples ? n - kTailSamples : 0;
        if (2 * k <= n)
            k = n;
    }
    p.value = samples[k - 1];
    p.percentile = std::min(want, 100.0 * k / n);
    if (k == n && want > 50.0)
        p.percentile = 100.0;
    return p;
}

int64_t
hostStealTicks()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    int64_t v = 0, steal = 0;
    // "cpu user nice system idle iowait irq softirq steal ...".
    if (f >> cpu && cpu == "cpu") {
        for (int field = 1; field <= 8 && f >> v; ++field)
            if (field == 8)
                steal = v;
    }
    return steal;
}

std::vector<bool>
quietWindows(const std::vector<int64_t> &steal)
{
    std::vector<int64_t> sorted = steal;
    std::sort(sorted.begin(), sorted.end());
    std::vector<bool> quiet(steal.size(), false);
    if (steal.empty())
        return quiet;
    const int64_t cut = sorted[(sorted.size() - 1) / 2];
    for (size_t w = 0; w < steal.size(); ++w)
        quiet[w] = steal[w] <= cut;
    return quiet;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const size_t n = samples.size();
    const auto mid = samples.begin() + static_cast<long>(n / 2);
    std::nth_element(samples.begin(), mid, samples.end());
    if (n % 2)
        return *mid;
    const double hi = *mid;
    const double lo = *std::max_element(samples.begin(), mid);
    return (lo + hi) / 2.0;
}

OpenLoopLog::OpenLoopLog(std::vector<int64_t> schedule)
    : scheduled_ns(std::move(schedule)),
      sent_ns(scheduled_ns.size(), -1),
      received_ns(scheduled_ns.size(), -1)
{
}

double
OpenLoopLog::latencyMs(size_t i) const
{
    if (received_ns[i] < 0)
        return -1.0;
    return (received_ns[i] - scheduled_ns[i]) / 1e6;
}

double
OpenLoopLog::lagMs(size_t i) const
{
    if (sent_ns[i] < 0)
        return -1.0;
    return std::max<int64_t>(sent_ns[i] - scheduled_ns[i], 0) / 1e6;
}

std::vector<int64_t>
poissonSchedule(uint64_t seed, double rate_per_s, double seconds)
{
    // mt19937_64's output sequence is fixed by the standard, and the
    // uniform is built by hand (distributions are implementation-
    // defined), so a seed gives the same schedule on every toolchain.
    std::mt19937_64 gen(seed);
    std::vector<int64_t> out;
    double t = 0.0;
    for (;;) {
        const double u = (gen() >> 11) * 0x1.0p-53;
        t += -std::log1p(-u) / rate_per_s;
        if (t >= seconds)
            break;
        out.push_back(static_cast<int64_t>(t * 1e9));
    }
    return out;
}

int
Tracer::begin(int kind, int parent, uint64_t req, int a, int b, int c)
{
    if (!on_)
        return -1;
    Span s;
    s.kind = kind;
    s.parent = parent;
    s.req = req;
    s.a = a;
    s.b = b;
    s.c = c;
    s.t0 = nowNs();
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::end(int id)
{
    if (id >= 0)
        spans_[static_cast<size_t>(id)].t1 = nowNs();
}

int
Tracer::add(const Span &s)
{
    if (!on_)
        return -1;
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> kids(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p >= 0 && static_cast<size_t>(p) < spans.size())
            kids[static_cast<size_t>(p)].push_back(i);
    }
    std::vector<int64_t> self(spans.size());
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        iv.clear();
        for (size_t k : kids[i]) {
            const int64_t lo = std::max(spans[k].t0, s.t0);
            const int64_t hi = std::min(spans[k].t1, s.t1);
            if (hi > lo)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (s.t1 - s.t0) - covered;
    }
    return self;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream f(path);
    const std::vector<int64_t> self = selfTimes(spans);
    f << "id\tkind\tparent\treq\ta\tb\tc\tt0_ns\tt1_ns\tself_ns\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        f << i << '\t' << s.kind << '\t' << s.parent << '\t' << s.req
          << '\t' << s.a << '\t' << s.b << '\t' << s.c << '\t' << s.t0
          << '\t' << s.t1 << '\t' << self[i] << '\n';
    }
}

void
Result::note(const std::string &key, double v)
{
    note(key, jsonNumber(v));
}

void
Result::noteStr(const std::string &key, const std::string &s)
{
    note(key, jsonString(s));
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
toJson(const Result &r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}, \"fingerprint\": {";
    for (size_t i = 0; i < r.fingerprint.size(); ++i) {
        os << (i ? ", " : "") << jsonString(r.fingerprint[i].first)
           << ": " << r.fingerprint[i].second;
    }
    os << "}}";
    return os.str();
}

void
absorb(Result &into, const Result &from, const std::string &key)
{
    for (const Metric &m : from.metrics) {
        const bool have = std::any_of(
            into.metrics.begin(), into.metrics.end(),
            [&](const Metric &o) { return o.name == m.name; });
        if (!have)
            into.metrics.push_back(m);
    }
    into.correct = into.correct && from.correct;
    into.attempted += from.attempted;
    into.failed += from.failed;
    std::string nested = "{";
    for (size_t i = 0; i < from.fingerprint.size(); ++i) {
        nested += (i ? ", " : "") + jsonString(from.fingerprint[i].first)
            + ": " + from.fingerprint[i].second;
    }
    into.note(key, nested + "}");
}

double
peakRssMb(int pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            long kb = 0;
            std::sscanf(line.c_str() + 6, "%ld", &kb);
            return kb / 1024.0;
        }
    }
    return 0.0;
}

} // namespace perfbench
