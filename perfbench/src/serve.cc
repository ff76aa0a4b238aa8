/**
 * @file
 * The serve_steady workload: snapea_serve in its shipped
 * worker-process mode, driven open-loop through ServeClient.
 *
 * Order of a run:
 *   1. the pool (workload layer) and the bench-side references: a
 *      ParamsCache built with the daemon's configuration, and every
 *      pool image's plain dense, Serving-exact and Serving-predictive
 *      output, precomputed here so no reference work lands inside a
 *      timed region.  The same pass times each mode single-threaded
 *      (the *_img_s metrics of this workload);
 *   2. set-up, repeated Options::setups times: daemon spawn to the
 *      first Ok reply (setup_s is the median); the last daemon stays;
 *   3. warm-up: two closed-loop passes over the pool, then a few
 *      seconds of open-loop arrivals at the same rate;
 *   4. the open-loop phase: Poisson arrivals at kRateRps on one
 *      connection, a sender and a receiver thread, every reply judged
 *      by the correctness gate as it arrives;
 *   5. STATS and HEALTH, peak RSS of the daemon and its workers, and
 *      a graceful SIGTERM drain.
 *
 * With tracing on the open-loop phase is split: half untraced, half
 * with spans recorded (the difference is the tracing overhead), and
 * an --in-process daemon runs the same arrivals, whose median latency
 * against the pool's gives the supervisor hop.
 */

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.hh"
#include "serve/client.hh"
#include "serve/net.hh"
#include "serve/params_cache.hh"
#include "snapea/engine.hh"
#include "util/subprocess.hh"

namespace perfbench {

namespace {

using snapea::ExecMode;
using snapea::SnapeaEngine;
using snapea::Tensor;
using snapea::serve::ParamsCache;
using snapea::serve::ServeClient;
using snapea::serve::ServeLevel;
using snapea::serve::WireStatus;

enum SpanKind { kSpanRequest = 1, kSpanSend = 2, kSpanJudge = 3 };

/**
 * Timed bench-side passes over the pool: one before each daemon
 * set-up (while no daemon runs) and kRefRepeats after the last daemon
 * stops.  The *_img_s figures are best-of-samples over all of them,
 * so they sample the host across the set-up phase and at the end of
 * the run.
 */
constexpr int kRefRepeats = 8;

/**
 * Open-loop arrival rate, req/s: an absolute number, never derived
 * from a capacity measured during the run.  The daemon's exact
 * capacity measured 210-350 req/s on a 4-core AVX2 host as the shared
 * host's speed varied, and about 125 req/s in phases where it ran
 * 1.7x slower; at 80 req/s it stays at or below two thirds of exact
 * capacity even then, because queueing delay rises steeply near full
 * load (README "Workloads").
 */
constexpr double kRateRps = 80.0;

/**
 * Goodput latency limit, also sent as each request's deadline: about
 * 15x the unloaded exact p50 (~9 ms), so only requests caught in a
 * stall of the host or the daemon miss it.
 */
constexpr double kLimitMs = 150.0;

/** Seconds of open-loop warm-up before each measured phase. */
constexpr double kOpenWarmUpS = 3.0;

/** Length of the windows host steal is sampled over, ns. */
constexpr int64_t kStealWindowNs = 1'000'000'000;

/** The daemon's model: what ParamsCache builds for it. */
snapea::serve::ServeModelConfig
daemonModel()
{
    snapea::serve::ServeModelConfig cfg;
    cfg.model = "AlexNet";
    cfg.input_px = 48;
    return cfg;
}

/** Bench-side model state, references and single-thread timings. */
struct Refs
{
    std::unique_ptr<ParamsCache> cache;
    std::unique_ptr<SnapeaEngine> eng[kModes]; ///< eng[kDense] unused.
    Pool pool;
    std::vector<std::vector<float>> out[kModes];
    /** Every timed forward, ms, per mode and image. */
    std::vector<std::vector<double>> samples[kModes];
    double params_build_s = 0, engine_build_ms = 0, pool_ms = 0;

    ImageRef ref(size_t i) const
    {
        ImageRef r;
        r.dense = out[kDense][i].data();
        r.exact = out[kExact][i].data();
        r.pred = out[kPred][i].data();
        r.n = out[kDense][i].size();
        r.centred = pool.centred[i];
        return r;
    }

    /** Best-of-samples ms of image @p i in @p mode. */
    double bestMs(int mode, size_t i) const
    {
        const auto &v = samples[mode][i];
        return *std::min_element(v.begin(), v.end());
    }

    /**
     * @p reps timed passes over the pool, every mode per image,
     * repetition-major so each image's samples spread over time.
     * The first pass ever also records the reference outputs.
     */
    void time(int reps)
    {
        const snapea::Network &net = cache->net();
        for (int rep = 0; rep < reps; ++rep) {
            for (size_t i = 0; i < pool.images.size(); ++i) {
                for (int mode = 0; mode < kModes; ++mode) {
                    const int64_t a = nowNs();
                    const Tensor o =
                        net.forward(pool.images[i], eng[mode].get());
                    samples[mode][i].push_back((nowNs() - a) / 1e6);
                    if (out[mode][i].empty())
                        out[mode][i].assign(o.data(), o.data() + o.size());
                }
            }
            eng[kInstr]->resetStats();
        }
    }
};

std::unique_ptr<Refs>
buildRefs(const Options &opt)
{
    auto refs = std::make_unique<Refs>();
    const int64_t t0 = nowNs();
    refs->pool = makePool({3, 48, 48}, kPoolSeed * 1000003u + 17,
                          opt.pool);
    const int64_t t1 = nowNs();
    auto built = ParamsCache::build(daemonModel(), false);
    if (!built.ok())
        throw std::runtime_error(built.status().toString());
    refs->cache = std::move(built).value();
    const int64_t t2 = nowNs();
    const ParamsCache &c = *refs->cache;
    makeModeEngines(c, refs->eng);
    const int64_t t3 = nowNs();
    refs->pool_ms = (t1 - t0) / 1e6;
    refs->params_build_s = (t2 - t1) / 1e9;
    refs->engine_build_ms = (t3 - t2) / 1e6;

    const size_t n = refs->pool.images.size();
    for (int mode = 0; mode < kModes; ++mode) {
        refs->out[mode].resize(n);
        refs->samples[mode].assign(n, {});
        c.net().forward(refs->pool.images[0], refs->eng[mode].get());
    }
    refs->eng[kInstr]->resetStats();
    return refs;
}

/** A spawned snapea_serve process, stopped on destruction. */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::string &tag, bool in_process)
    {
        port_file_ = opt.workdir + "/port-" + tag;
        ::unlink(port_file_.c_str());
        snapea::SpawnSpec spec;
        spec.exe = opt.serve_exe;
        spec.args = {"--model", "AlexNet", "--input", "48",
                     "--workers", std::to_string(kDaemonWorkers),
                     "--threads", "1", "--port", "0",
                     "--port-file", port_file_};
        if (in_process)
            spec.args.push_back("--in-process");
        auto pid = snapea::spawnProcess(spec);
        if (!pid.ok())
            throw std::runtime_error("cannot spawn " + opt.serve_exe + ": "
                                     + pid.status().toString());
        pid_ = pid.value();
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }

    /** Wait for the bound port (throws if the daemon dies or stalls). */
    uint16_t waitPort(double timeout_s)
    {
        const int64_t end = nowNs() + static_cast<int64_t>(timeout_s * 1e9);
        while (nowNs() < end) {
            std::ifstream f(port_file_);
            int port = 0;
            if (f >> port && port > 0)
                return static_cast<uint16_t>(port);
            int ws = 0;
            const auto dead = snapea::reapProcess(pid_, &ws);
            if (!dead.ok() || dead.value()) {
                pid_ = -1;
                throw std::runtime_error("snapea_serve exited at boot: "
                                         + snapea::describeWaitStatus(ws));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("snapea_serve did not bind in time");
    }

    /** SIGTERM, graceful drain, reap (SIGKILL past the budget). */
    void stop()
    {
        if (pid_ <= 0)
            return;
        // Teardown is best effort: the reap escalates to SIGKILL.
        (void)snapea::signalProcess(pid_, SIGTERM);
        int ws = 0;
        (void)snapea::reapWithDeadline(pid_, &ws, 30'000);
        pid_ = -1;
        ::unlink(port_file_.c_str());
    }

  private:
    pid_t pid_ = -1;
    std::string port_file_;
};

/** Connect, retrying while the listener comes up. */
ServeClient
connectClient(uint16_t port)
{
    for (int attempt = 0;; ++attempt) {
        auto c = ServeClient::connect("", port);
        if (c.ok())
            return std::move(c).value();
        if (attempt > 5000)
            throw std::runtime_error(c.status().toString());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** Blocking Infer; throws on transport loss. */
snapea::serve::Reply
inferSync(ServeClient &c, const Tensor &img)
{
    std::vector<float> in(img.data(), img.data() + img.size());
    auto r = c.infer(in);
    if (!r.ok())
        throw std::runtime_error(r.status().toString());
    return std::move(r).value();
}

/**
 * Wait for @p d (spawned at @p t0) to answer its first Ok; returns the
 * seconds from spawn and leaves the connection in @p keep.
 */
double
bootToFirstOk(Daemon &d, const Refs &refs, int64_t t0,
              std::optional<ServeClient> &keep)
{
    const uint16_t port = d.waitPort(60.0);
    keep.emplace(connectClient(port));
    for (int attempt = 0;; ++attempt) {
        const auto r = inferSync(*keep, refs.pool.images[0]);
        if (r.status == WireStatus::Ok)
            break;
        if (attempt > 1000)
            throw std::runtime_error("daemon never answered Ok");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return (nowNs() - t0) / 1e9;
}

/** Spawn a daemon; @p boot_s gets its spawn-to-first-Ok time. */
std::unique_ptr<Daemon>
startDaemon(const Options &opt, const Refs &refs, bool in_process,
            std::optional<ServeClient> &client, double *boot_s)
{
    const int64_t t0 = nowNs();
    auto d = std::make_unique<Daemon>(opt, in_process ? "inproc" : "pool",
                                      in_process);
    const double s = bootToFirstOk(*d, refs, t0, client);
    if (boot_s)
        *boot_s = s;
    return d;
}

/** The outcome of every request of one open-loop phase. */
struct Phase
{
    OpenLoopLog log;
    std::vector<size_t> image;       ///< Pool index per request.
    std::vector<Outcome> outcome;
    std::vector<int> level;          ///< Reply level byte (-1: none).
    std::vector<int> status;         ///< Reply status (-1: none).
    /** Host steal ticks sampled at each window boundary, and when. */
    std::vector<int64_t> steal, steal_at_ns;
    Tracer spans{false};

    explicit Phase(std::vector<int64_t> sched)
        : log(std::move(sched))
    {
    }
};

/**
 * One open-loop phase on @p client: Poisson arrivals at kRateRps for
 * @p seconds, the pool cycled in a seeded order.  The calling thread
 * sends; a second thread receives and judges.  The two halves may
 * share the client although it is single-threaded by contract: with
 * explicit request ids sendInfer only writes frames to the socket and
 * readReply only reads them, and they touch no other client state.
 */
std::unique_ptr<Phase>
openLoop(ServeClient &client, const Refs &refs, uint64_t phase_seed,
         double seconds, uint64_t id_base, bool traced)
{
    auto ph = std::make_unique<Phase>(
        poissonSchedule(phase_seed, kRateRps, seconds));
    ph->spans = Tracer(traced);
    const size_t n = ph->log.size();
    // Requests draw the pool in seeded permutation cycles, so every
    // pool image (and the centred share) appears equally often.
    const size_t pool_n = refs.pool.images.size();
    ph->image.resize(n);
    std::vector<size_t> perm;
    for (size_t i = 0; i < n; ++i) {
        if (i % pool_n == 0)
            perm = seededPermutation(pool_n, phase_seed + 1 + i / pool_n);
        ph->image[i] = perm[i % pool_n];
    }
    ph->outcome.assign(n, Outcome::Error);
    ph->level.assign(n, -1);
    ph->status.assign(n, -1);

    const int64_t start = nowNs() + 5'000'000;
    const int64_t give_up = start + static_cast<int64_t>(seconds * 1e9)
        + 30'000'000'000;
    Tracer judge_spans(traced);
    std::thread receiver([&] {
        size_t got = 0;
        while (got < n) {
            // Wait for readability first, so no timeout can split a
            // frame; once a frame starts, readReply reads all of it.
            const auto readable =
                snapea::serve::waitReadable(client.fd(), 1000);
            if (!readable.ok() || nowNs() > give_up)
                break;
            if (!readable.value())
                continue;
            auto r = client.readReply();
            if (!r.ok())
                break; // EOF or a broken frame: the daemon is gone
            const int64_t t = nowNs();
            const snapea::serve::Reply &rep = r.value();
            if (rep.req_id < id_base || rep.req_id >= id_base + n)
                continue;
            const size_t i = rep.req_id - id_base;
            ph->log.received_ns[i] = t;
            const int js = judge_spans.begin(kSpanJudge, -1, rep.req_id);
            ph->outcome[i] = judgeReply(
                rep.status, rep.level, rep.output.data(),
                rep.output.size(), refs.ref(ph->image[i]));
            judge_spans.end(js);
            ph->level[i] = rep.level;
            ph->status[i] = static_cast<int>(rep.status);
            ++got;
        }
    });
    const uint32_t deadline_ms = static_cast<uint32_t>(kLimitMs);
    const auto sampleSteal = [&] {
        ph->steal_at_ns.push_back(nowNs());
        ph->steal.push_back(hostStealTicks());
    };
    for (size_t i = 0; i < n; ++i) {
        const int64_t due = start + ph->log.scheduled_ns[i];
        ph->log.scheduled_ns[i] = due;
        int64_t now = nowNs();
        if (now < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
            now = nowNs();
        }
        if (ph->steal.empty()
            || now >= ph->steal_at_ns.back() + kStealWindowNs) {
            sampleSteal();
        }
        ph->log.sent_ns[i] = now;
        const Tensor &img = refs.pool.images[ph->image[i]];
        const int sp = ph->spans.begin(kSpanSend, -1, id_base + i);
        const auto st = client.sendInfer(id_base + i, img.data(),
                                         img.size(), deadline_ms);
        ph->spans.end(sp);
        if (!st.ok())
            break;
    }
    receiver.join();
    sampleSteal();
    // Request spans (scheduled send to reply) parent the send spans.
    if (traced) {
        std::vector<Span> all;
        for (size_t i = 0; i < n; ++i) {
            Span req;
            req.kind = kSpanRequest;
            req.req = id_base + i;
            req.t0 = ph->log.scheduled_ns[i];
            req.t1 = ph->log.received_ns[i] >= 0 ? ph->log.received_ns[i]
                                                 : req.t0;
            all.push_back(req);
        }
        for (const Span &s : ph->spans.spans()) {
            Span c = s;
            c.parent = static_cast<int>(s.req - id_base);
            all.push_back(c);
        }
        for (const Span &s : judge_spans.spans()) {
            Span c = s;
            c.parent = static_cast<int>(s.req - id_base);
            all.push_back(c);
        }
        ph->spans.clear();
        for (const Span &s : all)
            ph->spans.add(s);
    }
    return ph;
}

/**
 * Warm-up outside any timing: two closed-loop passes over the pool,
 * then kOpenWarmUpS of open-loop arrivals at kRateRps on their own
 * schedule.  Without the open-loop part the first one to two seconds
 * of the measured phase ran in stall clusters that held most of a
 * run's p99 samples.
 */
void
warmUp(ServeClient &c, const Refs &refs, const Options &opt)
{
    for (int pass = 0; pass < 2; ++pass)
        for (const Tensor &img : refs.pool.images)
            inferSync(c, img);
    openLoop(c, refs, opt.seed * 7919u + 2, kOpenWarmUpS, 4u << 24, false);
}

/**
 * Latencies (ms), in arrival order, of the phase's served requests:
 * those answered with a computed output (status Ok), whatever the
 * gate made of the output.
 */
std::vector<double>
servedLatencies(const Phase &ph)
{
    std::vector<double> v;
    for (size_t i = 0; i < ph.log.size(); ++i)
        if (ph.status[i] == static_cast<int>(WireStatus::Ok))
            v.push_back(ph.log.latencyMs(i));
    return v;
}

/**
 * servedLatencies restricted to the requests scheduled in the phase's
 * quiet windows (quietWindows over each window's host steal);
 * @p kept and @p windows get how many windows were kept of how many.
 */
std::vector<double>
quietLatencies(const Phase &ph, size_t *kept, size_t *windows)
{
    std::vector<int64_t> steal;
    for (size_t w = 0; w + 1 < ph.steal.size(); ++w)
        steal.push_back(ph.steal[w + 1] - ph.steal[w]);
    const std::vector<bool> quiet = quietWindows(steal);
    *windows = quiet.size();
    *kept = static_cast<size_t>(
        std::count(quiet.begin(), quiet.end(), true));
    std::vector<double> v;
    for (size_t i = 0; i < ph.log.size(); ++i) {
        if (ph.status[i] != static_cast<int>(WireStatus::Ok))
            continue;
        // The window whose start is the last one at or before the
        // request's scheduled send.
        const auto after = std::upper_bound(
            ph.steal_at_ns.begin(), ph.steal_at_ns.end() - 1,
            ph.log.scheduled_ns[i]);
        const size_t w = static_cast<size_t>(
            std::max<long>(after - ph.steal_at_ns.begin() - 1, 0));
        if (w < quiet.size() && quiet[w])
            v.push_back(ph.log.latencyMs(i));
    }
    return v;
}

/** Every number after "key": in a JSON text, in order. */
std::vector<double>
jsonFields(const std::string &json, const std::string &key)
{
    const std::string pat = "\"" + key + "\": ";
    std::vector<double> v;
    for (size_t at = json.find(pat); at != std::string::npos;
         at = json.find(pat, at + pat.size())) {
        v.push_back(std::strtod(json.c_str() + at + pat.size(), nullptr));
    }
    return v;
}

/** First number after "key": in a flat JSON text (0 when absent). */
double
jsonField(const std::string &json, const std::string &key)
{
    const std::vector<double> v = jsonFields(json, key);
    return v.empty() ? 0.0 : v.front();
}

/**
 * VmHWM of the supervisor plus the live workers its HEALTH reply
 * lists; @p processes gets how many processes were summed.
 */
double
daemonRssMb(const Daemon &d, const std::string &health, int *processes)
{
    double mb = peakRssMb(d.pid());
    *processes = 1;
    for (double pid : jsonFields(health, "pid")) {
        if (pid > 0) {
            mb += peakRssMb(static_cast<int>(pid));
            ++*processes;
        }
    }
    return mb;
}

/** Outcome counts of one phase. */
struct Tally
{
    size_t n = 0, ok = 0, failed = 0, wrong = 0, inexact = 0, error = 0;
    size_t refused = 0, shed = 0, exact_ok = 0, pred_ok = 0, good = 0;
};

Tally
tally(const Phase &ph)
{
    Tally t;
    t.n = ph.log.size();
    for (size_t i = 0; i < t.n; ++i) {
        const Outcome o = ph.outcome[i];
        t.ok += o == Outcome::Ok;
        t.failed += isFailure(o);
        t.wrong += o == Outcome::Wrong;
        t.inexact += o == Outcome::Inexact;
        t.error += o == Outcome::Error;
        t.refused += o == Outcome::Refused;
        t.shed += o == Outcome::Shed;
        if (ph.status[i] == static_cast<int>(WireStatus::Ok)) {
            t.exact_ok += ph.level[i] == 0;
            t.pred_ok += ph.level[i] == 1;
        }
        if (o == Outcome::Ok && ph.log.received_ns[i] >= 0
            && ph.log.latencyMs(i) <= kLimitMs) {
            ++t.good;
        }
    }
    return t;
}

} // namespace

Result
runServe(const Options &opt)
{
    Result r;
    fingerprint(r, opt);
    r.note("rate_rps", kRateRps);
    r.note("limit_ms", kLimitMs);
    r.note("daemon_workers", kDaemonWorkers);
    r.note("daemon_threads_per_worker", 1);

    std::unique_ptr<Refs> refs_owner = buildRefs(opt);
    Refs &refs = *refs_owner;

    // Set-up: spawn to first Ok, several times; the last daemon stays.
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    std::optional<ServeClient> client;
    for (int s = 0; s < opt.setups; ++s) {
        client.reset();
        daemon.reset();
        refs.time(1);
        double boot = 0;
        daemon = startDaemon(opt, refs, false, client, &boot);
        setup_s.push_back(boot);
    }
    warmUp(*client, refs, opt);

    // Phases share one schedule seed, so traced, untraced and
    // in-process phases see the same arrivals.
    const uint64_t sched_seed = opt.seed * 7919u + 1;
    const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    std::unique_ptr<Phase> plain =
        openLoop(*client, refs, sched_seed, phase_s, 1u << 24, false);
    std::unique_ptr<Phase> traced;
    std::vector<double> rpc_ms;
    if (opt.trace) {
        traced = openLoop(*client, refs, sched_seed, phase_s,
                          2u << 24, true);
        for (int i = 0; i < 50; ++i) {
            const int64_t a = nowNs();
            if (!client->statsJson().ok())
                throw std::runtime_error("STATS failed");
            rpc_ms.push_back(msBetween(a, nowNs()));
        }
    }
    auto stats = client->statsJson();
    auto health = client->healthJson();
    if (!stats.ok() || !health.ok())
        throw std::runtime_error("STATS/HEALTH failed");
    int rss_processes = 0;
    const double rss_mb =
        daemonRssMb(*daemon, health.value(), &rss_processes);
    r.note("rss_processes", rss_processes);
    client.reset();
    daemon->stop();
    daemon.reset();
    refs.time(kRefRepeats);

    const Phase &main = traced ? *traced : *plain;
    const Tally t = tally(*plain);
    const std::vector<double> lat = servedLatencies(*plain);

    r.attempted = t.n;
    r.failed = t.failed;
    // Wrong and Error outcomes mean the program answered something
    // other than what it computes at the reported level, an exact
    // answer of a non-negative input differed from dense, or it failed
    // untyped; Inexact ones are the signed-input exactness defect on
    // centred inputs, counted as failed and in ok_share (README
    // "Correctness gate").
    r.correct = t.wrong == 0 && t.error == 0 && t.n > 0;
    r.note("requests", static_cast<double>(t.n));
    r.note("wrong", static_cast<double>(t.wrong));
    r.note("inexact", static_cast<double>(t.inexact));
    r.note("errors", static_cast<double>(t.error));
    r.note("refused", static_cast<double>(t.refused));
    r.note("shed", static_cast<double>(t.shed));
    r.note("exact_ok", static_cast<double>(t.exact_ok));
    r.note("pred_ok", static_cast<double>(t.pred_ok));
    size_t kept = 0, windows = 0;
    const std::vector<double> quiet = quietLatencies(*plain, &kept, &windows);
    const Pct p99 = percentile(quiet, 99);
    r.note("lat_samples", static_cast<double>(p99.n));
    r.note("lat_p99_percentile_used", p99.percentile);
    r.note("steal_windows_kept", static_cast<double>(kept));
    r.note("steal_windows", static_cast<double>(windows));
    r.note("lat_p50_all_ms", percentile(lat, 50).value);
    r.note("lat_p99_all_ms", percentile(lat, 99).value);

    if (!opt.trace) {
        r.metric("setup_s", median(setup_s), "s");
        r.metric("peak_rss_mb", rss_mb, "MB");
        r.metric("ok_share", static_cast<double>(t.ok) / t.n, "share");
        r.metric("lat_p50_ms", percentile(quiet, 50).value, "ms");
        r.metric("lat_p99_ms", p99.value, "ms");
        r.metric("goodput_rps", t.good / phase_s, "1/s");
        size_t match = 0;
        for (size_t i = 0; i < refs.pool.images.size(); ++i) {
            const size_t n = refs.out[kDense][i].size();
            match += top1(refs.out[kPred][i].data(), n)
                == top1(refs.out[kDense][i].data(), n);
        }
        r.metric("pred_top1_match",
                 static_cast<double>(match) / refs.pool.images.size(),
                 "share");
        for (int mode = 0; mode < kModes; ++mode) {
            double sum_ms = 0;
            for (size_t i = 0; i < refs.pool.images.size(); ++i)
                sum_ms += refs.bestMs(mode, i);
            r.metric(std::string(kModeKey[mode]) + "_img_s",
                     refs.pool.images.size() / (sum_ms / 1e3), "img/s");
        }
        return r;
    }

    // Per-layer metrics, from the traced phase.
    const Tally tt = tally(main);
    const double n = static_cast<double>(tt.n);
    r.metric("serve.exact_share", tt.exact_ok / n, "share");
    r.metric("serve.pred_share", tt.pred_ok / n, "share");
    r.metric("serve.reject_share", tt.refused / n, "share");
    r.metric("serve.shed_share", tt.shed / n, "share");
    r.metric("serve.batch_mean", jsonField(stats.value(), "batch_size_avg"),
             "req");
    r.metric("serve.retries", jsonField(stats.value(), "retries"), "count");
    r.metric("serve.restarts", jsonField(health.value(), "restarts"),
             "count");
    r.metric("serve.rpc_ms_p50", median(rpc_ms), "ms");
    std::vector<double> compute, overhead;
    for (size_t i = 0; i < main.log.size(); ++i) {
        if (main.status[i] != static_cast<int>(WireStatus::Ok))
            continue;
        const int mode = main.level[i] == 1 ? kPred : kExact;
        const double c = refs.bestMs(mode, main.image[i]);
        compute.push_back(c);
        overhead.push_back(main.log.latencyMs(i) - c);
    }
    r.metric("serve.compute_ms_p50", median(compute), "ms");
    r.metric("serve.overhead_ms_p50", median(overhead), "ms");
    std::vector<double> tlag;
    for (size_t i = 0; i < main.log.size(); ++i)
        if (main.log.sent_ns[i] >= 0)
            tlag.push_back(main.log.lagMs(i));
    r.metric("serve.gen_lag_ms_p99", percentile(tlag, 99).value, "ms");
    const double plain_p50 = median(lat);
    const double traced_p50 = median(servedLatencies(main));
    r.metric("trace.overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0,
             "%");
    {
        std::optional<ServeClient> ic;
        auto inproc = startDaemon(opt, refs, true, ic, nullptr);
        warmUp(*ic, refs, opt);
        auto ph = openLoop(*ic, refs, sched_seed, phase_s, 3u << 24, false);
        ic.reset();
        inproc->stop();
        r.metric("serve.hop_ms", plain_p50 - median(servedLatencies(*ph)),
                 "ms");
    }
    r.metric("setup.params_build_s", refs.params_build_s, "s");
    r.metric("setup.engine_build_ms", refs.engine_build_ms, "ms");
    r.metric("workload.pool_ms", refs.pool_ms, "ms");
    writeSpans(spanPath(opt), main.spans.spans());
    return r;
}

} // namespace perfbench
