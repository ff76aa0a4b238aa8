#include "serve/supervisor.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>

#include "serve/infer.hh"
#include "serve/net.hh"
#include "serve/timebase.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace snapea::serve {

namespace {

/**
 * SIGCHLD self-pipe: the handler writes one byte, the monitor thread
 * polls the read end, so a worker death wakes the monitor immediately
 * instead of on its next fallback tick.  Installed once, process
 * wide; only the supervising daemon builds pools, and reaping is
 * always per-pid, so the handler itself never wait()s.
 */
int g_sigchld_pipe[2] = {-1, -1};

void
sigchldHandler(int)
{
    // Async-signal-safe; a full pipe already means a wakeup is
    // pending, so a dropped byte loses nothing.
    const char b = 1;
    (void)!::write(g_sigchld_pipe[1], &b, 1);
}

int
sigchldWakeupFd()
{
    static const int fd = [] {
        if (::pipe(g_sigchld_pipe) != 0)
            return -1;
        ::fcntl(g_sigchld_pipe[0], F_SETFL, O_NONBLOCK);
        ::fcntl(g_sigchld_pipe[1], F_SETFL, O_NONBLOCK);
        struct sigaction sa = {};
        sa.sa_handler = sigchldHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_NOCLDSTOP;
        ::sigaction(SIGCHLD, &sa, nullptr);
        return g_sigchld_pipe[0];
    }();
    return fd;
}

} // namespace

const char *
poolHealthName(PoolHealth health)
{
    switch (health) {
      case PoolHealth::Ready: return "ready";
      case PoolHealth::Degraded: return "degraded";
      case PoolHealth::Unhealthy: return "unhealthy";
    }
    return "?";
}

std::string
HealthSnapshot::toJson() const
{
    std::string out;
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "{\"state\": \"%s\", \"breaker_open\": %s, "
        "\"restarts\": %llu, \"redispatches\": %llu, "
        "\"worker_lost\": %llu, \"workers\": [",
        poolHealthName(state), breaker_open ? "true" : "false",
        static_cast<unsigned long long>(restarts),
        static_cast<unsigned long long>(redispatches),
        static_cast<unsigned long long>(worker_lost));
    out = buf;
    for (size_t i = 0; i < workers.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "%s{\"pid\": %d, \"alive\": %s, "
                      "\"restarts\": %llu}",
                      i ? ", " : "", static_cast<int>(workers[i].pid),
                      workers[i].alive ? "true" : "false",
                      static_cast<unsigned long long>(
                          workers[i].restarts));
        out += buf;
    }
    out += "]}";
    return out;
}

WorkerPool::WorkerPool(const WorkerPoolConfig &cfg) : cfg_(cfg) {}

WorkerPool::~WorkerPool()
{
    shutdown();
}

StatusOr<std::unique_ptr<WorkerPool>>
WorkerPool::start(const WorkerPoolConfig &cfg)
{
    if (cfg.exe.empty()) {
        return Status(StatusCode::InvalidArgument,
                      "worker pool needs the worker executable path");
    }
    if (cfg.workers < 1 || cfg.restart_backoff_ms < 1
        || cfg.restart_backoff_cap_ms < cfg.restart_backoff_ms
        || cfg.storm_restarts < 1 || cfg.storm_window_ms < 1
        || cfg.spawn_timeout_ms < 1) {
        return Status(StatusCode::InvalidArgument,
                      "worker pool knobs must be positive (cap >= "
                      "base backoff)");
    }

    auto pool = std::unique_ptr<WorkerPool>(new WorkerPool(cfg));
    std::vector<SpawnedWorker> booted;
    for (int i = 0; i < cfg.workers; ++i) {
        StatusOr<SpawnedWorker> sw = pool->spawnWorker();
        if (!sw.ok()) {
            // A daemon that cannot field a full pool should not take
            // traffic: undo the partial boot and fail start.
            for (SpawnedWorker &w : booted) {
                w.fd.reset();
                int ws = 0;
                // Best-effort undo; the spawn failure is the error.
                // snapea-lint: allow(SL002)
                (void)reapWithDeadline(w.pid, &ws, 5000);
            }
            return sw.status();
        }
        booted.push_back(std::move(sw).value());
    }
    {
        std::lock_guard lock(pool->mu_);
        pool->slots_.resize(booted.size());
        for (size_t i = 0; i < booted.size(); ++i) {
            pool->slots_[i].fd = std::move(booted[i].fd);
            pool->slots_[i].pid = booted[i].pid;
            pool->slots_[i].alive = true;
        }
    }
    sigchldWakeupFd(); // install the handler before deaths can race
    pool->monitor_ = std::thread(&WorkerPool::monitorLoop,
                                 pool.get());
    return pool;
}

StatusOr<WorkerPool::SpawnedWorker>
WorkerPool::spawnWorker()
{
    StatusOr<SocketPair> sp = makeSocketPair();
    if (!sp.ok())
        return sp.status();

    SpawnSpec spec;
    spec.exe = cfg_.exe;
    spec.args = {"--worker-fd", std::to_string(kWorkerCommandFd)};
    spec.args.insert(spec.args.end(), cfg_.worker_args.begin(),
                     cfg_.worker_args.end());
    spec.child_fd = sp.value().child.get();
    StatusOr<pid_t> pid = spawnProcess(spec);
    if (!pid.ok())
        return pid.status();
    sp.value().child.reset(); // the child's copy is the only one left
    OwnedFd fd = std::move(sp.value().parent);

    // Handshake: the worker builds its whole model before answering,
    // so poll generously, but catch an early death (bad flags, exec
    // failure, injected boot crash) by reaping between polls.
    int waited_ms = 0;
    for (;;) {
        StatusOr<bool> readable = waitReadable(fd.get(), 100);
        if (!readable.ok()) {
            int ws = 0;
            // Best-effort cleanup; the poll failure is the error.
            // snapea-lint: allow(SL002)
            (void)reapWithDeadline(pid.value(), &ws, 2000);
            return readable.status();
        }
        if (readable.value())
            break;
        int ws = 0;
        StatusOr<bool> dead = reapProcess(pid.value(), &ws);
        if (dead.ok() && dead.value()) {
            return statusf(StatusCode::Unavailable,
                           "worker %d died during boot (%s)",
                           static_cast<int>(pid.value()),
                           describeWaitStatus(ws).c_str());
        }
        waited_ms += 100;
        if (waited_ms >= cfg_.spawn_timeout_ms) {
            int kws = 0;
            // Best-effort kill+reap; the timeout is the error.
            // snapea-lint: allow(SL002)
            (void)reapWithDeadline(pid.value(), &kws, 0);
            return statusf(StatusCode::Unavailable,
                           "worker boot timed out after %d ms",
                           cfg_.spawn_timeout_ms);
        }
    }
    std::string body;
    StatusOr<FrameHeader> h = readFrame(fd.get(), body);
    if (!h.ok() || h.value().type != MsgType::WorkerReady) {
        int ws = 0;
        fd.reset();
        // Best-effort cleanup; the bad handshake is the error.
        // snapea-lint: allow(SL002)
        (void)reapWithDeadline(pid.value(), &ws, 2000);
        return statusf(StatusCode::Unavailable,
                       "worker boot handshake failed (%s)",
                       h.ok() ? "unexpected frame type"
                              : h.status().toString().c_str());
    }
    SpawnedWorker out;
    out.fd = std::move(fd);
    out.pid = pid.value();
    return out;
}

bool
WorkerPool::breakerOpenLocked(int64_t now_ns)
{
    const int64_t window_ns =
        static_cast<int64_t>(cfg_.storm_window_ms) * 1000000;
    while (!breaker_events_.empty() // snapea-lint: allow(SL013)
           && now_ns - breaker_events_.front() > window_ns) // snapea-lint: allow(SL013)
        breaker_events_.pop_front(); // snapea-lint: allow(SL013)
    const bool open = breaker_events_.size() // snapea-lint: allow(SL013)
        > static_cast<size_t>(cfg_.storm_restarts);
    breaker_open_.store(open, std::memory_order_relaxed);
    return open;
}

void
WorkerPool::recordBreakerEventLocked(int64_t now_ns)
{
    breaker_events_.push_back(now_ns); // snapea-lint: allow(SL013)
    // Called for its window-pruning side effect; the verdict itself
    // is re-read by every interested caller.
    // snapea-lint: allow(SL002)
    (void)breakerOpenLocked(now_ns);
}

void
WorkerPool::bumpBackoffLocked(Slot &slot, int64_t now_ns)
{
    slot.backoff_ms = slot.backoff_ms == 0
        ? cfg_.restart_backoff_ms
        : std::min(slot.backoff_ms * 2, cfg_.restart_backoff_cap_ms);
    slot.next_spawn_ns =
        now_ns + static_cast<int64_t>(slot.backoff_ms) * 1000000;
}

bool
WorkerPool::breakerOpen()
{
    std::lock_guard lock(mu_);
    return breakerOpenLocked(nowNs());
}

Status
WorkerPool::ensureWorker(size_t idx, const CancelToken *token)
{
    std::unique_lock lk(mu_);
    for (;;) {
        if (stop_.load(std::memory_order_relaxed)) {
            return Status(StatusCode::Unavailable,
                          "worker pool is shutting down");
        }
        Slot &slot = slots_[idx];
        if (slot.alive && !slot.spawning) {
            slot.busy = true;
            return Status();
        }
        if (token && token->cancelled())
            return token->check();
        if (slot.spawning) {
            // The monitor is booting this slot; wait for the verdict.
            cv_.wait_for(lk, std::chrono::milliseconds(20));
            continue;
        }
        if (breakerOpenLocked(nowNs())) {
            return Status(StatusCode::Unavailable,
                          "crash-storm circuit breaker open");
        }
        if (nowNs() < slot.next_spawn_ns) {
            // Respawn backoff: wait in small unlocked steps so a
            // tripping token or an opening breaker is seen promptly.
            lk.unlock();
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            lk.lock();
            continue;
        }
        slot.spawning = true;
        lk.unlock();
        StatusOr<SpawnedWorker> sw = spawnWorker();
        lk.lock();
        Slot &again = slots_[idx];
        again.spawning = false;
        if (!sw.ok()) {
            recordBreakerEventLocked(nowNs());
            bumpBackoffLocked(again, nowNs());
            cv_.notify_all();
            return statusf(StatusCode::Unavailable,
                           "worker respawn failed: %s",
                           sw.status().toString().c_str());
        }
        again.fd = std::move(sw.value().fd);
        again.pid = sw.value().pid;
        again.alive = true;
        again.restarts += 1;
        cv_.notify_all();
        // Loop around: the next iteration claims the fresh worker.
    }
}

StatusOr<PoolReply>
WorkerPool::dispatchOnce(size_t idx, ServeLevel level,
                         std::string_view input, bool *lost)
{
    *lost = false;
    int fd = -1;
    {
        std::lock_guard lock(mu_);
        fd = slots_[idx].fd.get();
    }

    FrameHeader h;
    h.type = MsgType::Infer;
    h.req_id = req_counter_.fetch_add(1, std::memory_order_relaxed)
        + 1;
    // On the command stream, aux carries the serve level (deadlines
    // are enforced supervisor-side; see runWorkerMain).
    h.aux = static_cast<uint32_t>(level);
    if (Status st = writeFrame(fd, h, input); !st.ok()) {
        *lost = true;
        retireWorker(idx);
        return st;
    }
    std::string body;
    StatusOr<FrameHeader> rh = readFrame(fd, body);
    if (!rh.ok()) {
        // EOF or truncation mid-reply: the worker died under us.
        *lost = true;
        retireWorker(idx);
        return rh.status();
    }
    if (rh.value().type != MsgType::InferReply
        || rh.value().req_id != h.req_id) {
        // Desync on a byte stream is unrecoverable; treat the worker
        // as dead (and make it so — its stream is useless now).
        *lost = true;
        retireWorker(idx, /*kill_first=*/true);
        return Status(StatusCode::IoError,
                      "worker reply desynchronized");
    }

    {
        std::lock_guard lock(mu_);
        Slot &slot = slots_[idx];
        slot.busy = false;
        slot.backoff_ms = 0; // a served request proves the worker
        slot.next_spawn_ns = 0;
    }
    cv_.notify_all();

    PoolReply reply;
    reply.status = replyStatus(rh.value().aux);
    reply.level = replyLevel(rh.value().aux);
    reply.body = std::move(body);
    return reply;
}

void
WorkerPool::retireWorker(size_t idx, bool kill_first)
{
    pid_t pid = -1;
    {
        std::lock_guard lock(mu_);
        Slot &slot = slots_[idx];
        pid = slot.pid;
        slot.fd.reset();
        slot.alive = false;
        slot.pid = -1;
        slot.busy = false;
        recordBreakerEventLocked(nowNs());
        bumpBackoffLocked(slot, nowNs());
    }
    cv_.notify_all();
    if (pid > 0) {
        if (kill_first)
            // A vanished pid is fine: the goal is a dead worker.
            // snapea-lint: allow(SL002)
            (void)signalProcess(pid, SIGKILL);
        int ws = 0;
        // An EOF means the worker is dead or dying; the deadline is
        // insurance, escalating to SIGKILL on a wedge.
        // snapea-lint: allow(SL002)
        (void)reapWithDeadline(pid, &ws, 5000);
    }
}

StatusOr<PoolReply>
WorkerPool::execute(size_t idx, ServeLevel level,
                    std::string_view input, const CancelToken *token)
{
    if (idx >= size()) {
        return statusf(StatusCode::InvalidArgument,
                       "no worker slot %zu", idx);
    }
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (Status st = ensureWorker(idx, token); !st.ok())
            return st;
        bool lost = false;
        StatusOr<PoolReply> reply =
            dispatchOnce(idx, level, input, &lost);
        if (!lost)
            return reply;
        if (attempt == 0)
            redispatches_.fetch_add(1, std::memory_order_relaxed);
    }
    // Two workers died on the same request: at-most-once re-dispatch
    // is spent, and the request is the likely poison.
    worker_lost_.fetch_add(1, std::memory_order_relaxed);
    return statusf(StatusCode::WorkerLost,
                   "worker died twice handling one request "
                   "(slot %zu)", idx);
}

HealthSnapshot
WorkerPool::health()
{
    HealthSnapshot snap;
    std::lock_guard lock(mu_);
    snap.breaker_open = breakerOpenLocked(nowNs());
    bool any_down = false;
    for (const Slot &slot : slots_) {
        WorkerHealth w;
        w.pid = slot.alive ? slot.pid : -1;
        w.alive = slot.alive;
        w.restarts = slot.restarts;
        snap.restarts += slot.restarts;
        any_down |= !slot.alive;
        snap.workers.push_back(w);
    }
    snap.redispatches =
        redispatches_.load(std::memory_order_relaxed);
    snap.worker_lost = worker_lost_.load(std::memory_order_relaxed);
    snap.state = snap.breaker_open ? PoolHealth::Unhealthy
        : any_down                 ? PoolHealth::Degraded
                                   : PoolHealth::Ready;
    return snap;
}

void
WorkerPool::monitorLoop()
{
    const int wake_fd = sigchldWakeupFd();
    while (!stop_.load(std::memory_order_relaxed)) {
        if (wake_fd >= 0) {
            StatusOr<bool> readable = waitReadable(wake_fd, 200);
            if (readable.ok() && readable.value()) {
                char buf[64];
                while (::read(wake_fd, buf, sizeof(buf)) > 0) {
                }
            }
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
        if (stop_.load(std::memory_order_relaxed))
            break;

        // Pass 1 (locked): reap idle deaths, pick respawn candidates.
        std::vector<size_t> respawn;
        {
            std::lock_guard lock(mu_);
            const int64_t now = nowNs();
            for (size_t i = 0; i < slots_.size(); ++i) {
                Slot &slot = slots_[i];
                if (slot.busy || slot.spawning)
                    continue; // a dispatch or spawn owns the slot
                if (slot.alive) {
                    int ws = 0;
                    StatusOr<bool> dead =
                        reapProcess(slot.pid, &ws);
                    if (dead.ok() && dead.value()) {
                        // Died idle (external kill, delayed crash).
                        warn("worker %d died idle (%s)",
                             static_cast<int>(slot.pid),
                             describeWaitStatus(ws).c_str());
                        slot.fd.reset();
                        slot.alive = false;
                        slot.pid = -1;
                        recordBreakerEventLocked(now);
                        bumpBackoffLocked(slot, now);
                    }
                }
                if (!slot.alive && now >= slot.next_spawn_ns
                    && !breakerOpenLocked(now)) {
                    respawn.push_back(i);
                }
            }
        }

        // Pass 2 (spawns off-lock): bring dead slots back so HEALTH
        // recovers to ready without waiting for traffic.
        for (size_t i : respawn) {
            if (stop_.load(std::memory_order_relaxed))
                break;
            bool claimed = false;
            {
                std::lock_guard lock(mu_);
                Slot &slot = slots_[i];
                if (!slot.busy && !slot.spawning && !slot.alive) {
                    slot.spawning = true;
                    claimed = true;
                }
            }
            if (!claimed)
                continue;
            StatusOr<SpawnedWorker> sw = spawnWorker();
            {
                std::lock_guard lock(mu_);
                Slot &slot = slots_[i];
                slot.spawning = false;
                if (sw.ok()) {
                    slot.fd = std::move(sw.value().fd);
                    slot.pid = sw.value().pid;
                    slot.alive = true;
                    slot.restarts += 1;
                } else {
                    recordBreakerEventLocked(nowNs());
                    bumpBackoffLocked(slot, nowNs());
                }
            }
            cv_.notify_all();
        }
    }
}

void
WorkerPool::shutdown()
{
    if (shut_down_.exchange(true))
        return;
    stop_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
    if (monitor_.joinable())
        monitor_.join();
    std::vector<pid_t> pids;
    {
        std::lock_guard lock(mu_);
        for (Slot &slot : slots_) {
            if (slot.alive && slot.pid > 0)
                pids.push_back(slot.pid);
            slot.fd.reset(); // workers drain and exit 0 on the EOF
            slot.alive = false;
            slot.pid = -1;
        }
    }
    for (pid_t pid : pids) {
        int ws = 0;
        // Shutdown reap: a worker that already vanished is success.
        // snapea-lint: allow(SL002)
        (void)reapWithDeadline(pid, &ws, 5000);
    }
}

int
runWorkerMain(const WorkerMainConfig &cfg)
{
    // Ctrl-C / service stop signals the daemon's whole process group;
    // workers ignore them and drain on the EOF the supervisor's
    // shutdown produces instead, so in-flight replies still go out.
    std::signal(SIGINT, SIG_IGN);
    std::signal(SIGTERM, SIG_IGN);

    StatusOr<std::unique_ptr<ParamsCache>> cache =
        ParamsCache::build(cfg.model, /*calibrate_levels=*/false);
    if (!cache.ok()) {
        warn("worker: model build failed: %s",
             cache.status().toString().c_str());
        return 1;
    }
    SnapeaEngine exact(cache.value()->net(),
                       cache.value()->plan(ServeLevel::Exact));
    exact.setMode(ExecMode::Serving);
    SnapeaEngine predictive(
        cache.value()->net(),
        cache.value()->plan(ServeLevel::Predictive));
    predictive.setMode(ExecMode::Serving);

    // Arm injected faults only after the engines exist, mirroring the
    // daemon's post-boot --fault arming: crashes and compute faults
    // belong to the request path, never to boot.
    if (!cfg.fault_spec.empty()) {
        if (Status st = setFaultSpec(cfg.fault_spec); !st.ok()) {
            warn("worker: bad fault spec: %s",
                 st.toString().c_str());
            return 1;
        }
    }

    FrameHeader ready;
    ready.type = MsgType::WorkerReady;
    if (!writeFrame(cfg.fd, ready, {}).ok())
        return 1;

    const size_t input_bytes =
        cache.value()->inputElems() * sizeof(float);
    std::string body;
    for (;;) {
        StatusOr<FrameHeader> h = readFrame(cfg.fd, body);
        if (!h.ok()) {
            // Clean EOF is the drain signal; anything else is a
            // supervisor-side failure worth a loud exit.
            return h.status().code() == StatusCode::NotFound ? 0 : 1;
        }
        if (h.value().type != MsgType::Infer)
            return 1; // desync; die loudly, the supervisor restarts
        faultCrashPoint("worker");

        const uint64_t req_id = h.value().req_id;
        const ServeLevel level = h.value().aux
                == static_cast<uint32_t>(ServeLevel::Predictive)
            ? ServeLevel::Predictive
            : ServeLevel::Exact;
        FrameHeader reply;
        reply.type = MsgType::InferReply;
        reply.req_id = req_id;

        if (body.size() != input_bytes) {
            reply.aux = packReplyAux(WireStatus::InvalidArgument,
                                     static_cast<int>(level));
            if (!writeFrame(cfg.fd, reply, {}).ok())
                return 1;
            continue;
        }

        // Retries stay inside the worker (the contract the
        // in-process workers share), so the supervisor only ever
        // sees terminal outcomes.
        StatusOr<std::string> out = inferWithRetry(
            cache.value()->net(),
            level == ServeLevel::Predictive ? predictive : exact, body,
            cfg.retry_attempts, cfg.retry_backoff_ms);
        reply.aux = packReplyAux(
            out.ok() ? WireStatus::Ok : WireStatus::Unavailable,
            static_cast<int>(level));
        const std::string_view reply_body =
            out.ok() ? std::string_view(out.value()) : std::string_view();
        if (!writeFrame(cfg.fd, reply, reply_body).ok())
            return 1;
    }
}

} // namespace snapea::serve
