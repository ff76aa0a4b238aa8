#include "serve/server.hh"

#include <cstring>

#include "serve/infer.hh"
#include "serve/timebase.hh"
#include "util/fault.hh"

namespace snapea::serve {

namespace {

/** Poll granularity of the accept/reader loops, ms. */
constexpr int kPollMs = 50;

/** Pending exact re-runs the audit queue holds before sampling drops
 *  (the guardrail must never become backpressure on the hot path). */
constexpr size_t kAuditQueueCap = 32;

/** Audit verdicts needed before the window rate is trusted. */
constexpr size_t kAuditMinSamples = 8;

/** Argmax over a float reply body (the top-1 class of a reply). */
size_t
top1OfBody(std::string_view body)
{
    const auto *vals = reinterpret_cast<const float *>(body.data());
    const size_t n = body.size() / sizeof(float);
    size_t best = 0;
    for (size_t i = 1; i < n; ++i) {
        if (vals[i] > vals[best])
            best = i;
    }
    return best;
}

/**
 * Whether every float32 of an Infer body is finite.  Reads the bit
 * patterns (exponent all ones = NaN or +-Inf), so the body needs no
 * float alignment.
 */
bool
allFinite(std::string_view body)
{
    constexpr uint32_t kExpMask = 0x7f800000u;
    for (size_t off = 0; off + sizeof(uint32_t) <= body.size();
         off += sizeof(uint32_t)) {
        uint32_t bits;
        std::memcpy(&bits, body.data() + off, sizeof(bits));
        if ((bits & kExpMask) == kExpMask)
            return false;
    }
    return true;
}

} // namespace

Server::Server(const ServerConfig &cfg)
    : cfg_(cfg), queue_(cfg.queue_capacity),
      ladder_(LadderConfig::forCapacity(cfg.queue_capacity))
{
}

StatusOr<std::unique_ptr<Server>>
Server::start(const ServerConfig &cfg)
{
    if (cfg.queue_capacity < 4) {
        return statusf(StatusCode::InvalidArgument,
                       "queue capacity %zu below the minimum of 4",
                       cfg.queue_capacity);
    }
    if (cfg.batch_max < 1 || cfg.workers < 1
        || cfg.retry_attempts < 1 || cfg.retry_backoff_ms < 0) {
        return Status(StatusCode::InvalidArgument,
                      "batch size, workers, and retries must be "
                      "positive (backoff non-negative)");
    }
    if (cfg.audit_rate < 0 || cfg.audit_budget < 0.0
        || cfg.audit_budget > 1.0 || cfg.audit_cooldown_ms < 1) {
        return Status(StatusCode::InvalidArgument,
                      "audit rate must be >= 0, budget in [0, 1], "
                      "cooldown positive");
    }

    auto server = std::unique_ptr<Server>(new Server(cfg));
    if (!server->ladder_.config().valid()) {
        return statusf(StatusCode::InvalidArgument,
                       "no valid hysteresis bands for capacity %zu",
                       cfg.queue_capacity);
    }

    StatusOr<std::unique_ptr<ParamsCache>> cache =
        ParamsCache::build(cfg.model);
    if (!cache.ok())
        return cache.status();
    server->cache_ = std::move(cache).value();

    if (!cfg.lock_path.empty()) {
        StatusOr<FileLock> lock = FileLock::tryAcquire(cfg.lock_path);
        if (!lock.ok()) {
            if (lock.status().code() == StatusCode::Unavailable) {
                return statusf(StatusCode::Unavailable,
                               "another daemon holds %s",
                               cfg.lock_path.c_str());
            }
            return lock.status();
        }
        server->lock_.emplace(std::move(lock).value());
    }

    StatusOr<Fd> listen_fd = listenTcp(cfg.port);
    if (!listen_fd.ok())
        return listen_fd.status();
    server->listen_ = std::move(listen_fd).value();
    StatusOr<uint16_t> port = boundPort(server->listen_);
    if (!port.ok())
        return port.status();
    server->port_ = port.value();

    if (!cfg.worker_exe.empty()) {
        // Crash-isolated mode: a supervised pool of worker processes,
        // one slot per worker thread.  Workers rebuild the same
        // deterministic model from flags (same seed, same plans =>
        // bitwise-identical replies across processes).
        WorkerPoolConfig pcfg;
        pcfg.exe = cfg.worker_exe;
        pcfg.workers = cfg.workers;
        pcfg.restart_backoff_ms = cfg.restart_backoff_ms;
        pcfg.restart_backoff_cap_ms = cfg.restart_backoff_cap_ms;
        pcfg.storm_restarts = cfg.storm_restarts;
        pcfg.storm_window_ms = cfg.storm_window_ms;
        char num[64];
        pcfg.worker_args = {"--model", cfg.model.model};
        auto addArg = [&pcfg, &num](const char *flag,
                                    const char *fmt, auto value) {
            std::snprintf(num, sizeof(num), fmt, value);
            pcfg.worker_args.push_back(flag);
            pcfg.worker_args.push_back(num);
        };
        addArg("--input", "%d", cfg.model.input_px);
        addArg("--mu", "%.9g", static_cast<double>(cfg.model.mu));
        addArg("--groups", "%d", cfg.model.spec_groups);
        addArg("--seed", "%u", cfg.model.seed);
        addArg("--retries", "%d", cfg.retry_attempts);
        addArg("--backoff-ms", "%d", cfg.retry_backoff_ms);
        pcfg.worker_args.insert(pcfg.worker_args.end(),
                                cfg.worker_extra_args.begin(),
                                cfg.worker_extra_args.end());
        StatusOr<std::unique_ptr<WorkerPool>> pool =
            WorkerPool::start(pcfg);
        if (!pool.ok())
            return pool.status();
        server->pool_ = std::move(pool).value();
    }

    int ready_target = cfg.workers;
    if (cfg.audit_rate > 0) {
        server->audit_queue_ =
            std::make_unique<BoundedQueue<AuditJob>>(kAuditQueueCap);
        server->audit_thread_ =
            std::thread(&Server::auditLoop, server.get());
        ++ready_target;
    }

    for (int i = 0; i < cfg.workers; ++i)
        server->workers_.emplace_back(&Server::workerLoop,
                                      server.get(),
                                      static_cast<size_t>(i));
    {
        // Engine construction happens on the worker and audit
        // threads; hold start() until it is done everywhere so
        // callers arming fault injection "after boot" cannot race a
        // half-built engine.
        std::unique_lock lk(server->ready_mu_);
        server->ready_cv_.wait(lk, [&] {
            return server->workers_ready_ == ready_target;
        });
    }
    server->accept_thread_ =
        std::thread(&Server::acceptLoop, server.get());
    return server;
}

Server::~Server()
{
    drainAndJoin();
}

void
Server::drainAndJoin()
{
    if (drained_.exchange(true))
        return;

    stop_accept_.store(true);
    if (accept_thread_.joinable())
        accept_thread_.join();

    // Stop consuming frames.  Shutting down each connection's read
    // side pops readers out of partial-frame reads without touching
    // the write side, so replies still drain.
    stop_read_.store(true);
    {
        std::lock_guard lock(readers_mu_);
        for (const auto &weak : conns_) {
            if (auto conn = weak.lock())
                shutdownRead(conn->fd.get());
        }
    }
    std::vector<std::thread> readers;
    {
        std::lock_guard lock(readers_mu_);
        readers.swap(readers_);
    }
    for (std::thread &t : readers)
        t.join();

    // Everything admitted before the close is completed by the
    // workers; popBatch() returns 0 only once the backlog is gone.
    queue_.close();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();

    // The audit queue drains the same way: every sampled reply is
    // still verified before the thread exits.
    if (audit_queue_) {
        audit_queue_->close();
        if (audit_thread_.joinable())
            audit_thread_.join();
    }

    // No execute() can be in flight once the worker threads are
    // joined, so the pool can close the command streams (workers
    // drain out on the EOF) and reap.
    if (pool_)
        pool_->shutdown();

    lock_.reset();
}

std::string
Server::statsJson() const
{
    std::string json = stats_.toJson(
        queue_.depth(), queue_.capacity(), ladder_.level(),
        cache_->calib(ServeLevel::Exact),
        cache_->calib(ServeLevel::Predictive),
        audit_veto_.load(std::memory_order_relaxed));
    if (pool_) {
        // Splice the supervision snapshot into the stats object so
        // one Stats probe tells the whole story.
        const std::string sup =
            ", \"supervisor\": " + pool_->health().toJson();
        json.insert(json.size() - 1, sup);
    }
    return json;
}

std::string
Server::healthJson() const
{
    if (!pool_) {
        // In-process mode has no supervision tree: trivially ready.
        return "{\"state\": \"ready\", \"breaker_open\": false, "
               "\"restarts\": 0, \"redispatches\": 0, "
               "\"worker_lost\": 0, \"workers\": []}";
    }
    return pool_->health().toJson();
}

void
Server::acceptLoop()
{
    while (!stop_accept_.load()) {
        StatusOr<Fd> fd = acceptWithTimeout(listen_, kPollMs);
        if (!fd.ok()) {
            if (fd.status().code() == StatusCode::Unavailable)
                continue; // idle tick
            break;        // listening socket is gone; drain follows
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = std::move(fd).value();
        std::lock_guard lock(readers_mu_);
        conns_.push_back(conn);
        readers_.emplace_back(&Server::readerLoop, this, conn);
    }
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string body;
    while (!stop_read_.load()) {
        StatusOr<bool> readable =
            waitReadable(conn->fd.get(), kPollMs);
        if (!readable.ok())
            break;
        if (!readable.value())
            continue;
        StatusOr<FrameHeader> h = readFrame(conn->fd.get(), body);
        if (!h.ok())
            break; // EOF, truncation, or corrupt framing: done
        switch (h.value().type) {
          case MsgType::Infer:
            admit(conn, h.value(), std::move(body));
            body.clear();
            break;
          case MsgType::Stats:
            sendReply(*conn, MsgType::StatsReply, h.value().req_id,
                      WireStatus::Ok, ladder_.level(), statsJson());
            break;
          case MsgType::Health:
            refreshControlState();
            sendReply(*conn, MsgType::HealthReply, h.value().req_id,
                      WireStatus::Ok, ladder_.level(), healthJson());
            break;
          default:
            // Reply types from a client are a protocol violation.
            return;
        }
    }
}

void
Server::admit(const std::shared_ptr<Connection> &conn,
              const FrameHeader &h, std::string &&body)
{
    // A NaN or Inf input has no meaningful answer at any level; refuse
    // it here, where the in-process and pool modes share admission.
    if (body.size() != cache_->inputElems() * sizeof(float)
        || !allFinite(body)) {
        stats_.recordInvalid();
        sendReply(*conn, MsgType::InferReply, h.req_id,
                  WireStatus::InvalidArgument, ladder_.level(), {});
        return;
    }

    refreshControlState();
    const ServeLevel level = cfg_.ladder_enabled
        ? ladder_.update(queue_.depth())
        : ServeLevel::Exact;
    if (level == ServeLevel::Reject) {
        stats_.recordRejected();
        sendReply(*conn, MsgType::InferReply, h.req_id,
                  WireStatus::Overloaded, level, {});
        return;
    }

    Request req;
    req.conn = conn;
    req.req_id = h.req_id;
    req.body = std::move(body);
    req.admit_ns = nowNs();
    // aux carries the client deadline in ms; the config default
    // applies when the client sent none.
    double deadline_s = h.aux > 0 ? h.aux / 1000.0
                                  : cfg_.default_deadline_s;
    req.token = session_token_.childToken(deadline_s);

    switch (queue_.tryPush(std::move(req))) {
      case Push::Ok:
        stats_.recordAdmitted();
        break;
      case Push::Overloaded:
        stats_.recordRejected();
        sendReply(*conn, MsgType::InferReply, h.req_id,
                  WireStatus::Overloaded, level, {});
        break;
      case Push::Closed:
        sendReply(*conn, MsgType::InferReply, h.req_id,
                  WireStatus::Unavailable, level, {});
        break;
    }
}

void
Server::workerLoop(size_t idx)
{
    // In-process mode: Serving-mode engines carry per-engine scratch,
    // so each worker owns its pair (over the cache's shared plans)
    // and is the only thread ever driving them.  In pool mode the
    // thread is a dispatch proxy for worker process slot idx and
    // builds no engines at all.
    std::unique_ptr<SnapeaEngine> exact, predictive;
    if (!pool_) {
        exact = std::make_unique<SnapeaEngine>(
            cache_->net(), cache_->plan(ServeLevel::Exact));
        exact->setMode(ExecMode::Serving);
        predictive = std::make_unique<SnapeaEngine>(
            cache_->net(), cache_->plan(ServeLevel::Predictive));
        predictive->setMode(ExecMode::Serving);
    }
    {
        std::lock_guard lk(ready_mu_);
        ++workers_ready_;
    }
    ready_cv_.notify_all();

    std::vector<Request> batch;
    while (true) {
        batch.clear();
        if (queue_.popBatch(batch, cfg_.batch_max) == 0)
            return; // closed and drained
        // One level decision and one engine lookup per batch: the
        // (model, mode) amortization.  A ladder at Reject gates
        // admission only; already-admitted work runs at the most
        // degraded compute level.
        refreshControlState();
        ServeLevel level = cfg_.ladder_enabled
            ? ladder_.update(queue_.depth())
            : ServeLevel::Exact;
        if (level == ServeLevel::Reject)
            level = ServeLevel::Predictive;
        // The audit veto applies to the compute level too: the
        // published ladder level already folds it in, but the
        // Reject->Predictive mapping above can reintroduce the level
        // the guardrail just took away.
        if (level == ServeLevel::Predictive
            && ladder_.predictiveVetoed()) {
            level = ServeLevel::Exact;
        }
        stats_.recordBatch(batch.size());
        if (pool_) {
            for (Request &req : batch)
                runRequestPool(req, level, idx);
        } else {
            SnapeaEngine &engine = level == ServeLevel::Predictive
                ? *predictive
                : *exact;
            for (Request &req : batch)
                runRequest(req, level, engine);
        }
    }
}

void
Server::runRequest(Request &req, ServeLevel level,
                   SnapeaEngine &engine)
{
    // The same crash checkpoint the pooled workers hit: in-process
    // mode, an injected crash:worker genuinely kills the daemon —
    // that asymmetry *is* the supervised pool's value proposition.
    faultCrashPoint("worker");

    Status admit_check = req.token->check();
    if (!admit_check.ok()) {
        stats_.recordShed();
        sendReply(*req.conn, MsgType::InferReply, req.req_id,
                  statusCodeToWire(admit_check.code()), level, {});
        return;
    }

    StatusOr<std::string> reply = inferWithRetry(
        cache_->net(), engine, req.body, cfg_.retry_attempts,
        cfg_.retry_backoff_ms, [&] {
            stats_.recordRetry();
            return req.token->check();
        });
    if (!reply.ok()) {
        const StatusCode code = reply.status().code();
        if (code == StatusCode::Unavailable)
            stats_.recordFailed();
        else
            stats_.recordShed(); // cancelled or expired before a retry
        sendReply(*req.conn, MsgType::InferReply, req.req_id,
                  statusCodeToWire(code), level, {});
        return;
    }
    sendReply(*req.conn, MsgType::InferReply, req.req_id,
              WireStatus::Ok, level, reply.value());
    stats_.recordCompleted(level, nowNs() - req.admit_ns);
    if (level == ServeLevel::Predictive)
        maybeAudit(req, reply.value());
}

void
Server::runRequestPool(Request &req, ServeLevel level, size_t idx)
{
    Status admit_check = req.token->check();
    if (!admit_check.ok()) {
        stats_.recordShed();
        sendReply(*req.conn, MsgType::InferReply, req.req_id,
                  statusCodeToWire(admit_check.code()), level, {});
        return;
    }

    StatusOr<PoolReply> reply =
        pool_->execute(idx, level, req.body, req.token.get());
    if (!reply.ok()) {
        const StatusCode code = reply.status().code();
        switch (code) {
          case StatusCode::WorkerLost:
            // Two workers died on this request; its at-most-once
            // re-dispatch budget is spent.
            stats_.recordWorkerLost();
            warn("request %llu: %s",
                 static_cast<unsigned long long>(req.req_id),
                 reply.status().toString().c_str());
            break;
          case StatusCode::Cancelled:
          case StatusCode::DeadlineExceeded:
            stats_.recordShed();
            break;
          default:
            // Breaker open, spawn failure, shutdown: Unavailable.
            stats_.recordFailed();
            break;
        }
        sendReply(*req.conn, MsgType::InferReply, req.req_id,
                  statusCodeToWire(code), level, {});
        return;
    }

    const PoolReply &pr = reply.value();
    const auto reply_level = static_cast<ServeLevel>(pr.level);
    if (pr.status == WireStatus::Ok) {
        sendReply(*req.conn, MsgType::InferReply, req.req_id,
                  WireStatus::Ok, reply_level, pr.body);
        stats_.recordCompleted(reply_level, nowNs() - req.admit_ns);
        if (reply_level == ServeLevel::Predictive)
            maybeAudit(req, pr.body);
        return;
    }
    // A typed failure computed by the worker (retries exhausted,
    // invalid input): relay it as-is.
    if (pr.status == WireStatus::Unavailable)
        stats_.recordFailed();
    sendReply(*req.conn, MsgType::InferReply, req.req_id, pr.status,
              reply_level, {});
}

void
Server::refreshControlState()
{
    if (pool_)
        ladder_.forceReject(pool_->breakerOpen());
    if (audit_veto_.load(std::memory_order_relaxed)
        && nowNs() >= veto_until_ns_.load(std::memory_order_relaxed)) {
        // Cooldown over: give Predictive another chance on a fresh
        // divergence window.
        audit_veto_.store(false, std::memory_order_relaxed);
        ladder_.vetoPredictive(false);
        stats_.resetAuditWindow();
    }
}

void
Server::maybeAudit(const Request &req, std::string_view reply_body)
{
    if (!audit_queue_ || cfg_.audit_rate <= 0)
        return;
    const uint64_t n =
        predictive_ok_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % static_cast<uint64_t>(cfg_.audit_rate) != 0)
        return;
    AuditJob job;
    job.input = req.body; // a copy: the request is about to die
    job.predicted_top1 = top1OfBody(reply_body);
    if (audit_queue_->tryPush(std::move(job)) != Push::Ok)
        stats_.recordAuditDropped(); // sampling drop, never backpressure
}

void
Server::auditLoop()
{
    // The auditor owns its own exact Serving-mode engine; audits run
    // entirely off the request hot path.
    SnapeaEngine exact(cache_->net(), cache_->plan(ServeLevel::Exact));
    exact.setMode(ExecMode::Serving);
    {
        std::lock_guard lk(ready_mu_);
        ++workers_ready_;
    }
    ready_cv_.notify_all();

    AuditJob job;
    while (audit_queue_->pop(job)) {
        Tensor input(cache_->net().inputShape());
        std::memcpy(input.data(), job.input.data(),
                    job.input.size());
        try {
            const Tensor out = cache_->net().forward(input, &exact);
            const std::string_view body(
                reinterpret_cast<const char *>(out.data()),
                out.size() * sizeof(float));
            const bool divergent =
                top1OfBody(body) != job.predicted_top1;
            stats_.recordAuditSample(divergent);
        } catch (...) {
            // A transient fault in the audit re-run proves nothing
            // about accuracy; drop the sample.
            stats_.recordAuditDropped();
            continue;
        }
        const double rate = stats_.auditWindowRate(kAuditMinSamples);
        if (rate >= 0.0 && rate > cfg_.audit_budget
            && !audit_veto_.load(std::memory_order_relaxed)) {
            warn("shadow audit: top-1 divergence %.1f%% over the "
                 "%.1f%% budget; vetoing predictive for %d ms",
                 rate * 100.0, cfg_.audit_budget * 100.0,
                 cfg_.audit_cooldown_ms);
            veto_until_ns_.store(
                nowNs()
                    + static_cast<int64_t>(cfg_.audit_cooldown_ms)
                        * 1000000,
                std::memory_order_relaxed);
            audit_veto_.store(true, std::memory_order_relaxed);
            ladder_.vetoPredictive(true);
        }
    }
}

void
Server::sendReply(Connection &conn, MsgType type, uint64_t req_id,
                  WireStatus ws, ServeLevel level,
                  std::string_view body)
{
    FrameHeader h;
    h.type = type;
    h.req_id = req_id;
    h.aux = packReplyAux(ws, static_cast<int>(level));
    std::lock_guard lock(conn.write_mu);
    Status st = writeFrame(conn.fd.get(), h, body);
    if (!st.ok()) {
        // The peer is gone; unblock its reader so the connection
        // winds down instead of half-living until drain.
        shutdownBoth(conn.fd.get());
    }
}

} // namespace snapea::serve
