/**
 * @file
 * The snapea_serve stack, unit to chaos:
 *
 *  - units: bounded queue admission/drain semantics, degradation
 *    ladder hysteresis, wire-protocol framing and rejection of
 *    corrupt frames;
 *  - in-process integration: a real Server over loopback — replies
 *    bitwise-identical to cold single-request runs at the same
 *    degradation level, overload producing Overloaded (never silent
 *    queue growth), deadline shedding, the daemon lock, and the
 *    in-process fault brownout/recovery path;
 *  - fork/exec chaos against the snapea_serve binary: SIGTERM
 *    mid-flight drains admitted work and releases the lock, injected
 *    compute faults are retried transparently (same bits as a clean
 *    run), watchdog-cut stalls surface as well-formed degraded
 *    replies, and io faults at boot fail clean.  The binary defaults
 *    to the supervised worker-process pool, so these also exercise
 *    the supervisor's dispatch path; worker-side faults are armed
 *    with --worker-fault;
 *  - CrashChaos: the supervision contract itself — workers dying by
 *    signal or _exit mid-stream, bitwise-identical re-dispatched
 *    replies, HEALTH transitions, and the poison-request/crash-storm
 *    breaker.  Filtered into its own ctest entry (label `crash`).
 *
 * The whole binary pins one worker thread: fault-injection ordinals
 * stay deterministic and fork() never races a live pool thread.
 * Children always leave via _exit so gtest state never unwinds twice.
 */

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.hh"
#include "serve/ladder.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "util/fault.hh"
#include "util/io.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

using namespace snapea;
using namespace snapea::serve;

namespace {

namespace fs = std::filesystem;

class SerialEnv : public testing::Environment
{
  public:
    void SetUp() override { util::setThreadCount(1); }
};

[[maybe_unused]] const auto *const g_serial_env =
    testing::AddGlobalTestEnvironment(new SerialEnv);

// ---------------------------------------------------------------------
// Units: bounded queue.

TEST(BoundedQueue, RefusesBeyondCapacityAndKeepsOrder)
{
    BoundedQueue<int> q(3);
    EXPECT_EQ(q.tryPush(1), Push::Ok);
    EXPECT_EQ(q.tryPush(2), Push::Ok);
    EXPECT_EQ(q.tryPush(3), Push::Ok);
    EXPECT_EQ(q.tryPush(4), Push::Overloaded);
    EXPECT_EQ(q.depth(), 3u);

    std::vector<int> out;
    EXPECT_EQ(q.popBatch(out, 2), 2u);
    EXPECT_EQ(out, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.tryPush(5), Push::Ok);

    out.clear();
    EXPECT_EQ(q.popBatch(out, 10), 2u);
    EXPECT_EQ(out, (std::vector<int>{3, 5}));
}

TEST(BoundedQueue, CloseRefusesNewButDrainsQueued)
{
    BoundedQueue<int> q(4);
    ASSERT_EQ(q.tryPush(1), Push::Ok);
    ASSERT_EQ(q.tryPush(2), Push::Ok);
    q.close();
    EXPECT_EQ(q.tryPush(3), Push::Closed);
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(q.pop(v)); // closed and drained
}

TEST(BoundedQueue, CloseWakesBlockedConsumer)
{
    BoundedQueue<int> q(4);
    std::thread consumer([&] {
        std::vector<int> out;
        EXPECT_EQ(q.popBatch(out, 4), 0u);
    });
    // The consumer is (about to be) parked in popBatch; close() must
    // wake it with the shutdown answer rather than leave it waiting.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    consumer.join();
}

// ---------------------------------------------------------------------
// Units: degradation ladder.

TEST(Ladder, ForCapacityProducesValidBands)
{
    for (size_t cap : {4u, 5u, 8u, 16u, 64u, 1024u}) {
        const LadderConfig cfg = LadderConfig::forCapacity(cap);
        EXPECT_TRUE(cfg.valid()) << "capacity " << cap;
    }
}

TEST(Ladder, HysteresisDoesNotFlapInsideBands)
{
    const LadderConfig cfg = LadderConfig::forCapacity(64);
    DegradationLadder ladder(cfg);
    EXPECT_EQ(ladder.level(), ServeLevel::Exact);

    // Climbing into the predictive band degrades...
    EXPECT_EQ(ladder.update(cfg.predictive_enter),
              ServeLevel::Predictive);
    // ...and dipping below enter but above exit does NOT recover.
    EXPECT_EQ(ladder.update(cfg.predictive_exit + 1),
              ServeLevel::Predictive);
    EXPECT_EQ(ladder.update(cfg.predictive_exit), ServeLevel::Exact);

    // Past the high-water mark admission closes.
    EXPECT_EQ(ladder.update(cfg.reject_enter), ServeLevel::Reject);
    // Between reject_exit and reject_enter it stays closed.
    EXPECT_EQ(ladder.update(cfg.reject_exit + 1), ServeLevel::Reject);
    // Recovery steps DOWN one level, not straight to Exact.
    EXPECT_EQ(ladder.update(cfg.reject_exit), ServeLevel::Predictive);
    // Only a fully drained queue restores exact service.
    EXPECT_EQ(ladder.update(cfg.predictive_exit), ServeLevel::Exact);
}

TEST(Ladder, ForceRejectOverridesAndReleases)
{
    const LadderConfig cfg = LadderConfig::forCapacity(64);
    DegradationLadder ladder(cfg);
    ASSERT_EQ(ladder.level(), ServeLevel::Exact);

    // The breaker override pins Reject regardless of queue depth...
    ladder.forceReject(true);
    EXPECT_EQ(ladder.level(), ServeLevel::Reject);
    EXPECT_EQ(ladder.update(0), ServeLevel::Reject);

    // ...while the underlying hysteresis state keeps evolving, so
    // releasing the override lands on the depth-appropriate level.
    ladder.update(cfg.predictive_enter);
    ladder.forceReject(false);
    EXPECT_EQ(ladder.level(), ServeLevel::Predictive);
}

TEST(Ladder, PredictiveVetoMapsToExact)
{
    const LadderConfig cfg = LadderConfig::forCapacity(64);
    DegradationLadder ladder(cfg);

    // The audit veto turns would-be Predictive service into Exact...
    ladder.vetoPredictive(true);
    EXPECT_TRUE(ladder.predictiveVetoed());
    EXPECT_EQ(ladder.update(cfg.predictive_enter), ServeLevel::Exact);
    // ...but does not reopen admission past the reject band.
    EXPECT_EQ(ladder.update(cfg.reject_enter), ServeLevel::Reject);

    // Clearing the veto restores the raw ladder level.
    ladder.vetoPredictive(false);
    EXPECT_EQ(ladder.update(cfg.predictive_enter),
              ServeLevel::Predictive);
}

// ---------------------------------------------------------------------
// Units: wire protocol.

TEST(Protocol, FrameRoundtrips)
{
    FrameHeader h;
    h.type = MsgType::InferReply;
    h.req_id = 0x0123456789abcdefULL;
    h.aux = packReplyAux(WireStatus::DeadlineExceeded, 1);
    const std::string body = "four floats worth of bytes";
    const std::string frame = encodeFrame(h, body);
    ASSERT_EQ(frame.size(), kHeaderBytes + body.size());

    StatusOr<FrameHeader> d = decodeHeader(
        reinterpret_cast<const uint8_t *>(frame.data()));
    ASSERT_TRUE(d.ok()) << d.status().toString();
    EXPECT_EQ(d.value().type, MsgType::InferReply);
    EXPECT_EQ(d.value().req_id, h.req_id);
    EXPECT_EQ(replyStatus(d.value().aux),
              WireStatus::DeadlineExceeded);
    EXPECT_EQ(replyLevel(d.value().aux), 1);
    EXPECT_EQ(d.value().body_len, body.size());
    EXPECT_TRUE(validateBody(d.value(), body).ok());
}

TEST(Protocol, RejectsCorruptFrames)
{
    FrameHeader h;
    h.type = MsgType::Infer;
    std::string frame = encodeFrame(h, "payload");
    auto *p = reinterpret_cast<uint8_t *>(frame.data());

    {
        std::string bad = frame;
        bad[0] = 'X';
        StatusOr<FrameHeader> d = decodeHeader(
            reinterpret_cast<const uint8_t *>(bad.data()));
        ASSERT_FALSE(d.ok());
        EXPECT_EQ(d.status().code(), StatusCode::Corrupt);
    }
    {
        std::string bad = frame;
        bad[4] = kProtocolVersion + 1;
        StatusOr<FrameHeader> d = decodeHeader(
            reinterpret_cast<const uint8_t *>(bad.data()));
        ASSERT_FALSE(d.ok());
        EXPECT_EQ(d.status().code(), StatusCode::VersionMismatch);
    }
    {
        std::string bad = frame;
        bad[6] = 1; // reserved byte
        StatusOr<FrameHeader> d = decodeHeader(
            reinterpret_cast<const uint8_t *>(bad.data()));
        ASSERT_FALSE(d.ok());
        EXPECT_EQ(d.status().code(), StatusCode::Corrupt);
    }
    {
        std::string bad = frame;
        bad[5] = 99; // unknown type
        StatusOr<FrameHeader> d = decodeHeader(
            reinterpret_cast<const uint8_t *>(bad.data()));
        ASSERT_FALSE(d.ok());
        EXPECT_EQ(d.status().code(), StatusCode::Corrupt);
    }

    // Oversized body length.
    StatusOr<FrameHeader> ok = decodeHeader(p);
    ASSERT_TRUE(ok.ok());
    {
        std::string bad = frame;
        const uint32_t huge = kMaxBodyBytes + 1;
        std::memcpy(bad.data() + 20, &huge, sizeof(huge));
        StatusOr<FrameHeader> d = decodeHeader(
            reinterpret_cast<const uint8_t *>(bad.data()));
        ASSERT_FALSE(d.ok());
        EXPECT_EQ(d.status().code(), StatusCode::Corrupt);
    }

    // Flipped body bit fails the CRC.
    std::string body = "payload";
    body[0] ^= 0x20;
    Status st = validateBody(ok.value(), body);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::Corrupt);
}

TEST(Protocol, StatusCodesRoundtripTheWire)
{
    for (WireStatus ws :
         {WireStatus::Ok, WireStatus::Overloaded,
          WireStatus::DeadlineExceeded, WireStatus::Cancelled,
          WireStatus::InvalidArgument, WireStatus::Unavailable,
          WireStatus::WorkerLost}) {
        EXPECT_EQ(statusCodeToWire(wireToStatusCode(ws)), ws);
    }
}

// ---------------------------------------------------------------------
// In-process integration.

/**
 * Deterministic request payload.  Activations are non-negative
 * ([0, 1), the image/ReLU domain): SnaPEA's sign-check exactness
 * argument (engine.cc phase 3) relies on negative-weight terms being
 * non-positive, and checked builds assert that per tap — a signed
 * input here would (rightly) trip the invariant.
 */
std::vector<float>
makeInput(uint64_t seed, size_t elems)
{
    Rng rng(seed);
    std::vector<float> v(elems);
    for (float &x : v)
        x = static_cast<float>(rng.uniform(0.0, 1.0));
    return v;
}

/**
 * Cold single-request runs at both degradation levels, computed once:
 * the acceptance criterion for every Ok reply in this file is bitwise
 * equality with one of these, keyed by the reply's level byte.
 */
struct ColdRuns
{
    std::unique_ptr<ParamsCache> cache;
    std::vector<float> input;
    std::vector<float> exact_out;
    std::vector<float> predictive_out;

    ColdRuns()
    {
        StatusOr<std::unique_ptr<ParamsCache>> c =
            ParamsCache::build(ServeModelConfig{});
        if (!c.ok())
            std::abort();
        cache = std::move(c).value();
        input = makeInput(7, cache->inputElems());
        exact_out = run(ServeLevel::Exact);
        predictive_out = run(ServeLevel::Predictive);
    }

    std::vector<float> run(ServeLevel level) const
    {
        SnapeaEngine engine(cache->net(), cache->plan(level));
        engine.setMode(ExecMode::Serving);
        Tensor in(cache->net().inputShape());
        std::memcpy(in.data(), input.data(),
                    input.size() * sizeof(float));
        const Tensor out = cache->net().forward(in, &engine);
        return {out.data(), out.data() + out.size()};
    }

    const std::vector<float> &at(int level) const
    {
        return level == 1 ? predictive_out : exact_out;
    }
};

const ColdRuns &
cold()
{
    static ColdRuns c;
    return c;
}

bool
bitwiseEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size()
        && !std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(float));
}

TEST(Serve, StatsSnapshotAndIdempotentDrain)
{
    ServerConfig cfg;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();
    const std::string js = server.value()->statsJson();
    for (const char *key :
         {"\"admitted\"", "\"rejected\"", "\"shed\"", "\"queue\"",
          "\"latency_ms\"", "\"level\"", "\"calib\""}) {
        EXPECT_NE(js.find(key), std::string::npos) << key;
    }
    server.value()->drainAndJoin();
    server.value()->drainAndJoin(); // second drain is a no-op
}

TEST(Serve, SecondInstanceOnSameLockIsRefused)
{
    const std::string lock =
        fs::temp_directory_path() /
        ("serve_lock_" + std::to_string(::getpid()));
    ServerConfig cfg;
    cfg.lock_path = lock;
    StatusOr<std::unique_ptr<Server>> first = Server::start(cfg);
    ASSERT_TRUE(first.ok()) << first.status().toString();

    StatusOr<std::unique_ptr<Server>> second = Server::start(cfg);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::Unavailable);

    // Draining the first instance releases the lock for a successor.
    first.value()->drainAndJoin();
    StatusOr<std::unique_ptr<Server>> third = Server::start(cfg);
    EXPECT_TRUE(third.ok()) << third.status().toString();
    fs::remove(lock);
}

TEST(Serve, ExactReplyMatchesColdRunBitwise)
{
    ServerConfig cfg;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    StatusOr<ServeClient> client =
        ServeClient::connect("", server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    StatusOr<Reply> reply = client.value().infer(cold().input);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().status, WireStatus::Ok);
    EXPECT_EQ(reply.value().level, 0);
    EXPECT_TRUE(
        bitwiseEqual(reply.value().output, cold().exact_out));
}

TEST(Serve, WrongInputSizeGetsInvalidArgument)
{
    ServerConfig cfg;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    StatusOr<ServeClient> client =
        ServeClient::connect("", server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    const std::vector<float> runt(3, 0.5f);
    StatusOr<Reply> reply = client.value().infer(runt);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().status, WireStatus::InvalidArgument);
}

TEST(Serve, FloodIsRejectedNotQueuedAndEveryReplyIsExactBits)
{
    // A deliberately tiny queue with one slow worker: a pipelined
    // flood must overflow admission control, and the contract is that
    // every single request gets a reply — Ok ones bitwise-identical
    // to the cold run at their reply's level, the rest Overloaded.
    ServerConfig cfg;
    cfg.queue_capacity = 8;
    cfg.workers = 1;
    cfg.batch_max = 2;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    StatusOr<ServeClient> client =
        ServeClient::connect("", server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().toString();

    constexpr uint64_t kRequests = 80;
    for (uint64_t id = 1; id <= kRequests; ++id) {
        ASSERT_TRUE(client.value()
                        .sendInfer(id, cold().input.data(),
                                   cold().input.size())
                        .ok());
    }
    client.value().finishSending();

    size_t ok = 0, rejected = 0, other = 0;
    std::map<uint64_t, int> seen;
    for (;;) {
        StatusOr<Reply> r = client.value().readReply();
        if (!r.ok()) {
            EXPECT_EQ(r.status().code(), StatusCode::NotFound)
                << r.status().toString();
            break;
        }
        ++seen[r.value().req_id];
        switch (r.value().status) {
          case WireStatus::Ok:
            ++ok;
            EXPECT_TRUE(bitwiseEqual(r.value().output,
                                     cold().at(r.value().level)))
                << "req " << r.value().req_id << " at level "
                << r.value().level;
            break;
          case WireStatus::Overloaded:
            ++rejected;
            break;
          default:
            ++other;
            break;
        }
    }
    // Exactly one reply per request, nothing silently dropped.
    EXPECT_EQ(seen.size(), kRequests);
    for (const auto &[id, n] : seen)
        EXPECT_EQ(n, 1) << "req " << id;
    EXPECT_GT(ok, 0u);
    EXPECT_GT(rejected, 0u) << "flood never tripped admission";
    EXPECT_EQ(other, 0u);
    const ServeStats &st = server.value()->stats();
    EXPECT_EQ(st.admittedTotal() + st.rejectedTotal(), kRequests);
}

TEST(Serve, InProcessPredictiveRepliesAreShadowAudited)
{
    // The in-process flood again, with every predictive Ok reply
    // sampled: the shadow audit must see the in-process path too.
    ServerConfig cfg;
    cfg.queue_capacity = 8;
    cfg.workers = 1;
    cfg.batch_max = 2;
    cfg.audit_rate = 1;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    StatusOr<ServeClient> client =
        ServeClient::connect("", server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().toString();

    constexpr uint64_t kRequests = 80;
    for (uint64_t id = 1; id <= kRequests; ++id) {
        ASSERT_TRUE(client.value()
                        .sendInfer(id, cold().input.data(),
                                   cold().input.size())
                        .ok());
    }
    client.value().finishSending();

    size_t predictive_ok = 0;
    for (;;) {
        StatusOr<Reply> r = client.value().readReply();
        if (!r.ok())
            break;
        if (r.value().status == WireStatus::Ok
            && r.value().level
                   == static_cast<int>(ServeLevel::Predictive))
            ++predictive_ok;
    }
    // Joins the audit thread, so every sampled reply is accounted.
    server.value()->drainAndJoin();
    const ServeStats &st = server.value()->stats();
    if (predictive_ok > 0) {
        EXPECT_GE(st.auditSamplesTotal() + st.auditDroppedTotal(), 1u)
            << predictive_ok << " predictive Ok replies";
    }
}

TEST(Serve, StaleBacklogIsShedAtTheDeadline)
{
    ServerConfig cfg;
    cfg.queue_capacity = 64;
    cfg.workers = 1;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    StatusOr<ServeClient> client =
        ServeClient::connect("", server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().toString();

    // A 1 ms deadline is far shorter than one service time, so only
    // requests near the queue head can make it; the backlog must be
    // shed with DeadlineExceeded instead of burning worker time.
    constexpr uint64_t kRequests = 30;
    for (uint64_t id = 1; id <= kRequests; ++id) {
        ASSERT_TRUE(client.value()
                        .sendInfer(id, cold().input.data(),
                                   cold().input.size(),
                                   /*deadline_ms=*/1)
                        .ok());
    }
    client.value().finishSending();

    size_t shed = 0, answered = 0;
    for (;;) {
        StatusOr<Reply> r = client.value().readReply();
        if (!r.ok())
            break;
        ++answered;
        if (r.value().status == WireStatus::DeadlineExceeded) {
            ++shed;
        } else if (r.value().status == WireStatus::Ok) {
            EXPECT_TRUE(bitwiseEqual(r.value().output,
                                     cold().at(r.value().level)));
        }
    }
    EXPECT_EQ(answered, kRequests);
    EXPECT_GT(shed, 0u) << "no request was shed at its deadline";
    EXPECT_EQ(server.value()->stats().shedTotal(), shed);
}

TEST(Serve, ComputeBrownoutDegradesThenRecovers)
{
    ServerConfig cfg;
    cfg.retry_attempts = 2;
    cfg.retry_backoff_ms = 1;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    StatusOr<ServeClient> client =
        ServeClient::connect("", server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().toString();

    // Total compute brownout: every attempt fails, the retry budget
    // is spent, and the reply is a well-formed Unavailable — the
    // daemon itself stays up.
    ASSERT_TRUE(setFaultSpec("compute:task:*").ok());
    StatusOr<Reply> dark = client.value().infer(cold().input);
    ASSERT_TRUE(setFaultSpec("").ok());
    ASSERT_TRUE(dark.ok()) << dark.status().toString();
    EXPECT_EQ(dark.value().status, WireStatus::Unavailable);
    EXPECT_GE(server.value()->stats().retriesTotal(), 1u);
    EXPECT_GE(server.value()->stats().failedTotal(), 1u);

    // The fault cleared; service resumes with correct bits.
    StatusOr<Reply> light = client.value().infer(cold().input);
    ASSERT_TRUE(light.ok()) << light.status().toString();
    EXPECT_EQ(light.value().status, WireStatus::Ok);
    EXPECT_TRUE(bitwiseEqual(light.value().output,
                             cold().at(light.value().level)));
}

TEST(Serve, HealthProbeAnswersOverTheWire)
{
    ServerConfig cfg;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    StatusOr<ServeClient> client =
        ServeClient::connect("", server.value()->port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    StatusOr<std::string> health = client.value().healthJson();
    ASSERT_TRUE(health.ok()) << health.status().toString();
    // In-process mode has no pool: the daemon itself being able to
    // answer IS readiness.
    EXPECT_NE(health.value().find("\"state\": \"ready\""),
              std::string::npos)
        << health.value();
    EXPECT_EQ(health.value(), server.value()->healthJson());

    // The HEALTH probe must not disturb inference on the same
    // connection.
    StatusOr<Reply> reply = client.value().infer(cold().input);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().status, WireStatus::Ok);
}

// ---------------------------------------------------------------------
// Protocol fuzz: hostile bytes on the TCP boundary.

/**
 * Open a raw connection, write @p bytes, half-close, and drain
 * whatever the server answers until it closes.  The server's job is
 * to drop the connection on the first malformed frame; the test's job
 * is to prove that is ALL that dies.
 */
void
throwBytesAtServer(uint16_t port, const std::string &bytes)
{
    StatusOr<Fd> fd = connectTcp("", port);
    ASSERT_TRUE(fd.ok()) << fd.status().toString();
    // The server may slam the door mid-write on hostile bytes; a
    // short write is part of the scenario, not a test failure.
    // snapea-lint: allow(SL002)
    (void)writeFull(fd.value().get(), bytes.data(), bytes.size());
    ::shutdown(fd.value().get(), SHUT_WR);
    char sink[512];
    for (;;) {
        const ssize_t n =
            ::recv(fd.value().get(), sink, sizeof(sink), 0);
        if (n <= 0)
            break;
    }
}

TEST(Fuzz, HostileFramesNeverTakeTheServerDown)
{
    ServerConfig cfg;
    cfg.workers = 1;
    StatusOr<std::unique_ptr<Server>> server = Server::start(cfg);
    ASSERT_TRUE(server.ok()) << server.status().toString();
    const uint16_t port = server.value()->port();

    FrameHeader h;
    h.type = MsgType::Infer;
    h.req_id = 1;
    const std::string body(
        reinterpret_cast<const char *>(cold().input.data()),
        cold().input.size() * sizeof(float));
    const std::string good = encodeFrame(h, body);

    // Truncated frames: every prefix boundary that matters (mid
    // magic, mid header, header only, mid body).
    for (size_t cut : {size_t{1}, size_t{3}, size_t{12},
                       kHeaderBytes, kHeaderBytes + 7}) {
        ASSERT_LT(cut, good.size());
        throwBytesAtServer(port, good.substr(0, cut));
    }

    // A bit flipped in the body fails the CRC server-side.
    {
        std::string bad = good;
        bad[kHeaderBytes + 5] =
            static_cast<char>(bad[kHeaderBytes + 5] ^ 0x10);
        throwBytesAtServer(port, bad);
    }
    // A bit flipped in the declared length desynchronizes framing.
    {
        std::string bad = good;
        bad[20] = static_cast<char>(bad[20] ^ 0x01);
        throwBytesAtServer(port, bad);
    }
    // An oversized declared length must be refused at the header, not
    // allocated.
    {
        std::string bad = good;
        const uint32_t huge = kMaxBodyBytes + 1;
        std::memcpy(bad.data() + 20, &huge, sizeof(huge));
        throwBytesAtServer(port, bad);
    }

    // Deterministic random garbage, including some that starts with
    // the real magic.
    Rng rng(99);
    for (int round = 0; round < 32; ++round) {
        const size_t len =
            1 + static_cast<size_t>(rng.uniform(0.0, 256.0));
        std::string junk(len, '\0');
        for (char &c : junk)
            c = static_cast<char>(rng.uniform(0.0, 256.0));
        if (round % 4 == 0 && junk.size() >= 4)
            std::memcpy(junk.data(), good.data(), 4);
        throwBytesAtServer(port, junk);
    }

    // After all of that: a well-formed request on a fresh connection
    // still gets a bit-exact answer, and the stats still parse.
    StatusOr<ServeClient> client = ServeClient::connect("", port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    StatusOr<Reply> reply = client.value().infer(cold().input);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().status, WireStatus::Ok);
    EXPECT_TRUE(bitwiseEqual(reply.value().output,
                             cold().at(reply.value().level)));
    EXPECT_TRUE(client.value().statsJson().ok());
}

// ---------------------------------------------------------------------
// Fork/exec chaos against the real binary.

/** A spawned snapea_serve process and its scratch directory. */
struct Daemon
{
    pid_t pid = -1;
    uint16_t port = 0;
    int boot_status = -1; ///< wait status if the child died at boot.
    fs::path dir;

    std::string lockPath() const { return dir / "lock"; }

    /** SIGTERM (once) and reap; returns the wait status. */
    int terminate() const
    {
        kill(pid, SIGTERM);
        int st = 0;
        waitpid(pid, &st, 0);
        return st;
    }
};

/**
 * Fork/exec the daemon with @p extra_args appended to a deterministic
 * base (loopback port 0, port file, lock file, one engine thread, one
 * worker).  Returns a ready daemon (port file observed) or pid -1.
 */
Daemon
spawnDaemon(const std::vector<std::string> &extra_args,
            const std::vector<std::pair<std::string, std::string>>
                &env = {})
{
    static int counter = 0;
    Daemon d;
    d.dir = fs::temp_directory_path() /
        ("snapea_serve_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
    fs::create_directories(d.dir);
    const std::string port_file = d.dir / "port";

    std::vector<std::string> args{
        "snapea_serve", "--port",      "0",
        "--port-file",  port_file,     "--lock", d.lockPath(),
        "--threads",    "1",           "--workers", "1"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());

    d.pid = fork();
    if (d.pid == 0) {
        for (const auto &[k, v] : env)
            ::setenv(k.c_str(), v.c_str(), 1);
        std::freopen((d.dir / "log").c_str(), "w", stdout);
        std::freopen((d.dir / "log").c_str(), "a", stderr);
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        execv(SNAPEA_SERVE_BIN, argv.data());
        _exit(99); // exec failed
    }
    if (d.pid < 0)
        return d;

    // Boot includes weight init and two calibration forwards; wait
    // for the port file rather than guessing a delay.
    for (int i = 0; i < 600; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        StatusOr<std::string> text = readFileToString(port_file);
        if (text.ok()) {
            d.port = static_cast<uint16_t>(
                std::atoi(text.value().c_str()));
            return d;
        }
        int st = 0;
        if (waitpid(d.pid, &st, WNOHANG) == d.pid) {
            d.pid = -1; // died at boot; caller inspects the status
            d.boot_status = st;
            return d;
        }
    }
    kill(d.pid, SIGKILL);
    waitpid(d.pid, nullptr, 0);
    d.pid = -1;
    return d;
}

TEST(Chaos, SigtermMidFlightDrainsAndReleasesLock)
{
    Daemon d = spawnDaemon({"--queue", "64"});
    ASSERT_GT(d.pid, 0);

    StatusOr<ServeClient> client = ServeClient::connect("", d.port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    constexpr uint64_t kRequests = 6;
    for (uint64_t id = 1; id <= kRequests; ++id) {
        ASSERT_TRUE(client.value()
                        .sendInfer(id, cold().input.data(),
                                   cold().input.size())
                        .ok());
    }
    // Let the reader admit a prefix of the burst, then pull the plug
    // while requests are genuinely in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    kill(d.pid, SIGTERM);

    // Every admitted request must still be answered — correctly —
    // before the connection winds down; nothing may arrive corrupt
    // or truncated.
    size_t replies = 0;
    for (;;) {
        StatusOr<Reply> r = client.value().readReply();
        if (!r.ok()) {
            EXPECT_NE(r.status().code(), StatusCode::Corrupt)
                << r.status().toString();
            break;
        }
        ++replies;
        ASSERT_GE(r.value().req_id, 1u);
        ASSERT_LE(r.value().req_id, kRequests);
        if (r.value().status == WireStatus::Ok) {
            EXPECT_TRUE(bitwiseEqual(r.value().output,
                                     cold().at(r.value().level)));
        }
    }
    EXPECT_GE(replies, 1u);

    int st = 0;
    waitpid(d.pid, &st, 0);
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), 0) << "drain must exit clean";

    // The daemon lock must be free the moment the process is gone.
    StatusOr<FileLock> relock = FileLock::tryAcquire(d.lockPath());
    EXPECT_TRUE(relock.ok()) << relock.status().toString();
    fs::remove_all(d.dir);
}

TEST(Chaos, InjectedComputeFaultIsRetriedTransparently)
{
    // --worker-fault arms inside the worker process after its boot,
    // so task #2 of the first request's forward throws once; the
    // worker-local retry must succeed and the reply must be
    // indistinguishable from a clean run.
    Daemon d = spawnDaemon(
        {"--worker-fault", "compute:task:2", "--retries", "3",
         "--backoff-ms", "1"});
    ASSERT_GT(d.pid, 0);

    StatusOr<ServeClient> client = ServeClient::connect("", d.port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    StatusOr<Reply> reply = client.value().infer(cold().input);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().status, WireStatus::Ok);
    EXPECT_TRUE(bitwiseEqual(reply.value().output,
                             cold().at(reply.value().level)));

    const int st = d.terminate();
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), 0);
    fs::remove_all(d.dir);
}

TEST(Chaos, WatchdogCutsStalledTasksIntoDegradedReplies)
{
    // Every worker task stalls until the 50 ms watchdog cuts it, so
    // every attempt fails: the daemon must answer Unavailable (not
    // hang, not crash) and still drain clean on SIGTERM.  The
    // watchdog budget reaches the worker through its environment.
    Daemon d = spawnDaemon({"--worker-fault", "slow:task:*",
                            "--retries", "2", "--backoff-ms", "1"},
                           {{"SNAPEA_WATCHDOG_MS", "50"}});
    ASSERT_GT(d.pid, 0);

    StatusOr<ServeClient> client = ServeClient::connect("", d.port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    StatusOr<Reply> reply = client.value().infer(cold().input);
    ASSERT_TRUE(reply.ok()) << reply.status().toString();
    EXPECT_EQ(reply.value().status, WireStatus::Unavailable);

    const int st = d.terminate();
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), 0);
    fs::remove_all(d.dir);
}

TEST(Chaos, IoFaultAtBootFailsCleanAndReleasesLock)
{
    // Every write fails (ENOSPC-style): the daemon cannot persist its
    // port file, so boot must fail with the documented runtime exit
    // code — and must not leave the daemon lock behind.  --in-process
    // keeps the scenario about the daemon's own boot I/O rather than
    // doubling it through a worker spawn.
    Daemon d = spawnDaemon({"--in-process"},
                           {{"SNAPEA_FAULT", "io:write:*"}});
    ASSERT_EQ(d.pid, -1) << "boot unexpectedly survived io faults";
    ASSERT_TRUE(WIFEXITED(d.boot_status))
        << "boot must fail by exiting, not by crashing";
    EXPECT_EQ(WEXITSTATUS(d.boot_status), 1);

    StatusOr<FileLock> relock = FileLock::tryAcquire(d.lockPath());
    EXPECT_TRUE(relock.ok()) << relock.status().toString();
    fs::remove_all(d.dir);
}

// ---------------------------------------------------------------------
// CrashChaos: the supervision contract (DESIGN.md §5g), against the
// real binary in its default multi-process mode.  Filtered into a
// separate ctest entry under the `crash` label.

/** Direct children of @p parent (the daemon's worker processes). */
std::vector<pid_t>
childrenOf(pid_t parent)
{
    std::vector<pid_t> kids;
    const std::string path = "/proc/" + std::to_string(parent) +
        "/task/" + std::to_string(parent) + "/children";
    StatusOr<std::string> text = readFileToString(path);
    if (!text.ok())
        return kids;
    const char *p = text.value().c_str();
    char *end = nullptr;
    for (long v = std::strtol(p, &end, 10); end != p;
         v = std::strtol(p, &end, 10)) {
        kids.push_back(static_cast<pid_t>(v));
        p = end;
    }
    return kids;
}

/** First "key": <integer> inside a health JSON snapshot. */
uint64_t
healthCounter(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t pos = json.find(needle);
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(json.c_str() + pos + needle.size(), nullptr,
                         10);
}

TEST(CrashChaos, CrashyWorkersServeEveryRequestBitExact)
{
    // Every worker dies at its own 8th request — SIGSEGV, SIGABRT and
    // _exit(42) in rotation — so ~12 workers die across the run.  The
    // contract: the daemon never exits, every one of the 100 requests
    // is answered Ok, and every reply is bitwise-identical to a cold
    // run (the re-dispatched ones included).
    Daemon d = spawnDaemon({"--worker-fault", "crash:worker:8",
                            "--restart-backoff-ms", "1",
                            "--storm-restarts", "100000", "--queue",
                            "64"});
    ASSERT_GT(d.pid, 0);

    StatusOr<ServeClient> client = ServeClient::connect("", d.port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    constexpr int kRequests = 100;
    for (int i = 1; i <= kRequests; ++i) {
        StatusOr<Reply> r = client.value().infer(cold().input);
        ASSERT_TRUE(r.ok())
            << "request " << i << ": " << r.status().toString();
        ASSERT_EQ(r.value().status, WireStatus::Ok) << "request " << i;
        ASSERT_TRUE(bitwiseEqual(r.value().output,
                                 cold().at(r.value().level)))
            << "request " << i;
    }
    // The daemon process itself never died.
    EXPECT_EQ(kill(d.pid, 0), 0);

    // Supervision bookkeeping: roughly one death per 8 requests, one
    // re-dispatch per death (at most once per lost request), and no
    // request ever lost for good.
    StatusOr<std::string> health = client.value().healthJson();
    ASSERT_TRUE(health.ok()) << health.status().toString();
    const uint64_t restarts =
        healthCounter(health.value(), "restarts");
    const uint64_t redispatches =
        healthCounter(health.value(), "redispatches");
    EXPECT_GE(restarts, 10u) << health.value();
    EXPECT_GE(redispatches, 10u) << health.value();
    EXPECT_LE(redispatches, restarts) << health.value();
    EXPECT_EQ(healthCounter(health.value(), "worker_lost"), 0u)
        << health.value();

    const int st = d.terminate();
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), 0) << "drain must exit clean";
    fs::remove_all(d.dir);
}

TEST(CrashChaos, SigkilledWorkerMidRequestIsRedispatchedOnce)
{
    // slow:task:1 keeps the first request in flight for about a
    // watchdog budget, long enough to SIGKILL the worker processing
    // it.  The supervisor must re-dispatch to a fresh worker and the
    // reply must be indistinguishable from a clean run.
    Daemon d = spawnDaemon({"--worker-fault", "slow:task:1",
                            "--restart-backoff-ms", "1", "--retries",
                            "3", "--backoff-ms", "1"});
    ASSERT_GT(d.pid, 0);

    std::vector<pid_t> workers = childrenOf(d.pid);
    ASSERT_EQ(workers.size(), 1u)
        << "the pool should hold exactly one worker";

    StatusOr<ServeClient> client = ServeClient::connect("", d.port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client.value()
                    .sendInfer(1, cold().input.data(),
                               cold().input.size())
                    .ok());
    // Give the request time to reach the worker and stall there.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_EQ(kill(workers[0], SIGKILL), 0);

    StatusOr<Reply> r = client.value().readReply();
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().req_id, 1u);
    ASSERT_EQ(r.value().status, WireStatus::Ok);
    EXPECT_TRUE(bitwiseEqual(r.value().output,
                             cold().at(r.value().level)));

    // Exactly one re-dispatch, no request written off.
    StatusOr<std::string> health = client.value().healthJson();
    ASSERT_TRUE(health.ok()) << health.status().toString();
    EXPECT_EQ(healthCounter(health.value(), "redispatches"), 1u)
        << health.value();
    EXPECT_EQ(healthCounter(health.value(), "worker_lost"), 0u)
        << health.value();

    const int st = d.terminate();
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), 0);
    fs::remove_all(d.dir);
}

TEST(CrashChaos, HealthSeesIdleWorkerDeathAndRecovery)
{
    Daemon d = spawnDaemon({"--restart-backoff-ms", "1"});
    ASSERT_GT(d.pid, 0);

    StatusOr<ServeClient> client = ServeClient::connect("", d.port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    StatusOr<std::string> health = client.value().healthJson();
    ASSERT_TRUE(health.ok()) << health.status().toString();
    EXPECT_NE(health.value().find("\"state\": \"ready\""),
              std::string::npos)
        << health.value();

    // Kill the (idle) worker out from under the daemon.  The monitor
    // notices via SIGCHLD, HEALTH degrades while the slot rebuilds its
    // model, and readiness returns with the restart on the books.
    std::vector<pid_t> workers = childrenOf(d.pid);
    ASSERT_EQ(workers.size(), 1u);
    ASSERT_EQ(kill(workers[0], SIGKILL), 0);

    bool saw_degraded = false, saw_ready_again = false;
    for (int i = 0; i < 1500 && !saw_ready_again; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        health = client.value().healthJson();
        ASSERT_TRUE(health.ok()) << health.status().toString();
        if (health.value().find("\"state\": \"degraded\"") !=
            std::string::npos) {
            saw_degraded = true;
        }
        if (saw_degraded &&
            health.value().find("\"state\": \"ready\"") !=
                std::string::npos) {
            saw_ready_again = true;
        }
    }
    EXPECT_TRUE(saw_degraded) << health.value();
    ASSERT_TRUE(saw_ready_again) << health.value();
    EXPECT_EQ(healthCounter(health.value(), "restarts"), 1u)
        << health.value();

    // The recovered pool serves correct bits.
    StatusOr<Reply> r = client.value().infer(cold().input);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().status, WireStatus::Ok);
    EXPECT_TRUE(
        bitwiseEqual(r.value().output, cold().at(r.value().level)));

    const int st = d.terminate();
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), 0);
    fs::remove_all(d.dir);
}

TEST(CrashChaos, PoisonRequestFailsTypedAndTripsTheBreaker)
{
    // crash:worker:1 makes EVERY worker die on its first request: the
    // first request is effectively poison (it kills its worker and
    // the re-dispatch replacement), so it must fail WorkerLost — not
    // crash-loop the pool forever.  The deaths then trip the
    // crash-storm breaker and HEALTH goes unhealthy.
    Daemon d = spawnDaemon({"--worker-fault", "crash:worker:1",
                            "--restart-backoff-ms", "1",
                            "--storm-restarts", "2",
                            "--storm-window-ms", "60000"});
    ASSERT_GT(d.pid, 0);

    StatusOr<ServeClient> client = ServeClient::connect("", d.port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    StatusOr<Reply> poison = client.value().infer(cold().input);
    ASSERT_TRUE(poison.ok()) << poison.status().toString();
    EXPECT_EQ(poison.value().status, WireStatus::WorkerLost);

    // Keep knocking: every further reply is well-formed and refused
    // (the breaker opens and pins admission at Reject), never a hang
    // or a dead daemon.
    bool unhealthy = false;
    for (int i = 0; i < 250 && !unhealthy; ++i) {
        StatusOr<Reply> r = client.value().infer(cold().input);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        ASSERT_NE(r.value().status, WireStatus::Ok);
        StatusOr<std::string> health = client.value().healthJson();
        ASSERT_TRUE(health.ok()) << health.status().toString();
        unhealthy = health.value().find("\"state\": \"unhealthy\"") !=
            std::string::npos;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(unhealthy);
    EXPECT_EQ(kill(d.pid, 0), 0) << "daemon must survive the storm";

    const int st = d.terminate();
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), 0);
    fs::remove_all(d.dir);
}

TEST(CrashChaos, InProcessCrashKillsTheDaemonBaseline)
{
    // The control arm: the same crash fault without the pool takes
    // the whole daemon down on the first request.  This asymmetry is
    // the supervisor's reason to exist (and what the crash-storm
    // bench quantifies).
    Daemon d = spawnDaemon(
        {"--in-process", "--fault", "crash:worker:1"});
    ASSERT_GT(d.pid, 0);

    StatusOr<ServeClient> client = ServeClient::connect("", d.port);
    ASSERT_TRUE(client.ok()) << client.status().toString();
    StatusOr<Reply> r = client.value().infer(cold().input);
    EXPECT_FALSE(r.ok()) << "a reply from a daemon that should be "
                            "dying mid-request";

    int st = 0;
    ASSERT_EQ(waitpid(d.pid, &st, 0), d.pid);
    ASSERT_TRUE(WIFSIGNALED(st)) << "expected a crash, got "
                                 << st;
    EXPECT_EQ(WTERMSIG(st), SIGSEGV);
    fs::remove_all(d.dir);
}

} // namespace
