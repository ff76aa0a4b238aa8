/**
 * @file
 * The benchmark's own tests: the percentile rule, the choice of
 * quiet windows, open-loop lateness accounting, span self-time
 * arithmetic, the merge of one traced run into another, and the
 * correctness gate firing on a corrupted reply.  Run with
 * `python3 perfbench/run.py --selftest`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common.hh"
#include "measure.hh"

using namespace perfbench;
using snapea::serve::WireStatus;

namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

} // namespace

TEST(PercentileRule, P99WithEnoughSamplesIsNearestRank)
{
    const Pct p = percentile(oneTo(1000), 99);
    EXPECT_EQ(p.n, 1000u);
    EXPECT_DOUBLE_EQ(p.percentile, 99.0);
    EXPECT_DOUBLE_EQ(p.value, 990.0); // 10 samples (991..1000) beyond
}

TEST(PercentileRule, TooFewSamplesFallBackToHighestSupported)
{
    // 200 samples support at most p95: rank 190 leaves 10 beyond.
    const Pct p = percentile(oneTo(200), 99);
    EXPECT_EQ(p.n, 200u);
    EXPECT_DOUBLE_EQ(p.value, 190.0);
    EXPECT_DOUBLE_EQ(p.percentile, 95.0);
}

TEST(PercentileRule, NoSupportedPercentileReportsTheMaximum)
{
    const Pct p = percentile(oneTo(8), 99);
    EXPECT_DOUBLE_EQ(p.value, 8.0);
    EXPECT_DOUBLE_EQ(p.percentile, 100.0);
    // 16 samples: rank 6 would leave 10 beyond but is below the
    // median, so there is no tail estimate either.
    const Pct q = percentile(oneTo(16), 99);
    EXPECT_DOUBLE_EQ(q.value, 16.0);
    EXPECT_DOUBLE_EQ(q.percentile, 100.0);
    // 20 samples: rank 10 is the median; 21: rank 11 is above it.
    EXPECT_DOUBLE_EQ(percentile(oneTo(20), 99).value, 20.0);
    EXPECT_DOUBLE_EQ(percentile(oneTo(21), 99).value, 11.0);
    EXPECT_EQ(percentile({}, 99).n, 0u);
}

TEST(PercentileRule, MedianIsNotCapped)
{
    EXPECT_DOUBLE_EQ(percentile(oneTo(3), 50).value, 2.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(QuietWindows, KeepsWindowsWithAtMostTheMedianSteal)
{
    const std::vector<bool> q = quietWindows({5, 40, 0, 12, 60, 12});
    EXPECT_EQ(q, (std::vector<bool>{true, false, true, true, false, true}));
    // No steal reported: every window counts.
    EXPECT_EQ(quietWindows({0, 0, 0}), (std::vector<bool>(3, true)));
    EXPECT_TRUE(quietWindows({}).empty());
}

TEST(OpenLoop, LatencyRunsFromTheScheduledSendTime)
{
    const int64_t ms = 1'000'000;
    OpenLoopLog log({0, 10 * ms, 20 * ms, 30 * ms, 40 * ms});
    // The generator stalled 15 ms before request 1; request 2 went
    // out 6 ms late behind it; request 4 was never sent.
    log.sent_ns = {0, 25 * ms, 26 * ms, 30 * ms, -1};
    log.received_ns = {5 * ms, 30 * ms, 31 * ms, 35 * ms, -1};
    EXPECT_DOUBLE_EQ(log.latencyMs(0), 5.0);
    EXPECT_DOUBLE_EQ(log.latencyMs(1), 20.0); // not 5: the stall counts
    EXPECT_DOUBLE_EQ(log.latencyMs(2), 11.0);
    EXPECT_DOUBLE_EQ(log.latencyMs(3), 5.0);
    EXPECT_DOUBLE_EQ(log.latencyMs(4), -1.0);
    EXPECT_DOUBLE_EQ(log.lagMs(0), 0.0);
    EXPECT_DOUBLE_EQ(log.lagMs(1), 15.0);
    EXPECT_DOUBLE_EQ(log.lagMs(2), 6.0);
    EXPECT_DOUBLE_EQ(log.lagMs(4), -1.0);
}

TEST(OpenLoop, PoissonScheduleIsSeededAndHasTheRate)
{
    const auto a = poissonSchedule(7, 1000.0, 10.0);
    const auto b = poissonSchedule(7, 1000.0, 10.0);
    const auto c = poissonSchedule(8, 1000.0, 10.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
    for (size_t i = 1; i < a.size(); ++i)
        ASSERT_GE(a[i], a[i - 1]);
    EXPECT_LT(a.back(), 10'000'000'000);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren)
{
    std::vector<Span> s(5);
    s[0].t0 = 0;   s[0].t1 = 100;             // root
    s[1].t0 = 10;  s[1].t1 = 30;  s[1].parent = 0;
    s[2].t0 = 20;  s[2].t1 = 50;  s[2].parent = 0; // overlaps s[1]
    s[3].t0 = 90;  s[3].t1 = 120; s[3].parent = 0; // clipped at 100
    s[4].t0 = 12;  s[4].t1 = 18;  s[4].parent = 1; // grandchild
    const std::vector<int64_t> self = selfTimes(s);
    EXPECT_EQ(self[0], 100 - 40 - 10); // union [10,50] + [90,100]
    EXPECT_EQ(self[1], 20 - 6);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 6);
}

TEST(Result, AbsorbKeepsOwnValuesAndAddsTheRest)
{
    Result own;
    own.attempted = 10;
    own.failed = 1;
    own.metric("setup.params_build_s", 0.5, "s");
    own.note("workload", "\"offline_zoo\"");
    Result other;
    other.correct = false;
    other.attempted = 5;
    other.failed = 2;
    other.metric("setup.params_build_s", 9.0, "s");
    other.metric("serve.hop_ms", 0.3, "ms");
    other.note("workload", "\"serve_steady\"");
    absorb(own, other, "profiled_with_serve_steady");
    EXPECT_FALSE(own.correct);
    EXPECT_EQ(own.attempted, 15u);
    EXPECT_EQ(own.failed, 3u);
    ASSERT_EQ(own.metrics.size(), 2u);
    EXPECT_EQ(own.metrics[0].value, 0.5);
    EXPECT_EQ(own.metrics[1].name, "serve.hop_ms");
    ASSERT_EQ(own.fingerprint.size(), 2u);
    EXPECT_EQ(own.fingerprint[1].second,
              "{\"workload\": \"serve_steady\"}");
}

TEST(Spans, DisabledTracerRecordsNothing)
{
    Tracer off(false);
    const int id = off.begin(1);
    off.end(id);
    EXPECT_EQ(id, -1);
    EXPECT_TRUE(off.spans().empty());
    Tracer on(true);
    const int a = on.begin(1);
    const int b = on.begin(2, a, 42);
    on.end(b);
    on.end(a);
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, a);
    EXPECT_EQ(on.spans()[1].req, 42u);
    EXPECT_LE(on.spans()[0].t0, on.spans()[1].t0);
    EXPECT_GE(on.spans()[0].t1, on.spans()[1].t1);
}

namespace {

/** A reference triple where exact matches dense and pred does not. */
struct GateFixture
{
    std::vector<float> dense{0.1f, 0.9f, 0.3f, -0.2f};
    std::vector<float> exact = dense;
    std::vector<float> pred{0.5f, 0.2f, 0.1f, 0.0f};

    ImageRef ref(bool centred = false) const
    {
        ImageRef r;
        r.dense = dense.data();
        r.exact = exact.data();
        r.pred = pred.data();
        r.n = dense.size();
        r.centred = centred;
        return r;
    }
};

} // namespace

TEST(Gate, MatchingRepliesPass)
{
    GateFixture f;
    EXPECT_EQ(judgeReply(WireStatus::Ok, 0, f.exact.data(), 4, f.ref()),
              Outcome::Ok);
    EXPECT_EQ(judgeReply(WireStatus::Ok, 1, f.pred.data(), 4, f.ref()),
              Outcome::Ok);
}

TEST(Gate, FiresOnACorruptedReply)
{
    GateFixture f;
    for (int level = 0; level < 2; ++level) {
        std::vector<float> reply = level ? f.pred : f.exact;
        uint32_t bits = 0;
        std::memcpy(&bits, &reply[2], sizeof(bits));
        bits ^= 1u; // one flipped mantissa bit
        std::memcpy(&reply[2], &bits, sizeof(bits));
        EXPECT_EQ(judgeReply(WireStatus::Ok, level, reply.data(), 4,
                             f.ref()),
                  Outcome::Wrong)
            << "level " << level;
        EXPECT_TRUE(isFailure(Outcome::Wrong));
    }
    // Right bytes, wrong level: the predictive answer labelled exact.
    EXPECT_EQ(judgeReply(WireStatus::Ok, 0, f.pred.data(), 4, f.ref()),
              Outcome::Wrong);
    // Truncated body and an unknown level.
    EXPECT_EQ(judgeReply(WireStatus::Ok, 0, f.exact.data(), 3, f.ref()),
              Outcome::Wrong);
    EXPECT_EQ(judgeReply(WireStatus::Ok, 2, f.exact.data(), 4, f.ref()),
              Outcome::Wrong);
}

TEST(Gate, ExactLevelMustAlsoMatchDense)
{
    GateFixture f;
    f.exact[3] += 1e-3f; // the program's own exact answer drifted
    // Only a centred input excuses it as the known signed-input
    // defect; on a non-negative input it is a wrong answer.
    EXPECT_EQ(judgeReply(WireStatus::Ok, 0, f.exact.data(), 4,
                         f.ref(/*centred=*/true)),
              Outcome::Inexact);
    EXPECT_TRUE(isFailure(Outcome::Inexact));
    EXPECT_EQ(judgeReply(WireStatus::Ok, 0, f.exact.data(), 4,
                         f.ref(/*centred=*/false)),
              Outcome::Wrong);
    EXPECT_EQ(exactVerdict(f.exact.data(), f.ref(/*centred=*/false)),
              Outcome::Wrong);
    EXPECT_EQ(exactVerdict(f.dense.data(), f.ref(/*centred=*/false)),
              Outcome::Ok);
    GateFixture g;
    g.exact[3] += 5e-5f; // within the 1e-4 logit tolerance
    EXPECT_EQ(judgeReply(WireStatus::Ok, 0, g.exact.data(), 4, g.ref()),
              Outcome::Ok);
    std::vector<float> nan = g.dense;
    nan[0] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(matchesDense(nan.data(), g.dense.data(), 4));
}

TEST(Gate, TypedStatuses)
{
    GateFixture f;
    EXPECT_EQ(judgeReply(WireStatus::InvalidArgument, 0, nullptr, 0,
                         f.ref(/*centred=*/true)),
              Outcome::Ok);
    EXPECT_EQ(judgeReply(WireStatus::InvalidArgument, 0, nullptr, 0,
                         f.ref(/*centred=*/false)),
              Outcome::Error);
    EXPECT_EQ(judgeReply(WireStatus::Overloaded, 2, nullptr, 0, f.ref()),
              Outcome::Refused);
    EXPECT_EQ(judgeReply(WireStatus::DeadlineExceeded, 0, nullptr, 0,
                         f.ref()),
              Outcome::Shed);
    EXPECT_EQ(judgeReply(WireStatus::WorkerLost, 0, nullptr, 0, f.ref()),
              Outcome::Error);
    EXPECT_FALSE(isFailure(Outcome::Refused));
    EXPECT_FALSE(isFailure(Outcome::Shed));
}

TEST(Pool, CentredShareIsFixedAndSeeded)
{
    const Pool a = makePool({3, 16, 16}, 5, 16);
    const Pool b = makePool({3, 16, 16}, 5, 16);
    ASSERT_EQ(a.images.size(), 16u);
    int centred = 0;
    for (size_t i = 0; i < a.images.size(); ++i) {
        centred += a.centred[i];
        EXPECT_EQ(a.centred[i], (i + 1) % 8 == 0);
        ASSERT_TRUE(bitwiseEqual(a.images[i].data(), b.images[i].data(),
                                 a.images[i].size()));
        float lo = 1, hi = -1;
        for (size_t k = 0; k < a.images[i].size(); ++k) {
            lo = std::min(lo, a.images[i][k]);
            hi = std::max(hi, a.images[i][k]);
        }
        EXPECT_GE(lo, a.centred[i] ? -1.0f : 0.0f);
        EXPECT_LE(hi, 1.0f);
        if (a.centred[i]) {
            EXPECT_LT(lo, 0.0f);
        }
    }
    EXPECT_EQ(centred, 2);
    const auto p = seededPermutation(10, 3);
    EXPECT_EQ(p, seededPermutation(10, 3));
    std::vector<size_t> sorted = p;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i);
}
