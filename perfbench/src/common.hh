/**
 * @file
 * What the workloads share: the zoo configuration, the seeded image
 * pools, the correctness gate, and the run options.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hh"
#include "nn/tensor.hh"
#include "serve/params_cache.hh"
#include "serve/protocol.hh"
#include "snapea/engine.hh"

namespace perfbench {

/** Options of one workload run (main.cc sets them from its workload table). */
struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;   ///< Scratch directory inside the checkout.
    std::string serve_exe; ///< The snapea_serve binary.
    int pool = 0;          ///< Images per model pool.
    int setups = 0;        ///< Set-up repetitions (setup_s = median).
};

/** Every kCentredEvery-th pool image is centred. */
inline constexpr int kCentredEvery = 8;

/** Daemon worker processes (each with one compute thread). */
inline constexpr int kDaemonWorkers = 2;

/** Execution modes a workload times, and their metric keys. */
enum Mode { kDense, kFast, kExact, kPred, kInstr, kModes };
inline constexpr const char *kModeKey[kModes] = {"dense", "fast", "exact",
                                                 "pred", "instr"};

/** A model at the resolution the zoo workload runs it at. */
struct ZooEntry
{
    const char *model; ///< Model zoo name.
    const char *key;   ///< Lower-case metric key.
    int px;            ///< Input resolution.
};

/** The four zoo models at the ROADMAP table's resolutions. */
inline constexpr ZooEntry kZoo[] = {
    {"AlexNet", "alexnet", 48},
    {"VGGNet", "vggnet", 48},
    {"SqueezeNet", "squeezenet", 64},
    {"GoogLeNet", "googlenet", 64},
};

/**
 * Seed of the image pools.  The pools are fixed so every ratio the
 * gate computes (ok_share, pred_top1_match) is taken over the same
 * set on every run; the workload seed drives how requests draw from
 * them (order, arrival times).
 */
inline constexpr uint64_t kPoolSeed = 2018;

/** A seeded image pool for one input shape. */
struct Pool
{
    std::vector<snapea::Tensor> images;
    std::vector<bool> centred; ///< Image i is in [-1, 1), not [0, 1).
};

/**
 * @p n synthetic images of @p shape from the workload generator
 * (non-negative, in [0, 1)), seeded by @p seed; every
 * kCentredEvery-th image (indices 7, 15, ...) is mapped to 2x-1, the
 * mean-centred form a preprocessing pipeline would send.  The centred
 * share is fixed by construction.
 */
Pool makePool(const std::vector<int> &shape, uint64_t seed, int n);

/** A permutation of [0, n) drawn from @p seed (Fisher-Yates). */
std::vector<size_t> seededPermutation(size_t n, uint64_t seed);

/** Index of the largest element (first on ties). */
size_t top1(const float *v, size_t n);

/** Bitwise equality of two float arrays. */
bool bitwiseEqual(const float *a, const float *b, size_t n);

/** Logit tolerance of the exact level against plain dense. */
inline constexpr float kExactTol = 1e-4f;

/**
 * The exact-level contract against plain dense: same top-1 and every
 * logit within kExactTol.  False on any non-finite value.
 */
bool matchesDense(const float *got, const float *dense, size_t n);

/** Bench-side references of one pool image. */
struct ImageRef
{
    const float *dense = nullptr; ///< Plain dense output.
    const float *exact = nullptr; ///< Serving engine, exact plan.
    const float *pred = nullptr;  ///< Serving engine, predictive plan.
    size_t n = 0;                 ///< Output element count.
    bool centred = false;
};

/** How one request or forward came out. */
enum class Outcome {
    Ok,         ///< A correct answer (or a typed refusal of a centred input).
    Refused,    ///< Overloaded: admission control turned it away.
    Shed,       ///< DeadlineExceeded: dropped past its deadline.
    Wrong,      ///< Ok reply that differs from the reference at its level.
    Inexact,    ///< Exact-level answer of a centred input equal to the
                ///< exact reference but not to plain dense: the known
                ///< signed-input exactness defect.
    Error,      ///< Any other status.
};

/** True for outcomes that count as failed. */
inline bool
isFailure(Outcome o)
{
    return o == Outcome::Wrong || o == Outcome::Inexact
        || o == Outcome::Error;
}

/**
 * The exact level against plain dense for an answer of @p ref's
 * image: Ok when it matchesDense; otherwise Inexact for a centred
 * input (the signed-input defect the workloads keep visible) and
 * Wrong for a non-negative one, where the exact walk has no excuse.
 */
Outcome exactVerdict(const float *got, const ImageRef &ref);

/**
 * The correctness gate for one serving reply: an Ok must be bitwise
 * equal to the bench-side reference at the reply's reported level,
 * and an exact-level Ok must also pass exactVerdict.
 * A typed InvalidArgument is a correct answer for a centred input
 * and an Error otherwise.
 */
Outcome judgeReply(snapea::serve::WireStatus status, int level,
                   const float *out, size_t n, const ImageRef &ref);

/** Milliseconds between two steady-clock ns stamps. */
inline double
msBetween(int64_t t0, int64_t t1)
{
    return (t1 - t0) / 1e6;
}

/**
 * A SnapeaEngine over @p cache's plan for @p level (Exact or
 * Predictive), in @p exec mode.
 */
std::unique_ptr<snapea::SnapeaEngine>
makeEngine(const snapea::serve::ParamsCache &cache,
           snapea::serve::ServeLevel level, snapea::ExecMode exec);

/**
 * One engine per mode over @p cache (eng[kDense] stays null: plain
 * dense runs without an override): Fast, Instrumented and Serving on
 * the predictive plan, Serving on the exact plan.
 */
void makeModeEngines(const snapea::serve::ParamsCache &cache,
                     std::unique_ptr<snapea::SnapeaEngine> (&eng)[kModes]);

/** Where a traced run writes its spans (inside Options::workdir). */
std::string spanPath(const Options &opt);

/** Host/build/config fingerprint shared by every workload. */
void fingerprint(Result &r, const Options &opt);

/** Workload entry points. */
Result runOffline(const Options &opt);
Result runServe(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
