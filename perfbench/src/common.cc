#include "common.hh"

#include <cmath>
#include <cstring>
#include <random>

#include "snapea/kernels/cpu_features.hh"
#include "snapea/kernels/kernels.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "workload/dataset.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using snapea::serve::WireStatus;

Pool
makePool(const std::vector<int> &shape, uint64_t seed, int n)
{
    snapea::Rng rng(seed);
    snapea::DatasetSpec spec;
    spec.num_classes = n;
    spec.images_per_class = 1;
    snapea::Dataset data = snapea::makeDataset(rng, shape, spec);
    Pool pool;
    pool.images = std::move(data.images);
    pool.centred.assign(pool.images.size(), false);
    for (size_t i = 0; i < pool.images.size(); ++i) {
        if ((i + 1) % kCentredEvery != 0)
            continue;
        snapea::Tensor &t = pool.images[i];
        for (size_t k = 0; k < t.size(); ++k)
            t[k] = 2.0f * t[k] - 1.0f;
        pool.centred[i] = true;
    }
    return pool;
}

std::vector<size_t>
seededPermutation(size_t n, uint64_t seed)
{
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i)
        perm[i] = i;
    std::mt19937_64 gen(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(perm[i - 1], perm[gen() % i]);
    return perm;
}

size_t
top1(const float *v, size_t n)
{
    size_t best = 0;
    for (size_t i = 1; i < n; ++i)
        if (v[i] > v[best])
            best = i;
    return best;
}

bool
bitwiseEqual(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool
matchesDense(const float *got, const float *dense, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        if (!std::isfinite(got[i])
            || !(std::fabs(got[i] - dense[i]) <= kExactTol)) {
            return false;
        }
    }
    return n > 0 && top1(got, n) == top1(dense, n);
}

Outcome
exactVerdict(const float *got, const ImageRef &ref)
{
    if (matchesDense(got, ref.dense, ref.n))
        return Outcome::Ok;
    return ref.centred ? Outcome::Inexact : Outcome::Wrong;
}

Outcome
judgeReply(WireStatus status, int level, const float *out, size_t n,
           const ImageRef &ref)
{
    switch (status) {
      case WireStatus::Ok:
        break;
      case WireStatus::Overloaded:
        return Outcome::Refused;
      case WireStatus::DeadlineExceeded:
        return Outcome::Shed;
      case WireStatus::InvalidArgument:
        return ref.centred ? Outcome::Ok : Outcome::Error;
      default:
        return Outcome::Error;
    }
    if (n != ref.n || !out)
        return Outcome::Wrong;
    if (level == 0) {
        if (!bitwiseEqual(out, ref.exact, n))
            return Outcome::Wrong;
        return exactVerdict(out, ref);
    }
    if (level == 1)
        return bitwiseEqual(out, ref.pred, n) ? Outcome::Ok
                                              : Outcome::Wrong;
    return Outcome::Wrong;
}

std::unique_ptr<snapea::SnapeaEngine>
makeEngine(const snapea::serve::ParamsCache &cache,
           snapea::serve::ServeLevel level, snapea::ExecMode exec)
{
    auto e = std::make_unique<snapea::SnapeaEngine>(cache.net(),
                                                    cache.plan(level));
    e->setMode(exec);
    return e;
}

void
makeModeEngines(const snapea::serve::ParamsCache &cache,
                std::unique_ptr<snapea::SnapeaEngine> (&eng)[kModes])
{
    using snapea::ExecMode;
    using snapea::serve::ServeLevel;
    eng[kDense].reset();
    eng[kFast] = makeEngine(cache, ServeLevel::Predictive, ExecMode::Fast);
    eng[kExact] = makeEngine(cache, ServeLevel::Exact, ExecMode::Serving);
    eng[kPred] =
        makeEngine(cache, ServeLevel::Predictive, ExecMode::Serving);
    eng[kInstr] = makeEngine(cache, ServeLevel::Predictive,
                             ExecMode::Instrumented);
}

std::string
spanPath(const Options &opt)
{
    return opt.workdir + "/spans-" + opt.workload + "-"
        + std::to_string(opt.seed) + ".tsv";
}

void
fingerprint(Result &r, const Options &opt)
{
    const snapea::kernels::CpuInfo &cpu = snapea::kernels::cpuInfo();
    r.note("nproc", cpu.hardware_threads);
    r.noteStr("isa", snapea::kernels::kernelOps().name);
    r.note("l1d_kib", static_cast<double>(cpu.l1d_bytes / 1024));
    r.note("l2_kib", static_cast<double>(cpu.l2_bytes / 1024));
    r.noteStr("build_type", PERFBENCH_BUILD_TYPE);
    r.noteStr("compiler", __VERSION__);
    r.noteStr("workload", opt.workload);
    r.note("seed", static_cast<double>(opt.seed));
    r.note("seconds", opt.seconds);
    r.note("trace", opt.trace ? 1 : 0);
    r.note("pool_per_model", opt.pool);
    r.note("centred_every", kCentredEvery);
    r.note("setups", opt.setups);
    r.note("bench_threads", snapea::util::threadCount());
}

} // namespace perfbench
