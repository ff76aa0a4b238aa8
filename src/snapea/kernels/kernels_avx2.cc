/**
 * @file
 * AVX2 kernels: 8 output windows per 256-bit register, one SIMD lane
 * per window (the vector analogue of the paper's multi-lane PE).
 * Each lane accumulates its window's taps in plan order with
 * separate mul and add, so results are bitwise identical to the
 * scalar reference.  Ragged `n % 8` row tails use masked loads/
 * gathers/stores for the dense and prefix kernels and the scalar
 * reference for the walk kernel.
 *
 * This TU is compiled with -mavx2 (see src/snapea/CMakeLists.txt)
 * and only ever called after runtime CPUID dispatch confirms the CPU
 * supports AVX2.
 */

#include <immintrin.h>

#include "snapea/kernels/kernels_impl.hh"

namespace snapea::kernels {

namespace {

constexpr int kLanes = 8;

/** Lane indices 0..7, used for tail masks and gather offsets. */
inline __m256i
laneIndex()
{
    return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

/** Mask with lanes [0, rem) active (all bits set). */
inline __m256i
tailMask(int rem)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(rem), laneIndex());
}

/** Gather indices {0, stride, ..., 7*stride}. */
inline __m256i
strideIndex(int stride)
{
    return _mm256_mullo_epi32(laneIndex(), _mm256_set1_epi32(stride));
}

/** One tap of 8 adjacent windows starting at @p p. */
template <bool S1>
inline __m256
load8(const float *p, __m256i vlx)
{
    if constexpr (S1)
        return _mm256_loadu_ps(p);
    else
        return _mm256_i32gather_ps(p, vlx, 4);
}

/** Masked variant of load8 for ragged tails (inactive lanes read 0). */
template <bool S1>
inline __m256
load8Masked(const float *p, __m256i vlx, __m256i mask)
{
    if constexpr (S1)
        return _mm256_maskload_ps(p, mask);
    else
        return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), p, vlx,
                                        _mm256_castsi256_ps(mask), 4);
}

/** acc + w*x with separate mul and add (the scalar rounding). */
inline __m256
mad(__m256 acc, __m256 vw, __m256 vx)
{
    return _mm256_add_ps(acc, _mm256_mul_ps(vw, vx));
}

template <bool S1>
void
convRow(const float *win0, int stride, int n, const float *w,
        const int32_t *off, int ntaps, int panel, float bias,
        float *out)
{
    const __m256i vlx = strideIndex(stride);
    const __m256 vbias = _mm256_set1_ps(bias);
    const int rem = n % kLanes;
    const int nv = n - rem;
    const __m256i tmask = tailMask(rem);

    for (int x = 0; x < nv; x += kLanes)
        _mm256_storeu_ps(out + x, vbias);
    if (rem)
        _mm256_maskstore_ps(out + nv, tmask, vbias);

    for (int t0 = 0; t0 < ntaps; t0 += panel) {
        const int t1 = std::min(t0 + panel, ntaps);
        for (int x = 0; x < nv; x += kLanes) {
            const float *base = win0 + static_cast<size_t>(x) * stride;
            __m256 acc = _mm256_loadu_ps(out + x);
            for (int t = t0; t < t1; ++t) {
                const __m256 vw = _mm256_set1_ps(w[t]);
                const __m256 vx = load8<S1>(base + off[t], vlx);
                acc = mad(acc, vw, vx);
            }
            _mm256_storeu_ps(out + x, acc);
        }
        if (rem) {
            const float *base = win0 + static_cast<size_t>(nv) * stride;
            __m256 acc = _mm256_maskload_ps(out + nv, tmask);
            for (int t = t0; t < t1; ++t) {
                const __m256 vw = _mm256_set1_ps(w[t]);
                const __m256 vx =
                    load8Masked<S1>(base + off[t], vlx, tmask);
                acc = mad(acc, vw, vx);
            }
            _mm256_maskstore_ps(out + nv, tmask, acc);
        }
    }
}

template <bool S1>
void
prefixRow(const PackedKernel &pk, const float *win0, int stride, int n,
          float *out)
{
    const float *w = pk.w.data();
    const int32_t *off = pk.off.data();
    const __m256i vlx = strideIndex(stride);
    const __m256 vbias = _mm256_set1_ps(pk.bias);
    const __m256 vth = _mm256_set1_ps(pk.th);
    const __m256 vneg1 = _mm256_set1_ps(-1.0f);
    const int rem = n % kLanes;
    const int nv = n - rem;

    for (int x = 0; x < nv; x += kLanes) {
        const float *base = win0 + static_cast<size_t>(x) * stride;
        __m256 acc = vbias;
        for (int t = 0; t < pk.prefix_len; ++t) {
            const __m256 vw = _mm256_set1_ps(w[t]);
            const __m256 vx = load8<S1>(base + off[t], vlx);
            acc = mad(acc, vw, vx);
        }
        // psum <= th  =>  squash to the PE's negative surrogate.
        const __m256 squash = _mm256_cmp_ps(acc, vth, _CMP_LE_OQ);
        const __m256 cur = _mm256_loadu_ps(out + x);
        _mm256_storeu_ps(out + x,
                         _mm256_blendv_ps(cur, vneg1, squash));
    }
    if (rem) {
        const __m256i tmask = tailMask(rem);
        const float *base = win0 + static_cast<size_t>(nv) * stride;
        __m256 acc = vbias;
        for (int t = 0; t < pk.prefix_len; ++t) {
            const __m256 vw = _mm256_set1_ps(w[t]);
            const __m256 vx = load8Masked<S1>(base + off[t], vlx, tmask);
            acc = mad(acc, vw, vx);
        }
        const __m256 squash = _mm256_cmp_ps(acc, vth, _CMP_LE_OQ);
        const __m256 cur = _mm256_maskload_ps(out + nv, tmask);
        _mm256_maskstore_ps(out + nv, tmask,
                            _mm256_blendv_ps(cur, vneg1, squash));
    }
}

/** The three-phase walk for one full tile of 8 interior windows. */
template <bool S1>
void
walkTile(const PackedKernel &pk, const float *base, __m256i vlx,
         bool need_full, const WalkSoa &res)
{
    const float *w = pk.w.data();
    const int32_t *off = pk.off.data();
    const int ks = static_cast<int>(pk.w.size());
    const __m256 vzero = _mm256_setzero_ps();

    // Phase 1: speculation prefix plus the PAU threshold check.
    __m256 acc = _mm256_set1_ps(pk.bias);
    for (int t = 0; t < pk.prefix_len; ++t) {
        const __m256 vw = _mm256_set1_ps(w[t]);
        const __m256 vx = load8<S1>(base + off[t], vlx);
        acc = mad(acc, vw, vx);
    }
    const __m256 spec = pk.prefix_len > 0
        ? _mm256_cmp_ps(acc, _mm256_set1_ps(pk.th), _CMP_LE_OQ)
        : vzero;
    const int spec_m = _mm256_movemask_ps(spec);

    // Phase 1b: for speculated lanes, continue (without counting
    // ops) until the true sign settles, freezing each lane's sum the
    // moment it goes negative inside the negative-weight run —
    // exactly walkWindow's need_full continuation, per lane.
    __m256 spec_full = vzero;
    if (spec_m && need_full) {
        __m256 full = acc;
        __m256 settled = vzero;
        for (int j = pk.prefix_len; j < ks; ++j) {
            const __m256 vw = _mm256_set1_ps(w[j]);
            const __m256 vx = load8<S1>(base + off[j], vlx);
            const __m256 fnew = mad(full, vw, vx);
            full = _mm256_blendv_ps(fnew, full, settled);
            if (j >= pk.neg_start) {
                const __m256 neg =
                    _mm256_cmp_ps(full, vzero, _CMP_LT_OQ);
                settled = _mm256_or_ps(settled,
                                       _mm256_and_ps(neg, spec));
                if (_mm256_movemask_ps(settled) == spec_m)
                    break;
            }
        }
        spec_full = full;
    }

    // Phases 2+3 for the remaining lanes: positive run unchecked,
    // then the negative run with per-tap sign checks.  A fired
    // lane's sum freezes (the blend keeps the old value); lanes that
    // already speculated accumulate garbage here and are masked out
    // of every decision and result below.
    __m256 acc2 = acc;
    __m256 sign = vzero;
    __m256i opsv = _mm256_set1_epi32(ks);
    const int live_m = ~spec_m & 0xff;
    if (live_m) {
        for (int t = pk.prefix_len; t < pk.neg_start; ++t) {
            const __m256 vw = _mm256_set1_ps(w[t]);
            const __m256 vx = load8<S1>(base + off[t], vlx);
            acc2 = mad(acc2, vw, vx);
        }
        for (int t = pk.neg_start; t < ks; ++t) {
            const __m256 vw = _mm256_set1_ps(w[t]);
            const __m256 vx = load8<S1>(base + off[t], vlx);
            const __m256 anew = mad(acc2, vw, vx);
            acc2 = _mm256_blendv_ps(anew, acc2, sign);
            const __m256 isneg =
                _mm256_cmp_ps(acc2, vzero, _CMP_LT_OQ);
            const __m256 newly = _mm256_andnot_ps(
                sign, _mm256_andnot_ps(spec, isneg));
            opsv = _mm256_blendv_epi8(opsv,
                                      _mm256_set1_epi32(t + 1),
                                      _mm256_castps_si256(newly));
            sign = _mm256_or_ps(sign, newly);
            if ((_mm256_movemask_ps(sign) & live_m) == live_m)
                break;
        }
    }

    // Assemble the SoA row: value the PE writes, the true sum where
    // known (0.0f otherwise, matching WindowWalk's default), Eq. (1)
    // op counts, and the termination flags.
    const __m256 vneg1 = _mm256_set1_ps(-1.0f);
    _mm256_storeu_ps(res.out, _mm256_blendv_ps(acc2, vneg1, spec));
    __m256 fullv = _mm256_blendv_ps(acc2, vzero, sign);
    fullv = _mm256_blendv_ps(fullv, need_full ? spec_full : vzero,
                             spec);
    _mm256_storeu_ps(res.full, fullv);
    opsv = _mm256_blendv_epi8(opsv,
                              _mm256_set1_epi32(pk.prefix_len),
                              _mm256_castps_si256(spec));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(res.ops), opsv);

    const int sign_m = _mm256_movemask_ps(sign);
    const uint8_t spec_flags = static_cast<uint8_t>(
        kWalkSpecFired | (need_full ? kWalkFullKnown : 0));
    for (int l = 0; l < kLanes; ++l) {
        if (spec_m >> l & 1)
            res.flags[l] = spec_flags;
        else if (sign_m >> l & 1)
            res.flags[l] = kWalkSignFired;
        else
            res.flags[l] = kWalkFullKnown;
    }
}

template <bool S1>
void
walkRow(const PackedKernel &pk, const float *win0, int stride, int n,
        bool need_full, const WalkSoa &res)
{
    const __m256i vlx = strideIndex(stride);
    int x = 0;
    for (; x + kLanes <= n; x += kLanes) {
        const WalkSoa tile = {res.out + x, res.full + x, res.ops + x,
                              res.flags + x};
        walkTile<S1>(pk, win0 + static_cast<size_t>(x) * stride,
                        vlx, need_full, tile);
    }
    if (x < n) {
        const WalkSoa tail = {res.out + x, res.full + x, res.ops + x,
                              res.flags + x};
        scalarWalkRow(pk, win0 + static_cast<size_t>(x) * stride,
                      stride, n - x, need_full, tail);
    }
}

void
convChan(const float *wt, const float *bias8,
         const float *const *bases, int nwin, const int32_t *off,
         const int32_t *idx, int ntaps, float *out8s)
{
    const __m256 vbias = _mm256_loadu_ps(bias8);
    int w = 0;
    // Four windows per pass so a weight row loaded once feeds four
    // accumulators (streams the transposed chunk nwin/4 times
    // instead of nwin).
    for (; w + 4 <= nwin; w += 4) {
        const float *b0 = bases[w], *b1 = bases[w + 1];
        const float *b2 = bases[w + 2], *b3 = bases[w + 3];
        __m256 a0 = vbias, a1 = vbias, a2 = vbias, a3 = vbias;
        for (int j = 0; j < ntaps; ++j) {
            const __m256 vw =
                _mm256_loadu_ps(wt + (idx ? idx[j] : j) * 8);
            const int32_t o = off[j];
            a0 = mad(a0, vw, _mm256_broadcast_ss(b0 + o));
            a1 = mad(a1, vw, _mm256_broadcast_ss(b1 + o));
            a2 = mad(a2, vw, _mm256_broadcast_ss(b2 + o));
            a3 = mad(a3, vw, _mm256_broadcast_ss(b3 + o));
        }
        _mm256_storeu_ps(out8s + w * 8, a0);
        _mm256_storeu_ps(out8s + (w + 1) * 8, a1);
        _mm256_storeu_ps(out8s + (w + 2) * 8, a2);
        _mm256_storeu_ps(out8s + (w + 3) * 8, a3);
    }
    for (; w < nwin; ++w) {
        const float *base = bases[w];
        __m256 acc = vbias;
        for (int j = 0; j < ntaps; ++j) {
            const __m256 vw =
                _mm256_loadu_ps(wt + (idx ? idx[j] : j) * 8);
            acc = mad(acc, vw, _mm256_broadcast_ss(base + off[j]));
        }
        _mm256_storeu_ps(out8s + w * 8, acc);
    }
}

/** Double-precision acc + w*x with separate mul and add. */
inline __m256d
madPd(__m256d acc, __m256d vw, __m256d vx)
{
    return _mm256_add_pd(acc, _mm256_mul_pd(vw, vx));
}

void
denseRows(const float *w, const float *x, const float *bias, int n_in,
          int n_out, float *out)
{
    const int n8 = n_in & ~7;
    for (int o = 0; o < n_out; ++o) {
        const float *wr = w + static_cast<size_t>(o) * n_in;
        // Two 4-double accumulators carry the eight interleaved
        // lanes of the DenseFn contract (lane j takes i == j mod 8).
        __m256d accl = _mm256_setzero_pd();
        __m256d acch = _mm256_setzero_pd();
        int i = 0;
        for (; i < n8; i += 8) {
            accl = madPd(accl, _mm256_cvtps_pd(_mm_loadu_ps(wr + i)),
                         _mm256_cvtps_pd(_mm_loadu_ps(x + i)));
            acch = madPd(acch,
                         _mm256_cvtps_pd(_mm_loadu_ps(wr + i + 4)),
                         _mm256_cvtps_pd(_mm_loadu_ps(x + i + 4)));
        }
        double a[8];
        _mm256_storeu_pd(a, accl);
        _mm256_storeu_pd(a + 4, acch);
        double acc = static_cast<double>(bias[o]);
        acc += ((a[0] + a[1]) + (a[2] + a[3]))
            + ((a[4] + a[5]) + (a[6] + a[7]));
        for (; i < n_in; ++i)
            acc += static_cast<double>(wr[i]) * x[i];
        out[o] = static_cast<float>(acc);
    }
}

/** Stride-dispatching wrappers (unit stride loads, else gathers). */
void
convRowDispatch(const float *win0, int stride, int n, const float *w,
                const int32_t *off, int ntaps, int panel, float bias,
                float *out)
{
    if (stride == 1)
        convRow<true>(win0, stride, n, w, off, ntaps, panel, bias, out);
    else
        convRow<false>(win0, stride, n, w, off, ntaps, panel, bias, out);
}

void
prefixRowDispatch(const PackedKernel &pk, const float *win0,
                  int stride, int n, float *out)
{
    if (stride == 1)
        prefixRow<true>(pk, win0, stride, n, out);
    else
        prefixRow<false>(pk, win0, stride, n, out);
}

void
walkRowDispatch(const PackedKernel &pk, const float *win0, int stride,
                int n, bool need_full, const WalkSoa &res)
{
    if (stride == 1)
        walkRow<true>(pk, win0, stride, n, need_full, res);
    else
        walkRow<false>(pk, win0, stride, n, need_full, res);
}

} // namespace

const KernelOps &
avx2KernelOps()
{
    static const KernelOps ops = {
        "avx2", Isa::Avx2, kLanes,
        &convRowDispatch, &prefixRowDispatch, &walkRowDispatch,
        &denseRows, &convChan,
    };
    return ops;
}

} // namespace snapea::kernels
