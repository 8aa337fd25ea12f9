#include "agg/decode.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "core/kary_randomized_response.h"

namespace ulpdp {
namespace agg {

namespace {

/**
 * Invert a dense n x n matrix in place via Gauss-Jordan with partial
 * pivoting. The normal-equations Gram matrix here is symmetric
 * positive definite for any full-column-rank channel, so a vanishing
 * pivot means the channel itself is rank-deficient.
 */
std::vector<double>
invertDense(std::vector<double> g, size_t n)
{
    std::vector<double> inv(n * n, 0.0);
    for (size_t i = 0; i < n; ++i)
        inv[i * n + i] = 1.0;
    for (size_t col = 0; col < n; ++col) {
        size_t pivot = col;
        double best = std::fabs(g[col * n + col]);
        for (size_t r = col + 1; r < n; ++r) {
            double v = std::fabs(g[r * n + col]);
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best < 1e-12) {
            fatal("frequency decoder: channel matrix is rank-"
                  "deficient at column %zu (pivot %g)", col, best);
        }
        if (pivot != col) {
            for (size_t c = 0; c < n; ++c) {
                std::swap(g[pivot * n + c], g[col * n + c]);
                std::swap(inv[pivot * n + c], inv[col * n + c]);
            }
        }
        double scale = 1.0 / g[col * n + col];
        for (size_t c = 0; c < n; ++c) {
            g[col * n + c] *= scale;
            inv[col * n + c] *= scale;
        }
        for (size_t r = 0; r < n; ++r) {
            if (r == col)
                continue;
            double f = g[r * n + col];
            if (f == 0.0)
                continue;
            for (size_t c = 0; c < n; ++c) {
                g[r * n + c] -= f * g[col * n + c];
                inv[r * n + c] -= f * inv[col * n + c];
            }
        }
    }
    return inv;
}

/** Vectors of doubles: two to an SSE2 register, four to an AVX2 one
 *  (a one-input channel runs on plain doubles). Loads and stores go
 *  through memcpy (unaligned). */
typedef double Pair __attribute__((vector_size(16)));
typedef double Quad __attribute__((vector_size(32)));

/**
 * out[a0 + a] = sum over slots j of m[j][a0 + a] * w[j] for a < width,
 * in ceil(width / lanes) <= NV vectors; returns sum_j w[j]. Each sum
 * adds its terms one at a time in slot order, an IEEE multiply then an
 * IEEE add (the file is built -ffp-contract=off), so it is bit-
 * identical to a slot-at-a-time loop; the sums stay in registers for
 * the whole pass. The last vector ends at a0 + width and may overlap
 * its neighbour: the lanes both cover get the same sum from each.
 * Zero-weight slots are skipped.
 */
template <typename V, int NV, typename W>
inline __attribute__((always_inline)) double
columnBlock(const double *m, size_t slots, size_t n, const W *w,
            size_t a0, size_t width, double *out)
{
    constexpr size_t L = sizeof(V) / sizeof(double);
    if constexpr (NV > 1) {
        if (width <= (NV - 1) * L)
            return columnBlock<V, NV - 1>(m, slots, n, w, a0, width, out);
    }
    const size_t last = width - L;
    V acc[NV] = {};
    double total = 0.0;
    for (size_t j = 0; j < slots; ++j) {
        if (w[j] == 0)
            continue;
        const double wj = static_cast<double>(w[j]);
        const double *row = m + j * n + a0;
        total = total + wj;
#pragma GCC unroll 16
        for (int v = 0; v < NV; ++v) {
            V x;
            std::memcpy(&x, row + (v + 1 < NV ? v * L : last), sizeof x);
            acc[v] = acc[v] + x * wj;
        }
    }
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
        std::memcpy(out + a0 + (v + 1 < NV ? v * L : last), &acc[v],
                    sizeof acc[v]);
    }
    return total;
}

/**
 * The column kernel: out = M^T w over a slot-major slots x n matrix
 * (n >= lanes), one pass over the slots per block of up to MaxNV
 * vectors; returns sum_j w[j] in slot order. A last block narrower
 * than a vector backs up into its neighbour.
 */
template <typename V, int MaxNV, typename W>
inline __attribute__((always_inline)) double
columnSumsIsa(const double *m, size_t slots, size_t n, const W *w,
              double *out)
{
    constexpr size_t L = sizeof(V) / sizeof(double);
    double total = 0.0;
    for (size_t a0 = 0; a0 < n; a0 += MaxNV * L) {
        const size_t b0 = std::min(a0, n - L);
        total = columnBlock<V, MaxNV>(m, slots, n, w, b0,
                                      std::min(n - b0, MaxNV * L), out);
    }
    return total;
}

/** Vectors per block. Either ISA sums the 33 inputs of the reference
 *  32-step grid in one pass; under SSE2 a few of the 17 sums spill,
 *  which still beats a second pass over the slots. */
constexpr int kBaseVecs = 17;
constexpr int kAvx2Vecs = 12;

#if defined(ULPDP_SIMD_AVX2)
template <typename W>
__attribute__((target("avx2"))) double
columnSumsAvx2(const double *m, size_t slots, size_t n, const W *w,
               double *out)
{
    return columnSumsIsa<Quad, kAvx2Vecs>(m, slots, n, w, out);
}
#endif

/** out[a] = sum_j m[j * n + a] * w[j] in slot order (zero w[j]
 *  skipped) on the widest kernel the host runs; returns sum_j w[j]. */
template <typename W>
double
columnSums(const double *m, size_t slots, size_t n, const W *w,
           double *out)
{
#if defined(ULPDP_SIMD_AVX2)
    static const bool avx2 = __builtin_cpu_supports("avx2") != 0;
    if (avx2 && n >= 4)
        return columnSumsAvx2(m, slots, n, w, out);
#endif
    if (n < 2)
        return columnSumsIsa<double, 1>(m, slots, n, w, out);
    return columnSumsIsa<Pair, kBaseVecs>(m, slots, n, w, out);
}

} // namespace

FrequencyDecoder::FrequencyDecoder(const DiscreteOutputModel &model)
{
    inputs_ = static_cast<size_t>(model.span()) + 1;
    output_lo_ = model.outputLo();
    outputs_ =
        static_cast<size_t>(model.outputHi() - model.outputLo()) + 1;
    ULPDP_ASSERT(inputs_ >= 1 && outputs_ >= inputs_);

    kernel_.resize(outputs_ * inputs_);
    for (size_t j = 0; j < outputs_; ++j)
        model.row(output_lo_ + static_cast<int64_t>(j),
                  &kernel_[j * inputs_]);

    // Gram matrix G = M^T M (inputs x inputs), then
    // pinv = G^{-1} M^T (inputs x outputs).
    std::vector<double> gram(inputs_ * inputs_, 0.0);
    for (size_t j = 0; j < outputs_; ++j) {
        const double *row = &kernel_[j * inputs_];
        for (size_t a = 0; a < inputs_; ++a) {
            if (row[a] == 0.0)
                continue;
            for (size_t b = 0; b < inputs_; ++b)
                gram[a * inputs_ + b] += row[a] * row[b];
        }
    }
    std::vector<double> ginv = invertDense(std::move(gram), inputs_);
    pinv_.assign(inputs_ * outputs_, 0.0);
    for (size_t a = 0; a < inputs_; ++a) {
        for (size_t j = 0; j < outputs_; ++j) {
            double acc = 0.0;
            const double *row = &kernel_[j * inputs_];
            const double *gin = &ginv[a * inputs_];
            for (size_t b = 0; b < inputs_; ++b)
                acc += gin[b] * row[b];
            pinv_[j * inputs_ + a] = acc;
        }
    }
}

DecodedFrequencies
FrequencyDecoder::decode(const std::vector<uint64_t> &slot_counts,
                         double input_value0, double delta) const
{
    if (slot_counts.size() != outputs_) {
        fatal("frequency decode: %zu slot counts for a %zu-output "
              "channel", slot_counts.size(), outputs_);
    }
    DecodedFrequencies out;
    out.counts.assign(inputs_, 0.0);
    out.total = columnSums(pinv_.data(), outputs_, inputs_,
                           slot_counts.data(), out.counts.data());
    if (out.total <= 0.0)
        return out;

    // Moments from the raw (possibly negative) unbiased counts,
    // normalized by the observed total: linearity keeps the mean
    // unbiased; the variance is clamped at zero because subtracting
    // the squared mean can undershoot on small samples.
    double m1 = 0.0, m2 = 0.0;
    for (size_t i = 0; i < inputs_; ++i) {
        double v = input_value0 + static_cast<double>(i) * delta;
        m1 += out.counts[i] * v;
        m2 += out.counts[i] * v * v;
    }
    out.mean = m1 / out.total;
    out.variance =
        std::max(0.0, m2 / out.total - out.mean * out.mean);

    // Clamped, renormalized pmf for the order statistics.
    out.pmf.assign(inputs_, 0.0);
    double pos = 0.0;
    for (size_t i = 0; i < inputs_; ++i) {
        double c = std::max(0.0, out.counts[i]);
        out.pmf[i] = c;
        pos += c;
    }
    if (pos > 0.0) {
        for (double &p : out.pmf)
            p /= pos;
    }

    // Median: walk the pmf CDF to the 0.5 crossing and interpolate
    // inside the crossing cell (grid cells have width delta).
    double cum = 0.0;
    out.median = input_value0 +
                 static_cast<double>(inputs_ - 1) * delta;
    for (size_t i = 0; i < inputs_; ++i) {
        double p = out.pmf[i];
        if (cum + p >= 0.5 && p > 0.0) {
            double frac = (0.5 - cum) / p;
            out.median =
                input_value0 + (static_cast<double>(i) + frac) * delta;
            break;
        }
        cum += p;
    }

    // Boundary diagnostics: the extreme slots are the thresholding
    // clamp atoms; under naive/resampling they are just the window
    // edges and both numbers stay near zero.
    out.boundary_mass_observed =
        (static_cast<double>(slot_counts.front()) +
         static_cast<double>(slot_counts.back())) /
        out.total;
    double expected = 0.0;
    for (size_t i = 0; i < inputs_; ++i) {
        expected += out.pmf[i] * (kernel_[i] +
                                  kernel_[(outputs_ - 1) * inputs_ + i]);
    }
    out.boundary_mass_expected = expected;
    return out;
}

std::vector<double>
FrequencyDecoder::maximumLikelihood(
        const std::vector<uint64_t> &slot_counts, int iterations) const
{
    if (iterations < 1)
        fatal("maximum-likelihood decode: iterations must be "
              "positive, got %d", iterations);
    if (slot_counts.size() != outputs_) {
        fatal("maximum-likelihood decode: %zu slot counts for a "
              "%zu-output channel", slot_counts.size(), outputs_);
    }

    double total = 0.0;
    for (uint64_t c : slot_counts)
        total += static_cast<double>(c);
    if (total <= 0.0)
        fatal("maximum-likelihood decode: no reports");

    // Richardson-Lucy EM: pi <- pi * M^T (r / (M pi)); the fixed
    // point is the multinomial ML estimate.
    std::vector<double> pi(inputs_, 1.0 / static_cast<double>(inputs_));
    std::vector<double> ratio(outputs_);
    std::vector<double> next(inputs_);
    for (int it = 0; it < iterations; ++it) {
        for (size_t j = 0; j < outputs_; ++j) {
            double p = 0.0;
            const double *row = &kernel_[j * inputs_];
            for (size_t i = 0; i < inputs_; ++i)
                p += row[i] * pi[i];
            ratio[j] = slot_counts[j] == 0 || p <= 0.0
                ? 0.0
                : static_cast<double>(slot_counts[j]) / total / p;
        }
        columnSums(kernel_.data(), outputs_, inputs_, ratio.data(),
                   next.data());
        double norm = 0.0;
        for (size_t i = 0; i < inputs_; ++i) {
            pi[i] *= next[i];
            norm += pi[i];
        }
        if (norm <= 0.0)
            fatal("maximum-likelihood decode: EM collapsed (all mass "
                  "on impossible outputs?)");
        for (auto &v : pi)
            v /= norm;
    }
    return pi;
}

std::vector<double>
decodeKaryRR(const KaryRandomizedResponse &rr,
             const std::vector<uint64_t> &observed)
{
    if (observed.size() != static_cast<size_t>(rr.numCategories())) {
        fatal("k-ary RR decode: %zu counts for %d categories",
              observed.size(), rr.numCategories());
    }
    uint64_t n = 0;
    for (uint64_t c : observed)
        n += c;
    std::vector<double> est(observed.size(), 0.0);
    double nd = static_cast<double>(n);
    double lie_prob = rr.lieProbability();
    double denom = rr.truthProbability() - lie_prob;
    for (size_t i = 0; i < observed.size(); ++i) {
        double raw =
            (static_cast<double>(observed[i]) - nd * lie_prob) / denom;
        est[i] = std::min(nd, std::max(0.0, raw));
    }
    return est;
}

double
decodedCountAbove(const DecodedFrequencies &decoded,
                  double input_value0, double delta, double threshold)
{
    double count = 0.0;
    for (size_t i = 0; i < decoded.counts.size(); ++i) {
        double v = input_value0 + static_cast<double>(i) * delta;
        if (v >= threshold)
            count += decoded.counts[i];
    }
    return std::max(0.0, count);
}

} // namespace agg
} // namespace ulpdp
