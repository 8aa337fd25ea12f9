#include "agg/decode.h"

#include <algorithm>
#include <cmath>

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

    // Skip the dense multiply's zero columns: post-epoch slot counts
    // are concentrated on the populated window, and per-trial decode
    // in the utility benches sees mostly-sparse vectors. Nonzero
    // slots are applied four at a time: every input still adds its
    // terms one by one in slot order (bit-identical to a slot-at-a-
    // time loop), but loads and stores its running count once per
    // four terms instead of once per term.
    double *acc = out.counts.data();
    const size_t n = inputs_;
    const double *col[4];
    double rd[4];
    int pending = 0;
    double total = 0.0;
    for (size_t j = 0; j < outputs_; ++j) {
        uint64_t r = slot_counts[j];
        if (r == 0)
            continue;
        rd[pending] = static_cast<double>(r);
        total += rd[pending];
        col[pending] = &pinv_[j * n];
        if (++pending < 4)
            continue;
        pending = 0;
        for (size_t a = 0; a < n; ++a) {
            acc[a] = (((acc[a] + col[0][a] * rd[0]) +
                       col[1][a] * rd[1]) +
                      col[2][a] * rd[2]) +
                     col[3][a] * rd[3];
        }
    }
    for (int k = 0; k < pending; ++k) {
        for (size_t a = 0; a < n; ++a)
            acc[a] += col[k][a] * rd[k];
    }
    out.total = total;
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
    std::vector<double> predicted(outputs_);
    std::vector<double> next(inputs_);
    for (int it = 0; it < iterations; ++it) {
        for (size_t j = 0; j < outputs_; ++j) {
            double p = 0.0;
            const double *row = &kernel_[j * inputs_];
            for (size_t i = 0; i < inputs_; ++i)
                p += row[i] * pi[i];
            predicted[j] = p;
        }
        for (size_t i = 0; i < inputs_; ++i)
            next[i] = 0.0;
        for (size_t j = 0; j < outputs_; ++j) {
            if (slot_counts[j] == 0 || predicted[j] <= 0.0)
                continue;
            double ratio = static_cast<double>(slot_counts[j]) /
                           total / predicted[j];
            const double *row = &kernel_[j * inputs_];
            for (size_t i = 0; i < inputs_; ++i)
                next[i] += row[i] * ratio;
        }
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
