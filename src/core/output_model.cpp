#include "core/output_model.h"

#include <algorithm>

#include "common/logging.h"

namespace ulpdp {

namespace {

void
checkArgs(const std::shared_ptr<const NoisePmf> &pmf, int64_t span)
{
    if (!pmf)
        fatal("output model: pmf must not be null");
    if (span <= 0)
        fatal("output model: span must be positive, got %lld",
              static_cast<long long>(span));
}

} // anonymous namespace

double
windowMass(const NoisePmf &pmf, int64_t lo, int64_t hi)
{
    // Pr[lo <= n <= hi] = Pr[n >= lo] - Pr[n >= hi + 1]. Every mass
    // is a state count over 2^(Bu+1) < 2^53, so both tails and their
    // difference are exact doubles -- bit-identical to summing pmf()
    // over the window, whose partial sums are exact for the same
    // reason.
    return pmf.upperMass(lo) - pmf.upperMass(hi + 1);
}

MassSlice::MassSlice(const NoisePmf &pmf, int64_t span,
                     int64_t threshold)
    : hi_(span + threshold),
      mass_(static_cast<size_t>(2 * (span + threshold)) + 1)
{
    for (size_t n = 0; n < mass_.size(); ++n)
        mass_[n] = pmf.pmf(hi_ - static_cast<int64_t>(n));
}

double
DiscreteOutputModel::prob(int64_t j, int64_t i) const
{
    ULPDP_ASSERT(i >= 0 && i <= span());
    std::vector<double> out(static_cast<size_t>(span()) + 1);
    row(j, out.data());
    return out[static_cast<size_t>(i)];
}

// --- NaiveOutputModel ----------------------------------------------------

NaiveOutputModel::NaiveOutputModel(
        std::shared_ptr<const NoisePmf> pmf, int64_t span)
    : span_(span)
{
    checkArgs(pmf, span_);
    max_index_ = pmf->maxIndex();
    mass_ = MassSlice(*pmf, span_, max_index_);
}

void
NaiveOutputModel::row(int64_t j, double *out) const
{
    size_t n = static_cast<size_t>(span_) + 1;
    if (j < outputLo() || j > outputHi()) {
        std::fill(out, out + n, 0.0);
        return;
    }
    std::copy(mass_.from(j), mass_.from(j) + n, out);
}

// --- ResamplingOutputModel -----------------------------------------------

ResamplingOutputModel::ResamplingOutputModel(
        std::shared_ptr<const NoisePmf> pmf, int64_t span,
        int64_t threshold)
    : span_(span), threshold_(threshold)
{
    checkArgs(pmf, span_);
    if (threshold_ < 0)
        fatal("ResamplingOutputModel: threshold must be non-negative");
    mass_ = MassSlice(*pmf, span_, threshold_);

    accept_.resize(static_cast<size_t>(span_) + 1);
    for (int64_t i = 0; i <= span_; ++i) {
        double z = windowMass(*pmf, outputLo() - i, outputHi() - i);
        accept_[static_cast<size_t>(i)] = z;
        if (z <= 0.0)
            fatal("ResamplingOutputModel: input %lld has zero "
                  "acceptance probability -- the hardware would "
                  "resample forever", static_cast<long long>(i));
    }
}

void
ResamplingOutputModel::row(int64_t j, double *out) const
{
    size_t n = static_cast<size_t>(span_) + 1;
    if (j < outputLo() || j > outputHi()) {
        std::fill(out, out + n, 0.0);
        return;
    }
    const double *mass = mass_.from(j);
    const double *accept = accept_.data();
    for (size_t i = 0; i < n; ++i)
        out[i] = mass[i] / accept[i];
}

double
ResamplingOutputModel::acceptProbability(int64_t i) const
{
    ULPDP_ASSERT(i >= 0 && i <= span_);
    return accept_[static_cast<size_t>(i)];
}

double
ResamplingOutputModel::expectedSamples(int64_t i) const
{
    return 1.0 / acceptProbability(i);
}

// --- ThresholdingOutputModel ---------------------------------------------

ThresholdingOutputModel::ThresholdingOutputModel(
        std::shared_ptr<const NoisePmf> pmf, int64_t span,
        int64_t threshold)
    : pmf_(std::move(pmf)), span_(span), threshold_(threshold)
{
    checkArgs(pmf_, span_);
    if (threshold_ < 0)
        fatal("ThresholdingOutputModel: threshold must be "
              "non-negative");
    mass_ = MassSlice(*pmf_, span_, threshold_);
}

void
ThresholdingOutputModel::row(int64_t j, double *out) const
{
    int64_t lo = outputLo();
    int64_t hi = outputHi();
    size_t n = static_cast<size_t>(span_) + 1;
    if (j < lo || j > hi) {
        std::fill(out, out + n, 0.0);
    } else if (j == lo || j == hi) {
        atomRow(*pmf_, span_, threshold_, j == hi, out);
    } else {
        std::copy(mass_.from(j), mass_.from(j) + n, out);
    }
}

void
ThresholdingOutputModel::atomRow(const NoisePmf &pmf, int64_t span,
                                 int64_t threshold, bool upper,
                                 double *out)
{
    // Everything at or beyond the boundary; the lower atom by the
    // sign symmetry of the PMF.
    for (int64_t i = 0; i <= span; ++i)
        out[i] = pmf.upperMass(upper ? span + threshold - i
                                     : i + threshold);
}

// --- RandomizedResponseOutputModel ---------------------------------------

RandomizedResponseOutputModel::RandomizedResponseOutputModel(
        std::shared_ptr<const NoisePmf> pmf, int64_t span)
    : span_(span)
{
    checkArgs(pmf, span);
    int64_t cross = span / 2 + 1;
    flip_prob_ = pmf->tailMass(cross);
}

void
RandomizedResponseOutputModel::row(int64_t j, double *out) const
{
    // Intermediate inputs snap to the nearer category, midpoint ties
    // toward the lower one (matching RandomizedResponse::noise()).
    for (int64_t i = 0; i <= span_; ++i) {
        int64_t cat = (2 * i > span_) ? span_ : 0;
        if (j != 0 && j != span_)
            out[i] = 0.0;
        else
            out[i] = (j == cat) ? 1.0 - flip_prob_ : flip_prob_;
    }
}

} // namespace ulpdp
