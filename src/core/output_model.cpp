#include "core/output_model.h"

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

// --- NaiveOutputModel ----------------------------------------------------

NaiveOutputModel::NaiveOutputModel(
        std::shared_ptr<const NoisePmf> pmf, int64_t span)
    : pmf_(std::move(pmf)), span_(span)
{
    checkArgs(pmf_, span_);
}

int64_t
NaiveOutputModel::outputLo() const
{
    return -pmf_->maxIndex();
}

int64_t
NaiveOutputModel::outputHi() const
{
    return span_ + pmf_->maxIndex();
}

double
NaiveOutputModel::prob(int64_t j, int64_t i) const
{
    ULPDP_ASSERT(i >= 0 && i <= span_);
    return pmf_->pmf(j - i);
}

// --- ResamplingOutputModel -----------------------------------------------

ResamplingOutputModel::ResamplingOutputModel(
        std::shared_ptr<const NoisePmf> pmf, int64_t span,
        int64_t threshold)
    : pmf_(std::move(pmf)), span_(span), threshold_(threshold)
{
    checkArgs(pmf_, span_);
    if (threshold_ < 0)
        fatal("ResamplingOutputModel: threshold must be non-negative");

    accept_.resize(static_cast<size_t>(span_) + 1);
    for (int64_t i = 0; i <= span_; ++i) {
        double z = windowMass(*pmf_, outputLo() - i, outputHi() - i);
        accept_[static_cast<size_t>(i)] = z;
        if (z <= 0.0)
            fatal("ResamplingOutputModel: input %lld has zero "
                  "acceptance probability -- the hardware would "
                  "resample forever", static_cast<long long>(i));
    }
}

double
ResamplingOutputModel::prob(int64_t j, int64_t i) const
{
    ULPDP_ASSERT(i >= 0 && i <= span_);
    if (j < outputLo() || j > outputHi())
        return 0.0;
    return pmf_->pmf(j - i) / accept_[static_cast<size_t>(i)];
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
}

double
ThresholdingOutputModel::prob(int64_t j, int64_t i) const
{
    ULPDP_ASSERT(i >= 0 && i <= span_);
    int64_t lo = outputLo();
    int64_t hi = outputHi();
    if (j < lo || j > hi)
        return 0.0;
    if (j == hi) {
        // Atom: everything at or above the upper boundary.
        return pmf_->upperMass(hi - i);
    }
    if (j == lo) {
        // Atom at the lower boundary (sign symmetry of the PMF).
        return pmf_->upperMass(i - lo);
    }
    return pmf_->pmf(j - i);
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

double
RandomizedResponseOutputModel::prob(int64_t j, int64_t i) const
{
    ULPDP_ASSERT(i >= 0 && i <= span_);
    // Intermediate inputs snap to the nearer category, midpoint ties
    // toward the lower one (matching RandomizedResponse::noise()).
    int64_t cat = (2 * i > span_) ? span_ : 0;
    if (j != 0 && j != span_)
        return 0.0;
    return (j == cat) ? 1.0 - flip_prob_ : flip_prob_;
}

} // namespace ulpdp
