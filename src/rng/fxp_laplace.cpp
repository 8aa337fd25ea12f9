#include "rng/fxp_laplace.h"

#include <cmath>

#include "common/logging.h"
#include "rng/fxp_laplace_pmf.h"
#include "rng/laplace_table.h"
#include "rng/taus_bank.h"

namespace ulpdp {

FxpLaplaceRng::FxpLaplaceRng(const FxpLaplaceConfig &config, uint64_t seed)
    : config_(config),
      quantizer_(config.delta, config.output_bits),
      urng_(seed),
      cordic_(config.cordic_iterations)
{
    if (config.uniform_bits < 1 || config.uniform_bits > 32)
        fatal("FxpLaplaceRng: uniform_bits must be in [1, 32], got %d",
              config.uniform_bits);
    if (!(config.lambda > 0.0))
        fatal("FxpLaplaceRng: lambda must be positive, got %g",
              config.lambda);
    if (config.icdf &&
        config.log_mode == FxpLaplaceConfig::LogMode::Cordic)
        fatal("FxpLaplaceRng: config.icdf requires LogMode::Reference "
              "(the CORDIC unit computes ln only)");
}

int64_t
FxpLaplaceRng::pipeline(uint64_t m, int sign) const
{
    ULPDP_ASSERT(m >= 1 &&
                 m <= (uint64_t{1} << config_.uniform_bits));
    ULPDP_ASSERT(sign == 1 || sign == -1);

    // Inverse-CDF magnitude, Eq. (7): F^-1(u) = -lambda * ln(u) >= 0,
    // unless another magnitude law is plugged in.
    double magnitude;
    if (config_.log_mode == FxpLaplaceConfig::LogMode::Cordic) {
        magnitude = -config_.lambda *
                    cordic_.lnUnitIndex(m, config_.uniform_bits);
    } else {
        double u = std::ldexp(static_cast<double>(m),
                              -config_.uniform_bits);
        magnitude = config_.icdf ? config_.icdf->magnitude(u)
                                 : -config_.lambda * std::log(u);
    }
    int64_t k;
    if (config_.rounding == FxpLaplaceConfig::Rounding::Floor) {
        // Truncate to the grid (discrete-Laplace variant): the
        // saturation stage still clamps to the By-bit index range.
        double f = std::floor(magnitude / config_.delta);
        int64_t sat = quantizer_.maxIndex();
        k = f >= static_cast<double>(sat)
                ? sat
                : (f <= 0.0 ? 0 : static_cast<int64_t>(f));
    } else {
        k = quantizer_.quantizeToIndex(magnitude);
    }
    // The magnitude path only uses the non-negative half of the index
    // range; the sign stage produces the negative half.
    return sign > 0 ? k : -k;
}

int64_t
FxpLaplaceRng::sampleIndex()
{
    ++samples_drawn_;
    uint64_t m = urng_.nextUnitIndex(config_.uniform_bits);
    int sign = urng_.nextSign();
    return pipeline(m, sign);
}

double
FxpLaplaceRng::sample()
{
    return quantizer_.value(sampleIndex());
}

bool
FxpLaplaceRng::fastPathEnabled() const
{
    // A quarantined table is never consulted again: the log datapath
    // computes the same pipeline without the suspect memory.
    if (integrity_fault_)
        return false;
    switch (config_.sample_path) {
      case FxpLaplaceConfig::SamplePath::Naive:
        return false;
      case FxpLaplaceConfig::SamplePath::Table:
        return true;
      case FxpLaplaceConfig::SamplePath::Auto:
        return LaplaceSampleTable::supports(config_.uniform_bits,
                                            quantizer_.maxIndex());
    }
    panic("FxpLaplaceRng: invalid sample_path");
}

const LaplaceSampleTable &
FxpLaplaceRng::table()
{
    if (!table_) {
        if (!LaplaceSampleTable::supports(config_.uniform_bits,
                                          quantizer_.maxIndex()))
            fatal("FxpLaplaceRng: no sampling table for uniform_bits "
                  "%d with max index %lld", config_.uniform_bits,
                  static_cast<long long>(quantizer_.maxIndex()));
        // Draws come from the very counts the certifier certified.
        table_ = std::make_shared<LaplaceSampleTable>(
                *FxpLaplacePmf::shared(config_));
    }
    return *table_;
}

std::shared_ptr<const LaplaceSampleTable>
FxpLaplaceRng::sharedTable()
{
    if (ensureTable() == nullptr)
        return nullptr;
    return table_;
}

LaplaceSampleTable *
FxpLaplaceRng::mutableTable()
{
    if (!integrity_fault_)
        ensureTable();
    return table_.get();
}

void
FxpLaplaceRng::noteIntegrityFault(const char *what)
{
    integrity_fault_ = true;
    ++integrity_detections_;
    warn("FxpLaplaceRng: sampler-table integrity fault (%s); table "
         "quarantined, serving draws from the log datapath", what);
}

bool
FxpLaplaceRng::verifyTableIntegrity()
{
    if (integrity_fault_)
        return false;
    if (!table_)
        return true; // nothing enumerated yet, nothing to corrupt
    if (table_->verify())
        return true;
    noteIntegrityFault("CRC scrub mismatch");
    return false;
}

const LaplaceSampleTable *
FxpLaplaceRng::ensureTable()
{
    if (!fastPathEnabled())
        return nullptr;
    return &table();
}

int64_t
FxpLaplaceRng::sampleIndexFast()
{
    const LaplaceSampleTable *t = ensureTable();
    if (t == nullptr)
        return sampleIndex();
    ++samples_drawn_;
    uint64_t m = urng_.nextUnitIndex(config_.uniform_bits);
    int sign = urng_.nextSign();
    bool ok = true;
    int64_t k = t->view().lookupByRank(t->states() - m, ok);
    if (config_.integrity_checks && !ok) {
        // The comparator caught a corrupted entry: quarantine the
        // table and recompute this draw through the log datapath
        // (same m and sign, so the sample itself stays sound).
        noteIntegrityFault("guide word fails its parity check");
        return pipeline(m, sign);
    }
    return sign > 0 ? k : -k;
}

void
FxpLaplaceRng::sampleBatch(int64_t *out, size_t n)
{
    // Mirror the URNG into a one-lane TausBank and commit only when
    // no comparator tripped: the per-draw loop below consumes the same
    // words, so a trip redoes them there with the scalar quarantine. A
    // hooked or monitored URNG stays scalar, past its observation seams.
    if (n > 0 && urng_.plain() && ensureTable() != nullptr) {
        const LaplaceSampleTable::View table = table_->view();
        TausBank bank;
        uint32_t b1 = urng_.s1(), b2 = urng_.s2(), b3 = urng_.s3();
        bank.adoptState(&b1, &b2, &b3, 1);
        bool ok = true;
        for (size_t i = 0; i < n; ++i) {
            uint32_t mw, sw;
            bank.nextWords(&mw);
            bank.nextWords(&sw);
            int64_t k = table.lookupByRank(
                    Tausworthe::unitRankOf(mw, config_.uniform_bits), ok);
            int64_t sm = static_cast<int32_t>(sw) >> 31;
            out[i] = (k ^ ~sm) - ~sm;
        }
        if (ok || !config_.integrity_checks) {
            samples_drawn_ += n;
            urng_.setState(bank.s1(0), bank.s2(0), bank.s3(0));
            return;
        }
    }
    for (size_t i = 0; i < n; ++i)
        out[i] = sampleIndexFast();
}

bool
FxpLaplaceRng::sampleIndexTruncated(int64_t lo, int64_t hi,
                                    int64_t &out)
{
    ULPDP_ASSERT(fastPathEnabled());
    const LaplaceSampleTable &t = table();

    LaplaceSampleTable::RankWindow w = t.rankWindow(lo, hi);
    if (w.corrupt && config_.integrity_checks) {
        // An intact table can never count more accepted states than
        // states exist; this is SRAM corruption in the boundaries.
        noteIntegrityFault("cumulative count exceeds state count");
        return false;
    }
    if (w.total == 0)
        return false;

    // One unbiased uniform rank over the accepted states: covering
    // power of two, overshoot rejected (< 2 expected attempts).
    uint64_t r;
    do {
        uint32_t first = urng_.next32();
        r = w.rank(first, w.words() == 2 ? urng_.next32() : 0);
    } while (r >= w.total);

    ++samples_drawn_;
    bool ok = true;
    out = r < w.plus ? t.view().lookupByRank(r, ok)
                     : -t.view().lookupByRank(r - w.plus, ok);
    if (config_.integrity_checks && (!ok || out < lo || out > hi)) {
        // The bounds promised a state inside the window: a draw
        // outside it means they were corrupted.
        noteIntegrityFault(!ok ? "guide word fails its parity check"
                               : "rank draw escapes the truncation window");
        return false;
    }
    return true;
}

double
FxpLaplaceRng::maxMagnitude() const
{
    if (config_.icdf)
        return config_.icdf->magnitude(
                std::ldexp(1.0, -config_.uniform_bits));
    return config_.lambda * static_cast<double>(config_.uniform_bits) *
           std::log(2.0);
}

} // namespace ulpdp
