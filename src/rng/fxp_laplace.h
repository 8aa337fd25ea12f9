/**
 * @file
 * Fixed-point Laplace random number generator -- the paper's Fig. 3
 * pipeline: a Bu-bit uniform index from the Tausworthe URNG is mapped
 * through the inverse CDF magnitude -lambda * ln(u), rounded to the
 * nearest multiple of the quantization step Delta, saturated to the
 * By-bit output word, and given a random sign.
 *
 * The ICDF stage is a parameter (FxpLaplaceConfig::icdf): with a
 * MagnitudeIcdf set, the same pipeline -- table, batch path,
 * integrity fallback and range controls included -- draws Gaussian,
 * staircase or any other magnitude law (Section III-A4).
 *
 * Two computation modes are provided:
 *  - Reference: the logarithm is evaluated in double precision. This
 *    matches the mathematical model of Section III-A2, so its exact
 *    PMF (FxpLaplacePmf) agrees with the closed form of Eq. (11) up
 *    to single states that floating-point boundary rounding moves
 *    between adjacent bins (tests compare the two bin for bin).
 *  - Cordic: the logarithm runs through the integer CORDIC unit, i.e.
 *    the actual hardware datapath. Near quantization-bin boundaries
 *    its finite precision can move a sample by one LSB relative to
 *    Reference; a dedicated bench quantifies the PMF perturbation.
 */

#ifndef ULPDP_RNG_FXP_LAPLACE_H
#define ULPDP_RNG_FXP_LAPLACE_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "fixed/quantizer.h"
#include "rng/cordic.h"
#include "rng/magnitude_icdf.h"
#include "rng/tausworthe.h"

namespace ulpdp {

class LaplaceSampleTable;

/** Static configuration of a fixed-point Laplace RNG. */
struct FxpLaplaceConfig
{
    /** URNG output width Bu in bits (paper default 17). */
    int uniform_bits = 17;

    /** RNG output width By in bits (paper default 12). */
    int output_bits = 12;

    /** Quantization step Delta (paper example: 10 / 2^5). */
    double delta = 10.0 / 32.0;

    /** Laplace scale lambda = d / eps (paper example: Lap(20)).
     *  Unused when icdf is set. */
    double lambda = 20.0;

    /** How the logarithm is evaluated (Cordic requires a null icdf:
     *  the CORDIC unit computes ln only). */
    enum class LogMode { Reference, Cordic };
    LogMode log_mode = LogMode::Reference;

    /**
     * The magnitude inverse CDF stage. Null is the paper's
     * -lambda ln u; otherwise magnitude = icdf->magnitude(m 2^-Bu)
     * and every later stage is unchanged. The PMF engine then runs
     * without Eq. (11)'s boundary guess and the window search starts
     * from a Laplace guess; both stay exact.
     */
    std::shared_ptr<const MagnitudeIcdf> icdf;

    /**
     * How the magnitude is quantized to the Delta grid.
     *  - Nearest: round to the nearest multiple of Delta (the paper's
     *    Fig. 3 pipeline; Eq. (11) boundaries at k -/+ 1/2).
     *  - Floor: truncate toward zero, k = floor(magnitude / Delta).
     *    This turns the sampler into an exact two-sided geometric
     *    (discrete Laplace): Pr[|n| = k Delta] is proportional to
     *    e^(-a k) (1 - e^(-a)) with a = Delta / lambda, because the
     *    continuous magnitude is exponential and flooring an
     *    exponential yields a geometric. Truncation is one bit
     *    cheaper than round-nearest in the datapath (no half-LSB
     *    adder), so the variant is ULP-plausible as well as
     *    analytically convenient.
     */
    enum class Rounding { Nearest, Floor };
    Rounding rounding = Rounding::Nearest;

    /** CORDIC micro-rotations (Cordic mode only). */
    int cordic_iterations = 32;

    /**
     * How samples are served. The pipeline is a fixed map from URNG
     * words to output indices, so draws can come from a table built
     * once from its exact PMF instead of evaluating the logarithm per
     * draw; both paths are bit-identical.
     *  - Auto: use the table whenever the configuration supports it
     *    (LaplaceSampleTable::supports), else the naive pipeline.
     *  - Table: require the table; building one for an unsupported
     *    configuration is a fatal user error.
     *  - Naive: always run the per-draw log pipeline (the reference
     *    implementation the table is validated against).
     */
    enum class SamplePath { Auto, Table, Naive };
    SamplePath sample_path = SamplePath::Auto;

    /**
     * Harden table lookups against SRAM corruption: every served
     * guide word is parity-checked (a hardware comparator), cumulative
     * counts are sanity-checked against the state count, and any
     * mismatch permanently quarantines the table -- the RNG falls
     * back to the log datapath, which computes the same pipeline
     * without the suspect memory. Disable only to model unhardened
     * silicon in fault-injection experiments.
     */
    bool integrity_checks = true;
};

/**
 * The fixed-point inverse-CDF Laplace sampler of Fig. 3.
 *
 * Every sample is some k * Delta with k in the signed By-bit index
 * range; the support is bounded by L = lambda * Bu * ln 2 (the largest
 * magnitude, produced by the smallest URNG output u = 2^-Bu) and, on
 * the saturation side, by the quantizer's representable range.
 */
class FxpLaplaceRng
{
  public:
    /**
     * @param config Static configuration.
     * @param seed Tausworthe seed.
     */
    explicit FxpLaplaceRng(const FxpLaplaceConfig &config,
                           uint64_t seed = 1);

    /** Draw one noise sample; returns the value k * Delta. */
    double sample();

    /** Draw one noise sample; returns the signed index k. */
    int64_t sampleIndex();

    /**
     * Draw one noise sample through the table fast path: the same
     * URNG words, the same output index, but one table load instead
     * of a logarithm. Falls back to sampleIndex() when the fast path
     * is disabled or unsupported, so callers can use it
     * unconditionally.
     */
    int64_t sampleIndexFast();

    /** Draw @p n noise indices into @p out (fast path when enabled). */
    void sampleBatch(int64_t *out, size_t n);

    /**
     * Draw one noise index conditioned on landing inside [lo, hi]
     * (which must contain 0), with exactly the conditional
     * distribution of accept-reject resampling -- accept-reject is
     * uniform over the URNG states whose output lies in the window,
     * and this draws one uniform rank over those states directly.
     * Requires the fast path (fastPathEnabled()).
     *
     * @return false without consuming randomness if no URNG state
     *         lands in the window (a mis-provisioned device; the
     *         naive loop would redraw forever).
     */
    bool sampleIndexTruncated(int64_t lo, int64_t hi, int64_t &out);

    /**
     * Whether draws are served from the precomputed table. Resolves
     * SamplePath::Auto against the configuration limits.
     */
    bool fastPathEnabled() const;

    /**
     * The sampling table, built on first use (fatal when the
     * configuration cannot support one -- check fastPathEnabled()).
     */
    const LaplaceSampleTable &table();

    /**
     * Shared handle on the sampling table (built on first use), or
     * nullptr when the fast path is unavailable. The batch sampling
     * layer (rng/batch_sampler.h) takes this handle so fleet workers
     * and per-block RNG copies all reference one table -- nothing is
     * ever rebuilt or copied per block.
     */
    std::shared_ptr<const LaplaceSampleTable> sharedTable();

    /**
     * Mutable access to the sampling table for fault injection
     * (SEUs flip bits in the table SRAM). Returns nullptr when the
     * configuration has no table. Production code never calls this.
     */
    LaplaceSampleTable *mutableTable();

    /**
     * CRC-scrub the sampling table against its build-time
     * signature (the periodic scrub of the hardening logic). Returns
     * false -- and quarantines the table -- on a mismatch; true when
     * the table is intact or was never built.
     */
    bool verifyTableIntegrity();

    /** True once any integrity check failed; the table is then
     *  quarantined for good (fastPathEnabled() goes false) and every
     *  draw runs through the log datapath instead. */
    bool integrityFault() const { return integrity_fault_; }

    /** Integrity-check failures observed so far. */
    uint64_t integrityDetections() const
    {
        return integrity_detections_;
    }

    /**
     * Deterministically map one URNG magnitude index m (1..2^Bu) and a
     * sign to an output index, without consuming randomness. This is
     * the pure pipeline function; tests enumerate it over all m.
     */
    int64_t pipeline(uint64_t m, int sign) const;

    /** Configuration in effect. */
    const FxpLaplaceConfig &config() const { return config_; }

    /** The quantizer stage (resolution and saturation limits). */
    const Quantizer &quantizer() const { return quantizer_; }

    /**
     * Largest magnitude the pipeline can produce before saturation:
     * L = lambda * Bu * ln 2 (Section III-A2), or
     * icdf->magnitude(2^-Bu) when an ICDF is set.
     */
    double maxMagnitude() const;

    /** Number of samples drawn so far (latency accounting). */
    uint64_t samplesDrawn() const { return samples_drawn_; }

    /** The uniform source (tests assert it stays untouched on
     *  budget-halted requests). */
    const Tausworthe &urng() const { return urng_; }

    /** Mutable uniform source, for wiring fault hooks and health
     *  monitors into the URNG output register. */
    Tausworthe &urng() { return urng_; }

  private:
    /** Table pointer when the fast path is usable, else nullptr. */
    const LaplaceSampleTable *ensureTable();

    /** Latch an integrity fault and quarantine the table. */
    void noteIntegrityFault(const char *what);

    FxpLaplaceConfig config_;
    Quantizer quantizer_;
    Tausworthe urng_;
    CordicLog cordic_;
    /** Shared so copies of a configured RNG reuse the table. */
    std::shared_ptr<LaplaceSampleTable> table_;
    uint64_t samples_drawn_ = 0;
    bool integrity_fault_ = false;
    uint64_t integrity_detections_ = 0;
};

} // namespace ulpdp

#endif // ULPDP_RNG_FXP_LAPLACE_H
