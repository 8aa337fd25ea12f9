#include "rng/fxp_laplace_pmf.h"

#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>

#include "common/logging.h"

namespace ulpdp {

FxpLaplacePmf::FxpLaplacePmf(const FxpLaplaceConfig &config, Mode mode)
    : config_(config), mode_(mode)
{
    Quantizer quant(config.delta, config.output_bits);
    sat_index_ = quant.maxIndex();

    if (mode_ == Mode::Analytic) {
        buildAnalyticCounts();
    } else if (mode_ == Mode::Enumerated) {
        if (config.uniform_bits > kMaxEnumeratedBits)
            fatal("FxpLaplacePmf: Enumerated mode needs "
                  "uniform_bits <= %d, got %d", kMaxEnumeratedBits,
                  config.uniform_bits);
        buildSegmentCounts();
    } else {
        if (config.uniform_bits > kMaxLegacyEnumeratedBits)
            fatal("FxpLaplacePmf: EnumeratedLegacy mode needs "
                  "uniform_bits <= %d, got %d (2^Bu pipeline "
                  "evaluations)", kMaxLegacyEnumeratedBits,
                  config.uniform_bits);
        buildLegacyCounts();
    }
    buildTailCounts();

    // Locate the top of the support. counts_ is sized to the
    // reachable support (k_top + 1), not the full saturation span.
    max_index_ = 0;
    for (size_t k = counts_.size(); k-- > 0;) {
        if (counts_[k] > 0) {
            max_index_ = static_cast<int64_t>(k);
            break;
        }
    }
}

void
FxpLaplacePmf::buildAnalyticCounts()
{
    // m1 decreases in k, so the tail count floor(min(m1(k), 2^Bu))
    // is zero from the first bin whose m1 drops below 1 onwards, and
    // every bin from there up is empty (count(k) = floor(m1(k)) -
    // floor(m1(k + 1)), since m2(k) and m1(k + 1) evaluate the same
    // edge). The table stops at the last bin with a state.
    const double total = std::ldexp(1.0, config_.uniform_bits);
    int64_t k_top = 0;
    while (k_top < sat_index_ &&
           std::floor(std::min(m1(k_top + 1), total)) > 0.0)
        ++k_top;
    counts_.resize(static_cast<size_t>(k_top) + 1);
    for (int64_t k = 0; k <= k_top; ++k)
        counts_[static_cast<size_t>(k)] = analyticCount(k);
}

void
FxpLaplacePmf::buildLegacyCounts()
{
    // Run the real pipeline for every URNG state. The pipeline is
    // sign-symmetric, so tallying magnitudes (sign = +1) suffices.
    FxpLaplaceRng rng(config_);
    counts_.assign(static_cast<size_t>(sat_index_) + 1, 0);
    uint64_t states = uint64_t{1} << config_.uniform_bits;
    for (uint64_t m = 1; m <= states; ++m) {
        int64_t k = rng.pipeline(m, 1);
        ULPDP_ASSERT(k >= 0 && k <= sat_index_);
        ++counts_[static_cast<size_t>(k)];
    }
}

void
FxpLaplacePmf::buildSegmentCounts()
{
    // The pipeline magnitude -lambda * ln(m / 2^Bu) is monotone
    // non-increasing in m, and every downstream stage (round-nearest
    // or floor quantization, saturation) preserves weak monotonicity,
    // so tail sets {m : pipeline(m) >= k} are URNG prefixes [1, B_k]
    // and per-bin counts are boundary differences B_k - B_{k+1}.
    // Each boundary is located from the Eq. (11) closed-form guess
    // floor(m1(k)) and corrected against the *real* pipeline with a
    // galloping probe + bisection, so the result is bit-identical to
    // the per-state walk (a test property, cross-checked at every
    // registered configuration) at O(support bins) cost.
    FxpLaplaceRng rng(config_);
    const uint64_t states = uint64_t{1} << config_.uniform_bits;

    // The largest bin any state reaches is the image of the smallest
    // URNG index; bins above it are empty -- never probed, never even
    // allocated (counts_ is sized to the reachable support, and the
    // accessors return 0 beyond it).
    const int64_t k_top = rng.pipeline(1, 1);
    ULPDP_ASSERT(k_top >= 0 && k_top <= sat_index_);
    counts_.assign(static_cast<size_t>(k_top) + 1, 0);

    // One-entry probe memo. The pipeline is monotone non-increasing,
    // so the last evaluation (last_m, last_v) settles any holds()
    // query it dominates without re-running the pipeline -- runs of
    // empty tail bins between occupied ones cost zero probes.
    uint64_t last_m = 0;
    int64_t last_v = -1;

    uint64_t prev_b = 0; // B_{k+1}: tail boundary of the bin above
    for (int64_t k = k_top; k >= 1; --k) {
        // holds(b): every state m <= b outputs >= k. States at or
        // below prev_b output >= k + 1 by the nesting of tail sets.
        auto holds = [&](uint64_t b) {
            if (b <= prev_b)
                return true;
            if (last_m != 0) {
                if (b <= last_m && last_v >= k)
                    return true;
                if (b >= last_m && last_v < k)
                    return false;
            }
            last_m = b;
            last_v = rng.pipeline(b, 1);
            return last_v >= k;
        };

        // Closed-form guess for B_k, clamped into the known bracket
        // [prev_b, states - 1] (pipeline(2^Bu) = 0 < k).
        double m1k = std::min(m1(k), static_cast<double>(states));
        uint64_t g = m1k > 0.0 ? static_cast<uint64_t>(m1k) : 0;
        if (g < prev_b)
            g = prev_b;
        if (g > states - 1)
            g = states - 1;

        uint64_t b_k;
        if (holds(g) && !holds(g + 1)) {
            b_k = g; // the guess was exact (the common case)
        } else {
            uint64_t lo, hi;
            if (holds(g)) {
                // Boundary above the guess: gallop up.
                lo = g;
                hi = states; // !holds(states) for k >= 1
                for (uint64_t step = 1; lo + step < states;
                     step *= 2) {
                    uint64_t probe = lo + step;
                    if (holds(probe)) {
                        lo = probe;
                    } else {
                        hi = probe;
                        break;
                    }
                }
            } else {
                // Boundary below the guess: gallop down.
                hi = g;
                lo = prev_b;
                for (uint64_t step = 1; hi > prev_b + step;
                     step *= 2) {
                    uint64_t probe = hi - step;
                    if (holds(probe)) {
                        lo = probe;
                        break;
                    }
                    hi = probe;
                }
            }
            while (hi - lo > 1) {
                uint64_t mid = lo + (hi - lo) / 2;
                if (holds(mid))
                    lo = mid;
                else
                    hi = mid;
            }
            b_k = lo;
        }
        counts_[static_cast<size_t>(k)] = b_k - prev_b;
        prev_b = b_k;
    }
    // Bin 0 absorbs every remaining state: B_0 = 2^Bu exactly, which
    // is what makes totalCount() slack-free by construction.
    counts_[0] = states - prev_b;
}

void
FxpLaplacePmf::buildTailCounts()
{
    // Suffix sums make tailMass a load in every mode. For the
    // analytic counts they telescope to the closed-form tail
    // floor(min(m1(k), 2^Bu)) exactly. Sized to counts_ (the
    // reachable support), not the saturation index; the accessors
    // return 0 beyond it.
    tail_.assign(counts_.size() + 1, 0);
    for (size_t k = counts_.size(); k-- > 0;)
        tail_[k] = tail_[k + 1] + counts_[k];
}

double
FxpLaplacePmf::m1(int64_t k) const
{
    // Bin boundaries follow the quantizer: Nearest puts them at
    // (k -/+ 1/2) Delta (Eq. (11)); Floor puts them at k Delta and
    // (k + 1) Delta, making the magnitude law exactly geometric.
    double a = config_.delta / config_.lambda;
    double edge = config_.rounding == FxpLaplaceConfig::Rounding::Floor
                      ? static_cast<double>(k)
                      : static_cast<double>(k) - 0.5;
    return std::ldexp(1.0, config_.uniform_bits) * std::exp(-a * edge);
}

double
FxpLaplacePmf::m2(int64_t k) const
{
    double a = config_.delta / config_.lambda;
    double edge = config_.rounding == FxpLaplaceConfig::Rounding::Floor
                      ? static_cast<double>(k) + 1.0
                      : static_cast<double>(k) + 0.5;
    return std::ldexp(1.0, config_.uniform_bits) * std::exp(-a * edge);
}

uint64_t
FxpLaplacePmf::analyticCount(int64_t k) const
{
    if (k < 0 || k > sat_index_)
        return 0;
    double total = std::ldexp(1.0, config_.uniform_bits);

    // Number of URNG indices m in the half-open interval (A, B] is
    // floor(B) - floor(A). The upper boundary is clamped to 2^Bu
    // (covers k = 0, where m1(0) > 2^Bu) and the saturation bin
    // absorbs everything below its lower boundary.
    double upper = std::min(m1(k), total);
    double lower = (k == sat_index_) ? 0.0 : std::min(m2(k), total);
    double cnt = std::floor(upper) - std::floor(lower);
    return cnt > 0.0 ? static_cast<uint64_t>(cnt) : 0;
}

uint64_t
FxpLaplacePmf::magnitudeCount(int64_t k) const
{
    if (k < 0)
        return 0;
    size_t idx = static_cast<size_t>(k);
    return idx < counts_.size() ? counts_[idx] : 0;
}

uint64_t
FxpLaplacePmf::totalCount() const
{
    return tail_[0];
}

double
FxpLaplacePmf::pmf(int64_t k) const
{
    int64_t mag = k >= 0 ? k : -k;
    double cnt = static_cast<double>(magnitudeCount(mag));
    double denom = std::ldexp(1.0, config_.uniform_bits);
    if (k == 0) {
        // Both signs collapse onto zero.
        return cnt / denom;
    }
    return cnt / (2.0 * denom);
}

double
FxpLaplacePmf::tailMass(int64_t k) const
{
    ULPDP_ASSERT(k >= 1);
    double denom = 2.0 * std::ldexp(1.0, config_.uniform_bits);
    size_t idx = static_cast<size_t>(k);
    uint64_t cnt = idx < tail_.size() ? tail_[idx] : 0;
    return static_cast<double>(cnt) / denom;
}

double
FxpLaplacePmf::upperMass(int64_t k) const
{
    if (k >= 1)
        return tailMass(k);
    // Pr[n >= k] = 1 - Pr[n <= k - 1] = 1 - Pr[n >= 1 - k] by the
    // sign symmetry of the PMF; 1 - k >= 1 here.
    return 1.0 - tailMass(1 - k);
}

int64_t
FxpLaplacePmf::firstInteriorGap() const
{
    for (int64_t k = 0; k < max_index_; ++k) {
        if (magnitudeCount(k) == 0)
            return k;
    }
    return -1;
}

double
FxpLaplacePmf::totalMass() const
{
    double sum = pmf(0);
    for (int64_t k = 1; k <= max_index_; ++k)
        sum += pmf(k) + pmf(-k);
    return sum;
}

// --- memoized shared construction ----------------------------------------

namespace {

/** PMF-relevant configuration fields plus the mode, ordered for map
 *  lookup (doubles compared by bit pattern). */
struct PmfCacheKey
{
    int uniform_bits;
    int output_bits;
    uint64_t delta_bits;
    uint64_t lambda_bits;
    int log_mode;
    int rounding;
    int cordic_iterations;
    int mode;

    bool operator<(const PmfCacheKey &o) const
    {
        return std::tie(uniform_bits, output_bits, delta_bits,
                        lambda_bits, log_mode, rounding,
                        cordic_iterations, mode) <
               std::tie(o.uniform_bits, o.output_bits, o.delta_bits,
                        o.lambda_bits, o.log_mode, o.rounding,
                        o.cordic_iterations, o.mode);
    }
};

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

std::mutex &
cacheMutex()
{
    static std::mutex m;
    return m;
}

std::map<PmfCacheKey, std::shared_ptr<const FxpLaplacePmf>> &
cacheMap()
{
    static std::map<PmfCacheKey,
                    std::shared_ptr<const FxpLaplacePmf>> cache;
    return cache;
}

} // anonymous namespace

std::shared_ptr<const FxpLaplacePmf>
FxpLaplacePmf::shared(const FxpLaplaceConfig &config, Mode mode)
{
    PmfCacheKey key{config.uniform_bits,
                    config.output_bits,
                    doubleBits(config.delta),
                    doubleBits(config.lambda),
                    static_cast<int>(config.log_mode),
                    static_cast<int>(config.rounding),
                    config.cordic_iterations,
                    static_cast<int>(mode)};
    // Build under the lock: enumeration is O(support bins) since the
    // segment engine, so serializing a cold miss costs microseconds
    // and guarantees exactly one object per configuration.
    std::lock_guard<std::mutex> guard(cacheMutex());
    auto &cache = cacheMap();
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    auto pmf = std::make_shared<const FxpLaplacePmf>(config, mode);
    cache.emplace(key, pmf);
    return pmf;
}

void
FxpLaplacePmf::clearSharedCache()
{
    std::lock_guard<std::mutex> guard(cacheMutex());
    cacheMap().clear();
}

} // namespace ulpdp
