#include "rng/fxp_laplace_pmf.h"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "common/logging.h"

namespace ulpdp {

namespace {

/** m1 (upper_edge) or m2 of Eq. (11) for @p config at bin @p k. Bin
 *  boundaries follow the quantizer: Nearest puts them at
 *  (k -/+ 1/2) Delta (Eq. (11)); Floor puts them at k Delta and
 *  (k + 1) Delta, making the magnitude law exactly geometric. */
double
edgeState(const FxpLaplaceConfig &config, int64_t k, bool upper_edge)
{
    double a = config.delta / config.lambda;
    double edge = static_cast<double>(k);
    if (config.rounding == FxpLaplaceConfig::Rounding::Floor)
        edge += upper_edge ? 0.0 : 1.0;
    else
        edge += upper_edge ? -0.5 : 0.5;
    return std::ldexp(1.0, config.uniform_bits) * std::exp(-a * edge);
}

} // anonymous namespace

FxpLaplacePmf::FxpLaplacePmf(const FxpLaplaceConfig &config, Mode mode)
    : NoisePmf(build(config, mode)), config_(config), mode_(mode)
{
}

NoisePmf
FxpLaplacePmf::build(const FxpLaplaceConfig &config, Mode mode)
{
    const double total = std::ldexp(1.0, config.uniform_bits);
    if (mode == Mode::Enumerated) {
        FxpLaplaceRng rng(config);
        auto pipeline = [&rng](uint64_t m) {
            return rng.pipeline(m, 1);
        };
        // Any other magnitude law has no closed-form boundary: each
        // bin gallops from the previous one.
        if (config.icdf)
            return NoisePmf::fromPipeline(config.uniform_bits,
                                          pipeline);
        // Eq. (11)'s tail count is the boundary guess: the engine
        // corrects it against the real pipeline, so the result is
        // the pipeline's, bit for bit. The truncating cast equals
        // floor() for m1 > 0 without a libm call per bin.
        return NoisePmf::fromPipeline(
                config.uniform_bits, pipeline, [&](int64_t k) {
                    double m1 = std::min(edgeState(config, k, true),
                                         total);
                    return m1 > 0.0 ? static_cast<uint64_t>(m1) : 0;
                });
    }
    if (config.icdf)
        fatal("FxpLaplacePmf: Mode::Analytic is the Laplace closed "
              "form (Eq. (11)); config.icdf must be null (use "
              "Mode::Enumerated for another magnitude law)");

    // Analytic: the number of URNG indices m in the half-open
    // interval (m2(k), m1(k)] is floor(m1(k)) - floor(m2(k)), with
    // both edges clamped to 2^Bu (covers k = 0, where m1(0) > 2^Bu)
    // and the saturation bin absorbing everything below its lower
    // edge. m1 decreases in k, so every bin from the first whose m1
    // drops below 1 is empty (m2(k) and m1(k + 1) evaluate the same
    // edge); the table stops at the last bin with a state.
    auto tailCount = [&](int64_t k) { // floor(min(m1(k), 2^Bu))
        return std::floor(
                std::min(edgeState(config, k, true), total));
    };
    const int64_t sat = Quantizer(config.delta, config.output_bits)
                                .maxIndex();
    int64_t k_top = 0;
    while (k_top < sat && tailCount(k_top + 1) > 0.0)
        ++k_top;
    std::vector<uint64_t> counts(static_cast<size_t>(k_top) + 1);
    for (int64_t k = 0; k <= k_top; ++k) {
        double lower =
                k == sat ? 0.0
                         : std::floor(std::min(
                                   edgeState(config, k, false), total));
        double cnt = tailCount(k) - lower;
        counts[static_cast<size_t>(k)] =
                cnt > 0.0 ? static_cast<uint64_t>(cnt) : 0;
    }
    return NoisePmf(config.uniform_bits, std::move(counts));
}

double
FxpLaplacePmf::m1(int64_t k) const
{
    return edgeState(config_, k, true);
}

double
FxpLaplacePmf::m2(int64_t k) const
{
    return edgeState(config_, k, false);
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
    /** Identity of the ICDF stage; the cached config holds its
     *  shared_ptr, so the address is not reused while cached. */
    uintptr_t icdf;
    int mode;

    bool operator<(const PmfCacheKey &o) const
    {
        return std::tie(uniform_bits, output_bits, delta_bits,
                        lambda_bits, log_mode, rounding,
                        cordic_iterations, icdf, mode) <
               std::tie(o.uniform_bits, o.output_bits, o.delta_bits,
                        o.lambda_bits, o.log_mode, o.rounding,
                        o.cordic_iterations, o.icdf, o.mode);
    }
};

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
                    std::bit_cast<uint64_t>(config.delta),
                    std::bit_cast<uint64_t>(config.lambda),
                    static_cast<int>(config.log_mode),
                    static_cast<int>(config.rounding),
                    config.cordic_iterations,
                    reinterpret_cast<uintptr_t>(config.icdf.get()),
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
