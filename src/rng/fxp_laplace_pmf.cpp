#include "rng/fxp_laplace_pmf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include "telemetry/telemetry.h"

namespace ulpdp {

FxpLaplacePmf::FxpLaplacePmf(const FxpLaplaceConfig &config)
    : NoisePmf(build(config)), config_(config)
{
}

NoisePmf
FxpLaplacePmf::build(const FxpLaplaceConfig &config)
{
    // The certifier's pmf_build stage (docs/METRICS.md): every real
    // build, wherever it happens; a shared-cache hit never gets here.
    std::optional<ScopedTimer> timer;
    if (telemetry::enabled())
        timer.emplace(telemetry::registry().histogram(
                "ulpdp_certify_stage_seconds",
                "Wall-clock seconds per certifier stage", "seconds",
                {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0},
                "stage=\"pmf_build\""));
    FxpLaplaceRng rng(config);
    auto pipeline = [&rng](uint64_t m) { return rng.pipeline(m, 1); };
    // Any other magnitude law has no closed-form boundary: each bin
    // gallops from the previous one.
    if (config.icdf)
        return NoisePmf::fromPipeline(config.uniform_bits, pipeline);

    // Eq. (11)'s tail count floor(m1(k)) is the boundary guess: the
    // engine corrects it against the real pipeline, so the result is
    // the pipeline's, bit for bit. The upper edge of bin k follows
    // the quantizer: Nearest puts it at (k - 1/2) Delta (Eq. (11)),
    // Floor at k Delta (the exactly geometric discrete Laplace). The
    // truncating cast equals floor() for m1 > 0 without a libm call
    // per bin.
    const double total = std::ldexp(1.0, config.uniform_bits);
    const double a = config.delta / config.lambda;
    const double shift =
        config.rounding == FxpLaplaceConfig::Rounding::Floor ? 0.0
                                                             : -0.5;
    return NoisePmf::fromPipeline(
            config.uniform_bits, pipeline, [&](int64_t k) {
                double m1 = std::min(
                        total * std::exp(-a * (static_cast<double>(k) +
                                               shift)),
                        total);
                return m1 > 0.0 ? static_cast<uint64_t>(m1) : 0;
            });
}

// --- memoized shared construction ----------------------------------------

namespace {

/** PMF-relevant configuration fields, ordered for map lookup
 *  (doubles compared by bit pattern). */
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

    bool operator<(const PmfCacheKey &o) const
    {
        return std::tie(uniform_bits, output_bits, delta_bits,
                        lambda_bits, log_mode, rounding,
                        cordic_iterations, icdf) <
               std::tie(o.uniform_bits, o.output_bits, o.delta_bits,
                        o.lambda_bits, o.log_mode, o.rounding,
                        o.cordic_iterations, o.icdf);
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
FxpLaplacePmf::shared(const FxpLaplaceConfig &config)
{
    PmfCacheKey key{config.uniform_bits,
                    config.output_bits,
                    std::bit_cast<uint64_t>(config.delta),
                    std::bit_cast<uint64_t>(config.lambda),
                    static_cast<int>(config.log_mode),
                    static_cast<int>(config.rounding),
                    config.cordic_iterations,
                    reinterpret_cast<uintptr_t>(config.icdf.get())};
    // Build under the lock: enumeration is O(support bins) since the
    // segment engine, so serializing a cold miss costs microseconds
    // and guarantees exactly one object per configuration.
    std::lock_guard<std::mutex> guard(cacheMutex());
    auto &cache = cacheMap();
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    auto pmf = std::make_shared<const FxpLaplacePmf>(config);
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
