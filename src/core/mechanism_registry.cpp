#include "core/mechanism_registry.h"

#include <utility>

#include "common/logging.h"
#include "core/bounded_laplace.h"
#include "core/constant_time.h"
#include "core/discrete_laplace.h"
#include "core/resampling_mechanism.h"
#include "core/threshold_calc.h"
#include "core/thresholding_mechanism.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

/** Registry observability (docs/METRICS.md "Mechanism selection"). */
struct RegistryMetrics
{
    Counter &lookups = telemetry::registry().counter(
        "ulpdp_registry_lookups_total",
        "Mechanism registry lookups by name",
        "lookups");
    Counter &unknown = telemetry::registry().counter(
        "ulpdp_registry_unknown_total",
        "Lookups naming no registered mechanism",
        "lookups");
    Counter &instantiations = telemetry::registry().counter(
        "ulpdp_registry_instantiations_total",
        "Mechanism objects constructed through the registry",
        "mechanisms");
    Counter &lowerings = telemetry::registry().counter(
        "ulpdp_registry_lowerings_total",
        "Fleet batch-path lowerings resolved through the registry",
        "cohorts");
};

RegistryMetrics &
metrics()
{
    static RegistryMetrics m;
    return m;
}

/**
 * The PMF of a resolved parameter block, through the memoized shared
 * cache -- mechanisms sharing a parameter block (and certifyAll(),
 * which re-specs the same profile per mechanism) enumerate each
 * distinct configuration exactly once, and share it with the window
 * search and the sampler table.
 */
std::shared_ptr<const FxpLaplacePmf>
pmfFor(const FxpMechanismParams &params)
{
    return FxpLaplacePmf::shared(params.rngConfig());
}

/**
 * Resolve a window half-extension: honour an explicit override, else
 * run the exact search over the shared PMF -- the same search
 * the fleet planner and ThresholdCalculator callers always ran, so
 * registry-selected thresholds are bit-identical to hard-wired ones.
 */
int64_t
resolveThreshold(const MechanismSpec &spec,
                 const FxpMechanismParams &params, RangeControl kind)
{
    if (spec.threshold_index >= 0)
        return spec.threshold_index;
    ThresholdCalculator calc(params);
    int64_t t = calc.exactIndex(kind, spec.loss_multiple);
    if (t < 0)
        fatal("MechanismRegistry: no window extension meets the "
              "%g * eps loss bound for this configuration (eps %g, "
              "Bu %d)", spec.loss_multiple, params.epsilon,
              params.uniform_bits);
    return t;
}

// --- resolvers -------------------------------------------------------------

/** Resampling window over the spec's own block (truncated draws).
 *  Constant-time resampling runs the same window, so it shares this
 *  resolver rather than repeating the search. */
MechanismLowering
resolveResampling(const MechanismSpec &spec)
{
    MechanismLowering low;
    low.params = spec.params;
    low.threshold_index =
        resolveThreshold(spec, spec.params, RangeControl::Resampling);
    low.truncated = true;
    return low;
}

/** Thresholding window over the spec's own block (clamped draws). */
MechanismLowering
resolveThresholding(const MechanismSpec &spec)
{
    MechanismLowering low;
    low.params = spec.params;
    low.threshold_index =
        resolveThreshold(spec, spec.params, RangeControl::Thresholding);
    low.clamp = true;
    return low;
}

/** Holohan scale, verified exactly; the window is the range (T = 0). */
MechanismLowering
resolveBoundedLaplace(const MechanismSpec &spec)
{
    MechanismLowering low;
    low.params = BoundedLaplaceMechanism::resolveParams(
        spec.params, spec.loss_multiple);
    low.threshold_index = 0;
    low.truncated = true;
    return low;
}

/** Floor rounding plus the widened scale; the widening loop's final
 *  search already found the window, so it is not searched again. */
MechanismLowering
resolveDiscreteLaplace(const MechanismSpec &spec)
{
    MechanismLowering low;
    int64_t found = -1;
    low.params = DiscreteLaplaceMechanism::resolveParams(
        spec.params, spec.loss_multiple, &found);
    low.threshold_index =
        spec.threshold_index >= 0 ? spec.threshold_index : found;
    low.truncated = true;
    return low;
}

} // namespace

std::shared_ptr<const FxpLaplacePmf>
MechanismSpec::makePmf() const
{
    return pmfFor(params);
}

MechanismRegistry &
MechanismRegistry::instance()
{
    // Construct-on-first-use: the built-ins register inside the
    // constructor, so there is no static-initialization-order window
    // in which the registry exists but is empty.
    static MechanismRegistry registry;
    return registry;
}

void
MechanismRegistry::add(Entry entry)
{
    if (entry.name.empty())
        fatal("MechanismRegistry: refusing to register an unnamed "
              "mechanism");
    if (entry.resolve == nullptr || !entry.build || !entry.buildModel)
        fatal("MechanismRegistry: mechanism '%s' must provide a "
              "resolver, a factory and an output model (the model is "
              "what certification enumerates)", entry.name.c_str());
    for (const Entry &e : entries_) {
        if (e.name == entry.name)
            fatal("MechanismRegistry: duplicate mechanism name '%s' "
                  "(shadowing would un-certify the registered one)",
                  entry.name.c_str());
    }

    // Derive the spec-level factories, decorated with the selection
    // counters so every registrant -- built-in or external -- is
    // observable without writing its own telemetry.
    Resolver resolve = entry.resolve;
    entry.make = [resolve, build = entry.build](
                         const MechanismSpec &spec) {
        if (telemetry::enabled())
            metrics().instantiations.inc();
        return build(spec, resolve(spec));
    };
    entry.model = [resolve, build = entry.buildModel](
                          const MechanismSpec &spec) {
        return build(spec, resolve(spec));
    };
    entry.lower = nullptr;
    if (entry.hasCaps(mechcap::kBatch)) {
        entry.lower = [resolve](const MechanismSpec &spec) {
            if (telemetry::enabled())
                metrics().lowerings.inc();
            return resolve(spec);
        };
    }
    entries_.push_back(std::move(entry));
}

const MechanismRegistry::Entry *
MechanismRegistry::find(const std::string &name) const
{
    if (telemetry::enabled())
        metrics().lookups.inc();
    for (const Entry &e : entries_) {
        if (e.name == name)
            return &e;
    }
    if (telemetry::enabled())
        metrics().unknown.inc();
    return nullptr;
}

const MechanismRegistry::Entry &
MechanismRegistry::at(const std::string &name) const
{
    const Entry *e = find(name);
    if (e == nullptr)
        fatal("MechanismRegistry: unknown mechanism '%s' (registered: "
              "%s)", name.c_str(), [this] {
                  std::string all;
                  for (const Entry &r : entries_)
                      all += (all.empty() ? "" : ", ") + r.name;
                  return all;
              }().c_str());
    return *e;
}

std::vector<std::string>
MechanismRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.name);
    return out;
}

std::vector<std::string>
MechanismRegistry::namesWithCaps(uint32_t required) const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_) {
        if (e.hasCaps(required))
            out.push_back(e.name);
    }
    return out;
}

MechanismRegistry::MechanismRegistry()
{
    using mechcap::kBatch;
    using mechcap::kBoundedOutput;
    using mechcap::kConstantTime;
    using mechcap::kSegmentLoss;

    // --- resampling (Section III-B1) -----------------------------
    {
        Entry e;
        e.name = "resampling";
        e.caps = kBatch | kSegmentLoss;
        e.summary = "redraw until the output lands in the "
                    "[m - T*Delta, M + T*Delta] window";
        e.resolve = resolveResampling;
        e.build = [](const MechanismSpec &, const MechanismLowering &r)
                -> std::unique_ptr<Mechanism> {
            return std::make_unique<ResamplingMechanism>(
                    r.params, r.threshold_index);
        };
        e.buildModel = [](const MechanismSpec &,
                          const MechanismLowering &r)
                -> std::unique_ptr<DiscreteOutputModel> {
            return std::make_unique<ResamplingOutputModel>(
                    pmfFor(r.params), r.params.rangeIndexSpan(),
                    r.threshold_index);
        };
        add(std::move(e));
    }

    // --- thresholding (Section III-B2) ---------------------------
    {
        Entry e;
        e.name = "thresholding";
        e.caps = kBatch | kConstantTime | kSegmentLoss;
        e.summary = "one draw, clamped into the window (boundary "
                    "atoms absorb the tail)";
        e.resolve = resolveThresholding;
        e.build = [](const MechanismSpec &, const MechanismLowering &r)
                -> std::unique_ptr<Mechanism> {
            return std::make_unique<ThresholdingMechanism>(
                    r.params, r.threshold_index);
        };
        e.buildModel = [](const MechanismSpec &,
                          const MechanismLowering &r)
                -> std::unique_ptr<DiscreteOutputModel> {
            return std::make_unique<ThresholdingOutputModel>(
                    pmfFor(r.params), r.params.rangeIndexSpan(),
                    r.threshold_index);
        };
        add(std::move(e));
    }

    // --- constant-time resampling (Section IV-C) -----------------
    // No fleet lowering (no kBatch): the K-batch draw is a per-device
    // latency mitigation the fleet's truncated rank draw already
    // subsumes (one lookup is constant-time by construction). It runs
    // the resampling window, so it shares that resolver.
    {
        Entry e;
        e.name = "constant-time-resampling";
        e.caps = kConstantTime | kSegmentLoss;
        e.summary = "fixed K-draw batch per report; clamp when all "
                    "K miss";
        e.resolve = resolveResampling;
        e.build = [](const MechanismSpec &spec,
                     const MechanismLowering &r)
                -> std::unique_ptr<Mechanism> {
            return std::make_unique<ConstantTimeResamplingMechanism>(
                    r.params, r.threshold_index, spec.batch_size);
        };
        e.buildModel = [](const MechanismSpec &spec,
                          const MechanismLowering &r)
                -> std::unique_ptr<DiscreteOutputModel> {
            return std::make_unique<ConstantTimeOutputModel>(
                    pmfFor(r.params), r.params.rangeIndexSpan(),
                    r.threshold_index, spec.batch_size);
        };
        add(std::move(e));
    }

    // --- bounded Laplace (Holohan et al.) ------------------------
    {
        Entry e;
        e.name = "bounded-laplace";
        e.caps = kBatch | kConstantTime | kBoundedOutput;
        e.summary = "variance-corrected scale, outputs confined to "
                    "the sensor range (T = 0)";
        e.resolve = resolveBoundedLaplace;
        e.build = [](const MechanismSpec &, const MechanismLowering &r)
                -> std::unique_ptr<Mechanism> {
            return std::make_unique<BoundedLaplaceMechanism>(r.params);
        };
        e.buildModel = [](const MechanismSpec &,
                          const MechanismLowering &r)
                -> std::unique_ptr<DiscreteOutputModel> {
            return std::make_unique<ResamplingOutputModel>(
                    pmfFor(r.params), r.params.rangeIndexSpan(),
                    0);
        };
        add(std::move(e));
    }

    // --- discrete Laplace (Floor-rounded pipeline) ---------------
    {
        Entry e;
        e.name = "discrete-laplace";
        e.caps = kBatch | kSegmentLoss;
        e.summary = "two-sided geometric from the truncating "
                    "quantizer; scale pays the ln 2 zero-atom "
                    "penalty, resampling window control";
        e.resolve = resolveDiscreteLaplace;
        e.build = [](const MechanismSpec &, const MechanismLowering &r)
                -> std::unique_ptr<Mechanism> {
            return std::make_unique<DiscreteLaplaceMechanism>(
                    r.params, r.threshold_index);
        };
        e.buildModel = [](const MechanismSpec &,
                          const MechanismLowering &r)
                -> std::unique_ptr<DiscreteOutputModel> {
            return std::make_unique<ResamplingOutputModel>(
                    pmfFor(r.params), r.params.rangeIndexSpan(),
                    r.threshold_index);
        };
        add(std::move(e));
    }
}

} // namespace ulpdp
