/**
 * @file
 * Mechanism registry: name-based factory + capability flags for every
 * LDP mechanism the system can provision.
 *
 * Before this registry, the resampling/thresholding pair was
 * hard-wired wherever a mechanism had to be chosen -- the DP-Box
 * command decoder, the fleet cohort planner, the utility benches --
 * so landing a new mechanism meant touching every hot path. The
 * registry inverts that: each mechanism registers once, under a
 * stable name, with
 *
 *  - capability flags (can the fleet batch path drive it? is its
 *    per-report latency input-independent? does it admit the Fig. 8
 *    loss-per-segment model? are its outputs confined to the sensor
 *    range?),
 *  - a *resolver* that turns a spec into the mechanism's resolved
 *    parameter block and window extension (every exact search runs
 *    there, once), plus the *lowering* booleans describing how the
 *    fleet hot loop executes it (truncated draw vs clamp), so
 *    cohorts mix mechanisms while the hot loop itself stays
 *    mechanism-agnostic -- it only ever sees the lowered booleans it
 *    already had, and the bit-identical FleetReport fingerprint
 *    survives untouched,
 *  - a builder for the standalone mechanism object, and
 *  - a builder for the exact conditional output model, which is what
 *    the PMF certifier enumerates to machine-check Eq. (4). Both
 *    builders take the resolution, so nothing searches twice.
 *
 * Registration implies certifiability: the CI certify job enumerates
 * every registered mechanism's output distribution at small Bu and
 * fails if any worst-case loss exceeds the bound, so a mechanism
 * cannot register here without passing the same gate (this is why
 * the naive baseline and the ideal float mechanism are deliberately
 * *not* registered -- one is not LDP, the other has no FxP PMF to
 * enumerate).
 */

#ifndef ULPDP_CORE_MECHANISM_REGISTRY_H
#define ULPDP_CORE_MECHANISM_REGISTRY_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/fxp_params.h"
#include "core/mechanism.h"
#include "core/output_model.h"

namespace ulpdp {

/** Capability flags a registered mechanism can advertise. */
namespace mechcap {

/** The fleet SIMD batch path can drive it (rect/truncated-rect
 *  draws over the shared sampling table). */
constexpr uint32_t kBatch = 1u << 0;

/** Per-report latency is input-independent (no timing channel). */
constexpr uint32_t kConstantTime = 1u << 1;

/** Admits the Fig. 8 loss-per-segment model (window-extension
 *  family: loss varies with the released segment). */
constexpr uint32_t kSegmentLoss = 1u << 2;

/** Outputs are confined to the sensor range itself (T = 0); the
 *  consumer never sees a value the sensor could not have read. */
constexpr uint32_t kBoundedOutput = 1u << 3;

} // namespace mechcap

/**
 * Everything a caller specifies to instantiate a mechanism by name.
 * The registry entry resolves the rest (thresholds, scale
 * corrections, rounding modes).
 */
struct MechanismSpec
{
    /** Base parameter block (range, eps, Bu, By, Delta, seed...). */
    FxpMechanismParams params;

    /** Per-query worst-case loss target, as a multiple of eps. */
    double loss_multiple = 2.0;

    /**
     * Window half-extension override in Delta units; negative means
     * "resolve via the exact search". Lowerings write the resolved
     * value back through MechanismLowering::threshold_index so
     * callers can reuse it without repeating the search.
     */
    int64_t threshold_index = -1;

    /** Fixed draw count K for the constant-time mechanism. */
    int batch_size = 4;

    /**
     * Ignored: every PMF is the enumerated one. Kept only because
     * perfbench/certify_phase.cpp still sets it; it goes with the
     * next benchmark change.
     */
    bool enumerate_pmf = false;

    /** The noise PMF this spec implies (FxpLaplacePmf::shared). */
    std::shared_ptr<const FxpLaplacePmf> makePmf() const;
};

/**
 * A resolved spec: the parameter block and window a mechanism runs,
 * plus the two booleans the fleet hot loop already branches on. Any
 * mechanism expressible this way runs on the existing batch path
 * without the loop learning its name.
 */
struct MechanismLowering
{
    /** Fully resolved parameters (rounding, lambda_scale applied). */
    FxpMechanismParams params;

    /** Window half-extension T in Delta units (>= 0). */
    int64_t threshold_index = 0;

    /** Draws come from the truncated rank view (confined draws). */
    bool truncated = false;

    /** One draw, clamped into the window afterwards. */
    bool clamp = false;
};

/** Process-wide mechanism registry. */
class MechanismRegistry
{
  public:
    /** Resolves a spec: every exact search a mechanism needs. */
    using Resolver = MechanismLowering (*)(const MechanismSpec &);

    /** Builds from a spec and its resolution (no further search). */
    template <typename T>
    using Builder = std::function<std::unique_ptr<T>(
            const MechanismSpec &, const MechanismLowering &)>;

    /** One registered mechanism. */
    struct Entry
    {
        /** Stable lookup name (lowercase, hyphenated). */
        std::string name;

        /** OR of mechcap:: flags. */
        uint32_t caps = 0;

        /** One-line description for listings and manuals. */
        std::string summary;

        /**
         * Resolve a spec to the parameter block and window the
         * mechanism runs. Every exact search happens here, once per
         * call; the builders below only consume its result. A plain
         * function pointer, so entries that run the same search share
         * it visibly: certifyAll() resolves each distinct resolver
         * once per profile.
         */
        Resolver resolve = nullptr;

        /** Build the standalone mechanism. */
        Builder<Mechanism> build;

        /** Build the exact conditional output model (what the
         *  certifier and the loss analyses enumerate). */
        Builder<DiscreteOutputModel> buildModel;

        // Filled in by add() from the three above.

        /** resolve(), for entries advertising mechcap::kBatch; an
         *  empty function otherwise (the fleet rejects such cohorts
         *  at plan time). */
        std::function<MechanismLowering(const MechanismSpec &)> lower;

        /** build(spec, resolve(spec)). */
        std::function<std::unique_ptr<Mechanism>(const MechanismSpec &)>
            make;

        /** buildModel(spec, resolve(spec)). */
        std::function<std::unique_ptr<DiscreteOutputModel>(
                const MechanismSpec &)>
            model;

        /** Convenience: does this entry advertise all of @p mask? */
        bool hasCaps(uint32_t mask) const
        {
            return (caps & mask) == mask;
        }
    };

    /** The singleton, with the built-in mechanisms registered. */
    static MechanismRegistry &instance();

    /**
     * Register a mechanism: resolve, build and buildModel are
     * required; lower, make and model are derived from them.
     * Duplicate names are a fatal user error (silent shadowing would
     * un-certify a certified name).
     */
    void add(Entry entry);

    /** Look up by name; nullptr when unknown. */
    const Entry *find(const std::string &name) const;

    /** Look up by name; unknown names are a fatal user error. */
    const Entry &at(const std::string &name) const;

    /** All registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Names advertising every flag in @p required. */
    std::vector<std::string> namesWithCaps(uint32_t required) const;

  private:
    MechanismRegistry();

    std::vector<Entry> entries_;
};

} // namespace ulpdp

#endif // ULPDP_CORE_MECHANISM_REGISTRY_H
