/**
 * @file
 * Wearable hub: the full deployment story on one device.
 *
 *  - Three physical sensors behind ADC front-ends (heart rate,
 *    skin temperature, activity class).
 *  - Privacy intents provisioned into verified device plans
 *    (exact-analysis thresholds, budget segments).
 *  - Numeric streams noised with constant-time resampling (no
 *    timing channel) while charging one shared budget pool.
 *  - The categorical stream answered with k-ary randomized
 *    response.
 *  - A day of simulated operation with periodic budget
 *    replenishment, and the analyst's view at the end.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "agg/decode.h"
#include "common/stats.h"
#include "core/constant_time.h"
#include "core/kary_randomized_response.h"
#include "core/budget.h"
#include "data/timeseries.h"
#include "dpbox/provisioning.h"
#include "sim/sensor_adc.h"

int
main()
{
    using namespace ulpdp;
    setLoggingEnabled(false); // grid-snap warnings are expected here

    // --- Provision the two numeric sensors -----------------------
    PrivacyIntent hr_intent;
    hr_intent.range = SensorRange(40.0, 200.0); // bpm
    hr_intent.epsilon = 0.5;
    hr_intent.loss_multiple = 2.0;
    hr_intent.kind = RangeControl::Resampling;

    PrivacyIntent temp_intent = hr_intent;
    temp_intent.range = SensorRange(30.0, 42.0); // deg C

    ProvisioningPlan hr_plan = Provisioner::plan(hr_intent);
    ProvisioningPlan temp_plan = Provisioner::plan(temp_intent);
    std::printf("%s\n%s\n", hr_plan.toText().c_str(),
                temp_plan.toText().c_str());

    // --- Build the noising paths ---------------------------------
    auto to_params = [](const ProvisioningPlan &plan, uint64_t seed) {
        FxpMechanismParams p;
        p.range = plan.range;
        p.epsilon = plan.effective_epsilon;
        p.uniform_bits = plan.device.uniform_bits;
        p.output_bits = 16;
        p.delta = std::ldexp(1.0, -plan.device.frac_bits);
        p.seed = seed;
        return p;
    };

    // Constant-time resampling: K = 4 draws per report, so latency
    // and energy do not leak the reading.
    ConstantTimeResamplingMechanism hr_mech(
        to_params(hr_plan, 11), hr_plan.device.threshold_index, 4);
    ConstantTimeResamplingMechanism temp_mech(
        to_params(temp_plan, 12), temp_plan.device.threshold_index,
        4);

    // One shared pool: correlating HR and temperature streams still
    // faces a single composition bound.
    BudgetPool pool(60.0, /*replenish every*/ 1440);

    // Activity classifier output: 4 categories through k-ary RR.
    KaryRandomizedResponse activity_rr(4, 1.0, 20, 13);

    // Per-report charges in loss quanta, rounded up.
    const LossQuanta hr_charge = quantaUp(hr_plan.proven_loss);
    const LossQuanta temp_charge = quantaUp(temp_plan.proven_loss);
    const LossQuanta act_charge = quantaUp(activity_rr.exactLoss());

    // --- Simulate a day (one sample per simulated minute) --------
    SensorAdc hr_adc(hr_intent.range, 10);
    SensorAdc temp_adc(temp_intent.range, 12);
    const size_t kMinutes = 1440 * 3; // three replenishment epochs

    auto hr_true = timeseries::meanRevertingWalk(
        kMinutes, hr_intent.range, 72.0, 0.05, 2.0, 21);
    auto temp_true = timeseries::diurnal(
        kMinutes, temp_intent.range, 36.5, 0.6, 1440, 0.05, 22);
    auto act_true = timeseries::piecewiseLevels(
        kMinutes, SensorRange(0.0, 3.0), 4, 0.01, 23);

    RunningStats hr_reports;
    RunningStats temp_reports;
    std::vector<uint64_t> act_observed(4, 0);
    std::vector<double> act_true_counts(4, 0.0);
    double charged = 0.0;
    uint64_t skipped = 0;

    for (size_t t = 0; t < kMinutes; ++t) {
        pool.advanceTime(1);
        // Numeric sensors report once per minute, charging the pool
        // with the per-report loss the plans proved.
        if (pool.tryCharge(hr_charge)) {
            hr_reports.add(
                hr_mech.noise(hr_adc.sample(hr_true[t])).value);
            charged += nats(hr_charge);
        } else {
            ++skipped;
        }
        if (pool.tryCharge(temp_charge)) {
            temp_reports.add(
                temp_mech.noise(temp_adc.sample(temp_true[t])).value);
            charged += nats(temp_charge);
        } else {
            ++skipped;
        }
        // Activity reports are cheap (one RR answer, eps = 1), and
        // here metered on the same pool.
        if (pool.tryCharge(act_charge)) {
            int cat = static_cast<int>(act_true[t]);
            act_true_counts[static_cast<size_t>(cat)] += 1.0;
            ++act_observed[static_cast<size_t>(
                activity_rr.respond(cat))];
            charged += nats(act_charge);
        } else {
            ++skipped;
        }
    }

    // --- Analyst's view -------------------------------------------
    double hr_truth = batch::mean(hr_true);
    double temp_truth = batch::mean(temp_true);
    std::printf("analyst's day summary (from %zu noised reports, "
                "%llu requests unanswered after pool drained):\n",
                static_cast<size_t>(hr_reports.count() +
                                    temp_reports.count()),
                static_cast<unsigned long long>(skipped));
    auto expect_err = [](const ProvisioningPlan &plan, size_t n) {
        double lambda = plan.range.length() / plan.effective_epsilon;
        return lambda * std::sqrt(2.0 / std::max<size_t>(n, 1));
    };
    std::printf("  mean heart rate:   true %6.2f   estimated %6.2f "
                "bpm   (noise floor +-%.1f at %zu reports)\n",
                hr_truth, hr_reports.mean(),
                expect_err(hr_plan, hr_reports.count()),
                hr_reports.count());
    std::printf("  mean temperature:  true %6.2f   estimated %6.2f "
                "C     (noise floor +-%.1f at %zu reports)\n",
                temp_truth, temp_reports.mean(),
                expect_err(temp_plan, temp_reports.count()),
                temp_reports.count());
    std::printf("  (the budget pool deliberately caps how many fresh "
                "reports exist -- coarse\n   estimates are the "
                "privacy guarantee working, not a bug)\n");

    auto act_est = agg::decodeKaryRR(activity_rr, act_observed);
    std::printf("  activity minutes (true -> estimated):\n");
    const char *names[4] = {"resting", "walking", "running",
                            "cycling"};
    double answered = 0.0;
    for (double c : act_true_counts)
        answered += c;
    for (size_t c = 0; c < 4; ++c) {
        std::printf("    %-8s %6.0f -> %6.0f\n", names[c],
                    act_true_counts[c], act_est[c]);
    }

    std::printf("\nprivacy ledger: %.1f nats charged across ALL "
                "streams over %zu minutes (pool %.0f nats per "
                "1440-minute epoch).\n",
                charged, kMinutes, nats(pool.initial()));
    std::printf("Every released value was noised on-device; latency "
                "was a constant %d samples per numeric report (no "
                "timing channel).\n", hr_mech.batchSize());
    return 0;
}
