/**
 * @file
 * Component micro-benchmarks (google-benchmark): throughput of the
 * Tausworthe URNG, the CORDIC log, the fixed-point Laplace pipeline,
 * each mechanism's noise() path, the exact privacy-loss analysis and
 * the collector's decoders (least-squares decode and EM).
 * These quantify host-simulation speed (how fast the model runs),
 * not device latency (see bench_fig11 / bench_sec5 for cycles).
 */

#include <cmath>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "agg/decode.h"
#include "core/ideal_laplace_mechanism.h"
#include "core/privacy_loss.h"
#include "core/resampling_mechanism.h"
#include "core/threshold_calc.h"
#include "core/thresholding_mechanism.h"
#include "dpbox/driver.h"
#include "rng/batch_sampler.h"
#include "rng/cordic.h"
#include "rng/fxp_laplace.h"
#include "rng/taus_bank.h"
#include "rng/tausworthe.h"

namespace {

using namespace ulpdp;

FxpMechanismParams
benchParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    return p;
}

void
BM_Tausworthe(benchmark::State &state)
{
    Tausworthe rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next32());
}
BENCHMARK(BM_Tausworthe);

void
BM_TausBankNextWords(benchmark::State &state)
{
    uint64_t seeds[TausBank::kMaxLanes];
    TausBank::deriveLaneSeeds(1, seeds, TausBank::kMaxLanes);
    TausBank bank(seeds, TausBank::kMaxLanes);
    uint32_t words[TausBank::kMaxLanes];
    for (auto _ : state) {
        bank.nextWords(words);
        benchmark::DoNotOptimize(words[0]);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(TausBank::kMaxLanes));
}
BENCHMARK(BM_TausBankNextWords);

void
BM_BatchSamplerRect(benchmark::State &state)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = 17;
    cfg.output_bits = 14;
    cfg.delta = 10.0 / 32.0;
    cfg.lambda = 20.0;
    cfg.sample_path = FxpLaplaceConfig::SamplePath::Table;
    FxpLaplaceRng proto(cfg, 1);
    uint64_t seeds[TausBank::kMaxLanes];
    TausBank::deriveLaneSeeds(1, seeds, TausBank::kMaxLanes);
    BatchSampler bs(proto.sharedTable(), cfg.uniform_bits,
                    proto.quantizer().maxIndex());
    bs.seedLanes(seeds, TausBank::kMaxLanes);
    const size_t trials = static_cast<size_t>(state.range(0));
    std::vector<int64_t> rect(trials * TausBank::kMaxLanes);
    for (auto _ : state) {
        bs.sampleRect(rect.data(), trials);
        benchmark::DoNotOptimize(rect[0]);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(rect.size()));
}
BENCHMARK(BM_BatchSamplerRect)->Arg(64)->Arg(1024);

void
BM_CordicLog(benchmark::State &state)
{
    CordicLog cordic(static_cast<int>(state.range(0)));
    uint64_t m = 1;
    for (auto _ : state) {
        m = (m % 131071) + 1;
        benchmark::DoNotOptimize(cordic.lnUnitIndexRaw(m, 17));
    }
}
BENCHMARK(BM_CordicLog)->Arg(16)->Arg(32)->Arg(48);

void
BM_FxpLaplaceSample(benchmark::State &state)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = 17;
    cfg.output_bits = 12;
    cfg.delta = 10.0 / 32.0;
    cfg.lambda = 20.0;
    cfg.log_mode = state.range(0) == 0
        ? FxpLaplaceConfig::LogMode::Reference
        : FxpLaplaceConfig::LogMode::Cordic;
    FxpLaplaceRng rng(cfg);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.sampleIndex());
}
BENCHMARK(BM_FxpLaplaceSample)->Arg(0)->Arg(1);

void
BM_IdealMechanism(benchmark::State &state)
{
    IdealLaplaceMechanism mech(SensorRange(0.0, 10.0), 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(mech.noise(5.0).value);
}
BENCHMARK(BM_IdealMechanism);

void
BM_ThresholdingMechanism(benchmark::State &state)
{
    ThresholdingMechanism mech(benchParams(), 418);
    for (auto _ : state)
        benchmark::DoNotOptimize(mech.noise(5.0).value);
}
BENCHMARK(BM_ThresholdingMechanism);

void
BM_ResamplingMechanism(benchmark::State &state)
{
    ResamplingMechanism mech(benchParams(),
                             state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(mech.noise(5.0).value);
}
BENCHMARK(BM_ResamplingMechanism)->Arg(60)->Arg(418);

void
BM_ExactLossAnalysis(benchmark::State &state)
{
    ThresholdCalculator calc(benchParams());
    ThresholdingOutputModel model(calc.pmf(), calc.span(), 418);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            PrivacyLossAnalyzer::analyze(model).worst_case_loss);
    }
}
BENCHMARK(BM_ExactLossAnalysis);

void
BM_ExactThresholdSearch(benchmark::State &state)
{
    ThresholdCalculator calc(benchParams());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            calc.exactIndex(RangeControl::Resampling, 2.0));
    }
}
BENCHMARK(BM_ExactThresholdSearch);

/** The Fig. 3 pipeline over @p icdf on the per-draw path, so the
 *  ICDF itself is evaluated on every draw. */
FxpLaplaceRng
naiveIcdfRng(std::shared_ptr<const MagnitudeIcdf> icdf)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = 17;
    cfg.output_bits = 12;
    cfg.delta = 10.0 / 32.0;
    cfg.sample_path = FxpLaplaceConfig::SamplePath::Naive;
    cfg.icdf = std::move(icdf);
    return FxpLaplaceRng(cfg);
}

void
BM_GenericGaussianSample(benchmark::State &state)
{
    FxpLaplaceRng rng =
        naiveIcdfRng(std::make_shared<GaussianMagnitude>(20.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.sampleIndex());
}
BENCHMARK(BM_GenericGaussianSample);

void
BM_GenericStaircaseSample(benchmark::State &state)
{
    FxpLaplaceRng rng = naiveIcdfRng(std::make_shared<StaircaseMagnitude>(
        10.0, 0.5, StaircaseMagnitude::optimalGamma(0.5)));
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.sampleIndex());
}
BENCHMARK(BM_GenericStaircaseSample);

void
BM_EnumeratePmf(benchmark::State &state)
{
    FxpLaplaceConfig cfg;
    cfg.uniform_bits = static_cast<int>(state.range(0));
    cfg.output_bits = 12;
    cfg.delta = 10.0 / 32.0;
    cfg.lambda = 20.0;
    for (auto _ : state) {
        FxpLaplacePmf pmf(cfg);
        benchmark::DoNotOptimize(pmf.maxIndex());
    }
}
BENCHMARK(BM_EnumeratePmf)->Arg(12)->Arg(16)->Arg(20);

void
BM_HistogramDeconvolution(benchmark::State &state)
{
    auto pmf = std::make_shared<FxpLaplacePmf>(
        benchParams().rngConfig());
    ThresholdingOutputModel model(pmf, 32, 200);
    agg::FrequencyDecoder decoder(model);
    std::vector<uint64_t> counts(decoder.numOutputs(), 3);
    const int iterations = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            decoder.maximumLikelihood(counts, iterations));
    }
}
BENCHMARK(BM_HistogramDeconvolution)->Arg(50)->Arg(300);

/** decode() on the reference device's 869-slot window (T = 418) over
 *  Arg(0) released reports of off-centre data. At Arg 1 the column
 *  kernel adds one slot and skips the rest, so the time is the zero
 *  scan plus the O(inputs) tail (moments, pmf, median, boundary mass);
 *  the 16k-report time minus it is the kernel's own work. */
void
BM_FrequencyDecode(benchmark::State &state)
{
    ThresholdCalculator calc(benchParams());
    agg::FrequencyDecoder decoder(
        ThresholdingOutputModel(calc.pmf(), calc.span(), 418));
    ThresholdingMechanism mech(benchParams(), 418);
    std::vector<uint64_t> counts(decoder.numOutputs(), 0);
    for (int64_t i = 0; i < state.range(0); ++i) {
        double y = mech.noise(7.5 + 1.5 * std::sin(0.1 * i)).value;
        ++counts[static_cast<size_t>(mech.toIndex(y) -
                                     mech.windowLoIndex())];
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            decoder.decode(counts, 0.0, mech.delta()).mean);
    }
}
BENCHMARK(BM_FrequencyDecode)->Arg(1)->Arg(16384);

void
BM_DpBoxNoising(benchmark::State &state)
{
    DpBoxConfig cfg;
    cfg.frac_bits = 5;
    cfg.word_bits = 20;
    cfg.uniform_bits = 17;
    cfg.threshold_index = 418;
    cfg.thresholding = true;
    DpBoxDriver drv(cfg);
    drv.initialize(1e9, 0);
    drv.configure(0.5, SensorRange(0.0, 10.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(drv.noise(5.0).value);
}
BENCHMARK(BM_DpBoxNoising);

} // anonymous namespace

// Custom main instead of BENCHMARK_MAIN(): the repo-wide `--json
// [PATH]` bench flag maps onto google-benchmark's JSON reporter so CI
// collects BENCH_micro.json next to the other BENCH_*.json artifacts.
int
main(int argc, char **argv)
{
    std::string json_path;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        std::string a = argv[i];
        if (i > 0 && a == "--json") {
            // Optional path operand, matching the other benches.
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
            else
                json_path = "BENCH_micro.json";
            continue;
        }
        args.push_back(argv[i]);
    }
    std::string out_flag, fmt_flag;
    if (!json_path.empty()) {
        out_flag = "--benchmark_out=" + json_path;
        fmt_flag = "--benchmark_out_format=json";
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
