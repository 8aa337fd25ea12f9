#include "core/privacy_loss.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/worker_pool.h"

namespace ulpdp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Outputs per parallel chunk: large enough to amortize the claim,
 *  small enough to balance the skewed per-output cost (interior
 *  outputs see more reachable inputs than edge outputs). */
constexpr int64_t kAnalyzeChunk = 64;

/** Serial sweep over [lo, hi], accumulating into @p report with the
 *  strict-greater argmax (first output wins ties). */
void
sweepOutputs(const DiscreteOutputModel &model, int64_t lo, int64_t hi,
             std::vector<double> &row, LossReport &report)
{
    for (int64_t j = lo; j <= hi; ++j) {
        model.row(j, row.data());
        double loss = PrivacyLossAnalyzer::rowLoss(row.data(), row.size());
        if (loss == -kInf)
            continue; // unreachable by every input: not an output
        if (loss == kInf)
            ++report.infinite_outputs;
        if (loss > report.worst_case_loss) {
            report.worst_case_loss = loss;
            report.worst_output = j;
        }
    }
}

/** A row buffer for @p model. */
std::vector<double>
rowBuffer(const DiscreteOutputModel &model)
{
    return std::vector<double>(static_cast<size_t>(model.span()) + 1);
}

} // anonymous namespace

double
PrivacyLossAnalyzer::rowLoss(const double *row, size_t n)
{
    double p_max = 0.0;
    double p_min = kInf;
    for (size_t i = 0; i < n; ++i) {
        double p = row[i];
        if (p > p_max)
            p_max = p;
        if (p < p_min)
            p_min = p;
    }
    if (p_max <= 0.0)
        return -kInf; // unreachable output
    if (p_min <= 0.0)
        return kInf; // distinguishing output: some input excluded
    return std::log(p_max / p_min);
}

double
PrivacyLossAnalyzer::lossAtOutput(const DiscreteOutputModel &model,
                                  int64_t j)
{
    std::vector<double> row = rowBuffer(model);
    model.row(j, row.data());
    return rowLoss(row.data(), row.size());
}

LossReport
PrivacyLossAnalyzer::analyze(const DiscreteOutputModel &model,
                             int jobs)
{
    LossReport report;
    report.worst_case_loss = 0.0;
    report.worst_output = model.outputLo();

    // Each chunk sweeps into its own partial report, then the
    // partials are merged in output order with the same strict-greater
    // argmax the sweep uses -- so the result (including the
    // tie-broken worst_output) is identical for every job count.
    int64_t lo = model.outputLo();
    int64_t hi = model.outputHi();
    int64_t span = hi - lo + 1;
    int64_t nchunks = (span + kAnalyzeChunk - 1) / kAnalyzeChunk;
    std::vector<LossReport> partials(static_cast<size_t>(nchunks));
    for (auto &p : partials) {
        p.worst_case_loss = -kInf; // "no reachable output seen"
        p.worst_output = lo;
    }
    parallelFor(0, nchunks, jobs, 1,
                [&](int64_t cbegin, int64_t cend) {
                    std::vector<double> row = rowBuffer(model);
                    for (int64_t c = cbegin; c < cend; ++c) {
                        int64_t clo = lo + c * kAnalyzeChunk;
                        int64_t chi =
                            std::min(hi, clo + kAnalyzeChunk - 1);
                        sweepOutputs(model, clo, chi, row,
                                     partials[static_cast<size_t>(c)]);
                    }
                });
    for (const auto &p : partials) {
        report.infinite_outputs += p.infinite_outputs;
        if (p.worst_case_loss > report.worst_case_loss) {
            report.worst_case_loss = p.worst_case_loss;
            report.worst_output = p.worst_output;
        }
    }
    report.bounded = std::isfinite(report.worst_case_loss);
    return report;
}

std::vector<OutputLoss>
PrivacyLossAnalyzer::lossCurve(const DiscreteOutputModel &model)
{
    std::vector<OutputLoss> curve;
    std::vector<double> row = rowBuffer(model);
    for (int64_t j = model.outputLo(); j <= model.outputHi(); ++j) {
        model.row(j, row.data());
        double loss = rowLoss(row.data(), row.size());
        if (loss == -kInf)
            continue;
        curve.push_back(OutputLoss{j, loss});
    }
    return curve;
}

} // namespace ulpdp
