/**
 * @file
 * Exact privacy-loss analysis (Eq. 4) of discrete mechanisms.
 *
 * For a mechanism with conditional output distribution Pr[y | x], the
 * privacy loss incurred by reporting y is
 *
 *   loss(y) = max_{x1, x2} log(Pr[y | x1] / Pr[y | x2])
 *           = log(max_x Pr[y | x] / min_x Pr[y | x]),
 *
 * and the mechanism is eps-LDP iff sup_y loss(y) <= eps. The analyzer
 * enumerates the discrete output support exactly -- no sampling -- and
 * reports +infinity when some output is producible by one input but
 * not another (the Section III-A3 failure of the naive baseline).
 */

#ifndef ULPDP_CORE_PRIVACY_LOSS_H
#define ULPDP_CORE_PRIVACY_LOSS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/output_model.h"

namespace ulpdp {

/** Loss at one output value, for loss-vs-output curves (Figs. 5, 8). */
struct OutputLoss
{
    /** Output index on the Delta grid (0 = range lower limit). */
    int64_t output_index = 0;

    /** Privacy loss at this output; may be +infinity. */
    double loss = 0.0;
};

/** Summary of a full worst-case analysis. */
struct LossReport
{
    /** sup over outputs of the per-output loss; may be +infinity. */
    double worst_case_loss = 0.0;

    /** Output index attaining the worst case. */
    int64_t worst_output = 0;

    /** True iff worst_case_loss is finite. */
    bool bounded = false;

    /** Number of output values with infinite loss. */
    uint64_t infinite_outputs = 0;
};

/** Exact worst-case loss analysis over a DiscreteOutputModel. */
class PrivacyLossAnalyzer
{
  public:
    /** Loss of one output row @p row[i] = Pr[j | i], i < @p n, with
     *  lossAtOutput()'s conventions; the window sweep reads it too. */
    static double rowLoss(const double *row, size_t n);

    /**
     * Loss at a single output index, maximised over all input pairs.
     * Returns +infinity if some input can and another cannot produce
     * @p j; returns -infinity (by convention: "unreachable") if no
     * input produces @p j at all.
     */
    static double lossAtOutput(const DiscreteOutputModel &model,
                               int64_t j);

    /**
     * Full worst-case analysis over the model's output support.
     *
     * @param jobs Worker threads for the sweep over outputs: 1 (the
     *        default) analyzes serially; 0 uses every hardware
     *        thread. The result is identical for every job count --
     *        per-chunk partial reports are merged in output order
     *        with the same strict-greater argmax the serial loop
     *        uses, so ties resolve to the same output index. Requires
     *        model.row() to be safe for concurrent calls (all
     *        registry models are immutable after construction);
     *        each worker reads rows into its own buffer.
     */
    static LossReport analyze(const DiscreteOutputModel &model,
                              int jobs = 1);

    /**
     * Loss as a function of the output index over the whole output
     * range, for plotting (unreachable outputs are skipped).
     */
    static std::vector<OutputLoss>
    lossCurve(const DiscreteOutputModel &model);
};

} // namespace ulpdp

#endif // ULPDP_CORE_PRIVACY_LOSS_H
