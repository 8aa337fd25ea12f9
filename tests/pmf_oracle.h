/**
 * @file
 * Reference oracle for NoisePmf's segment-rank engine: the exact PMF
 * of a fixed-point noise pipeline by walking all 2^Bu URNG states
 * through it and tallying the outputs, one state at a time.
 *
 * The walk needs no monotonicity and no boundary search, so it is the
 * ground truth the engine is proven bit-identical against (tests) and
 * timed against (bench_ext_certify). It costs 2^Bu pipeline
 * evaluations; keep Bu small.
 */

#ifndef ULPDP_TESTS_PMF_ORACLE_H
#define ULPDP_TESTS_PMF_ORACLE_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "rng/noise_pmf.h"

namespace ulpdp {

/**
 * Exact PMF of @p pipeline (URNG index m in [1, 2^Bu] -> magnitude
 * index, sign +1) by the per-state walk.
 */
template <typename Pipeline>
NoisePmf
walkPmf(int uniform_bits, const Pipeline &pipeline)
{
    std::vector<uint64_t> counts;
    const uint64_t states = uint64_t{1} << uniform_bits;
    for (uint64_t m = 1; m <= states; ++m) {
        int64_t k = pipeline(m);
        ULPDP_ASSERT(k >= 0);
        if (static_cast<size_t>(k) >= counts.size())
            counts.resize(static_cast<size_t>(k) + 1, 0);
        ++counts[static_cast<size_t>(k)];
    }
    return NoisePmf(uniform_bits, std::move(counts));
}

} // namespace ulpdp

#endif // ULPDP_TESTS_PMF_ORACLE_H
