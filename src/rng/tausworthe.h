/**
 * @file
 * Combined Tausworthe (LFSR) uniform random number generator.
 *
 * The paper's DP-Box sources its uniform randomness from "a Tausworthe
 * random number generator [25]" because a three-component combined
 * Tausworthe (L'Ecuyer's taus88) needs only three 32-bit registers,
 * a handful of shifts and XORs per output word, and no multipliers --
 * ideal for ULP hardware. This is a bit-exact software model of that
 * generator.
 */

#ifndef ULPDP_RNG_TAUSWORTHE_H
#define ULPDP_RNG_TAUSWORTHE_H

#include <cstdint>

#include "common/fault.h"

namespace ulpdp {

class RngHealthMonitor;

/**
 * L'Ecuyer's taus88 combined Tausworthe generator: three maximally
 * equidistributed LFSR components of periods 2^31-1, 2^29-1 and 2^28-1
 * XORed together, giving period ~2^88 and good equidistribution up to
 * dimension 18.
 */
class Tausworthe
{
  public:
    /**
     * Construct from a 64-bit seed. The three component states are
     * derived with a SplitMix64 scrambler and forced to satisfy the
     * component minimums (s1 >= 2, s2 >= 8, s3 >= 16); any 64-bit seed
     * is therefore valid.
     */
    explicit Tausworthe(uint64_t seed = 0x853c49e6748fea9bULL);

    /**
     * The three raw component words the SplitMix64 expansion derives
     * from @p seed, *before* the constructor enforces the component
     * minimums. Exposed so seed-derivation code (the fleet shard
     * seeder) can check a candidate seed without constructing.
     */
    static void expandSeed(uint64_t seed, uint32_t &s1, uint32_t &s2,
                           uint32_t &s3);

    /**
     * Whether @p seed is unsuitable for an *independent* stream: zero,
     * or a seed whose raw expansion leaves any component word below
     * its LFSR minimum (s1 < 2, s2 < 8, s3 < 16 -- the dead low bits
     * would zero the component). The constructor silently bumps such
     * words to stay valid, but the bump aliases two distinct seeds
     * onto the same generator state, so bulk seeders must skip
     * degenerate seeds instead of relying on the bump.
     */
    static bool seedDegenerate(uint64_t seed);

    /** Generate the next 32-bit output word. */
    uint32_t next32();

    /**
     * Generate @p bits uniform random bits (1..32) as the high bits of
     * the next output word (the high bits of a Tausworthe word are the
     * best-distributed ones).
     */
    uint32_t nextBits(int bits);

    /**
     * Generate the URNG output index m uniform on {1, 2, ..., 2^bu} so
     * that u = m * 2^-bu is uniform on (0, 1]. This matches Eq. (9) of
     * the paper: the all-zeros hardware word is mapped to 2^bu (u = 1)
     * so that log(u) is always finite.
     */
    uint64_t nextUnitIndex(int bu);

    /** 2^bu - m, the sampling table's rank, for the URNG index m of one
     *  word (its top @p bu bits, all-zeros meaning 2^bu, Eq. (9)): the
     *  one rule by which nextUnitIndex() and every sampler derive m. */
    static uint32_t
    unitRankOf(uint32_t word, int bu)
    {
        const int shift = 32 - bu;
        return (0u - (word >> shift)) & (~0u >> shift);
    }

    /** Generate one fair sign: +1 or -1. */
    int nextSign();

    /** Uniform double in (0, 1] with 32-bit granularity. */
    double nextUnitDouble();

    /** Raw component states (for tests and checkpointing). */
    uint32_t s1() const { return s1_; }
    uint32_t s2() const { return s2_; }
    uint32_t s3() const { return s3_; }

    /**
     * Restore raw component state (checkpointing, and the batch layer
     * committing a mirrored stream back after a block of draws). The
     * components must satisfy the LFSR minimums -- any state read back
     * from a live generator does.
     */
    void setState(uint32_t s1, uint32_t s2, uint32_t s3);

    /**
     * Whether no fault hook and no health monitor is attached. Only a
     * plain stream may be mirrored into a TausBank lane: the bank has
     * no per-word observation seams, so hooked generators must stay on
     * the scalar path where every word passes the hook/monitor.
     */
    bool plain() const
    {
        return fault_hook_ == nullptr && health_ == nullptr;
    }

    /**
     * Attach a fault hook at the output register: every generated
     * word passes through hook->urngWord() before anything else sees
     * it (the internal LFSR state keeps evolving -- this models a
     * fault on the output flops, not the state). Null detaches.
     * The pointer is borrowed; the hook must outlive the generator.
     */
    void setFaultHook(FaultHook *hook) { fault_hook_ = hook; }

    /**
     * Attach a continuous health monitor: it observes every output
     * word *after* the fault hook, i.e. exactly what the datapath
     * consumes -- the vantage point from which real 90B tests watch
     * an entropy source. Null detaches. Borrowed pointer.
     */
    void attachHealthMonitor(RngHealthMonitor *monitor)
    {
        health_ = monitor;
    }

  private:
    uint32_t s1_;
    uint32_t s2_;
    uint32_t s3_;
    FaultHook *fault_hook_ = nullptr;
    RngHealthMonitor *health_ = nullptr;
};

} // namespace ulpdp

#endif // ULPDP_RNG_TAUSWORTHE_H
