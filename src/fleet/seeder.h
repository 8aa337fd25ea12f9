/**
 * @file
 * Deterministic per-node seed derivation for fleet simulations.
 *
 * A fleet run must produce the same per-node noise stream no matter
 * how many threads execute it, so seeds cannot depend on scheduling:
 * every node's Tausworthe seed is a pure function of the fleet master
 * seed, the cohort index and the node id, derived with a SplitMix64
 * finalizer (the standard recipe for splitting one seed into many
 * decorrelated ones).
 *
 * The seeder additionally *rejects* degenerate candidates instead of
 * leaning on the Tausworthe constructor's minimum-enforcement bumps:
 * a seed whose expanded component words fall below the taus88 LFSR
 * minimums would be silently bumped by the constructor, aliasing two
 * distinct seeds onto one generator state -- exactly the kind of
 * stream collision a million-node fleet cannot afford. Degenerate
 * candidates (probability ~2^-27 each) are remixed until clean, which
 * keeps the derivation deterministic.
 */

#ifndef ULPDP_FLEET_SEEDER_H
#define ULPDP_FLEET_SEEDER_H

#include <cstdint>

namespace ulpdp {

/** Derives one clean Tausworthe seed per (cohort, node). */
class FleetSeeder
{
  public:
    explicit FleetSeeder(uint64_t master_seed)
        : master_(master_seed)
    {}

    /**
     * The Tausworthe seed for @p node of @p cohort. Never zero and
     * never degenerate (Tausworthe::seedDegenerate() is false), so
     * constructing Tausworthe(nodeSeed(...)) uses the expansion
     * verbatim, with no aliasing bumps.
     */
    uint64_t nodeSeed(uint32_t cohort, uint64_t node) const;

    /**
     * A decorrelated secondary stream for the same node (data
     * synthesis, dropout draws, ...), keyed by @p salt so independent
     * consumers never share bits with the noise stream.
     */
    uint64_t nodeSubSeed(uint32_t cohort, uint64_t node,
                         uint64_t salt) const;

    /**
     * nodeSubSeed() when the node seed is already in hand: the fleet
     * hot loop derives each node seed exactly once and branches the
     * salted substreams off it, instead of re-deriving (and re-running
     * the degenerate-seed rejection of) nodeSeed() per consumer.
     * subSeed(nodeSeed(c, n), salt) == nodeSubSeed(c, n, salt).
     */
    static uint64_t subSeed(uint64_t node_seed, uint64_t salt)
    {
        return mix64(node_seed ^ (kSaltGamma * (salt + 1)));
    }

    /** SplitMix64 finalizer (public: tests invert it to craft
     *  degenerate candidates). Inline: the fleet checksum digests one
     *  mix per released report. */
    static uint64_t mix64(uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    /** Weyl increment decorrelating the salt dimension. */
    static constexpr uint64_t kSaltGamma = 0xd6e8feb86659fd93ULL;

    uint64_t master_;
};

} // namespace ulpdp

#endif // ULPDP_FLEET_SEEDER_H
