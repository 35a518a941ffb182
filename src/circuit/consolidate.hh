/**
 * @file
 * Two-qubit block consolidation (the paper's ConsolidateBlocks rewrite).
 *
 * Maximal runs of gates confined to one qubit pair are merged into single
 * Unitary2Q blocks whose Weyl coordinates are computed once and annotated
 * on the gate. A quantized-unitary LRU cache reproduces the caching
 * optimization of Fig. 13a: identical interior unitaries (common in
 * structured circuits like QFT) hit the cache instead of re-running the
 * eigensolver.
 */

#ifndef MIRAGE_CIRCUIT_CONSOLIDATE_HH
#define MIRAGE_CIRCUIT_CONSOLIDATE_HH

#include <cstdint>

#include "circuit/circuit.hh"

namespace mirage::circuit {

/** Options controlling consolidation. */
struct ConsolidateOptions
{
    /** Use the coordinate LRU cache (Fig. 13a); off = always recompute. */
    bool useCoordinateCache = true;
};

/** Statistics from one consolidation run. */
struct ConsolidateStats
{
    int blocksEmitted = 0;
    int gatesAbsorbed = 0;
    uint64_t coordCacheHits = 0;
    uint64_t coordCacheMisses = 0;
};

/**
 * Merge maximal same-pair gate runs into Unitary2Q blocks. Barriers seal
 * all open blocks; 3Q gates must be unrolled beforehand.
 */
Circuit consolidateBlocks(const Circuit &input,
                          const ConsolidateOptions &opts = {},
                          ConsolidateStats *stats = nullptr);

/** Reset the process-wide coordinate cache (for benchmarking). */
void clearCoordinateCache();

} // namespace mirage::circuit

#endif // MIRAGE_CIRCUIT_CONSOLIDATE_HH
