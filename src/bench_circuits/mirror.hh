/**
 * @file
 * Self-verifying mirror-circuit workloads (mirror-RB and mirror-QV).
 *
 * Both families have the shape C · (twist) · C^-1: the ideal output on
 * |0...0> is a single known computational basis state, so one sparse
 * simulation of the routed+lowered circuit checks the ENTIRE transpile
 * pipeline at any width -- no exhaustive unitary comparison, no 6-qubit
 * ceiling (see tests/support/equivalence.hh).
 *
 *  - mirrorRb: random Clifford layers (1Q Cliffords + disjoint CX/CZ
 *    pairs), a uniformly random central Pauli layer, then the exact
 *    inverse half. The ideal bitstring is computed in O(gates) by
 *    conjugating the central Pauli through the inverse half (Proctor et
 *    al., mirror randomized benchmarking).
 *  - mirrorQv: quantum-volume style random SU(4) layers on disjoint
 *    pairs, the exact adjoint blocks in reverse, then a seeded final X
 *    layer so the target bitstring is nontrivial (mitiq's mirror-QV
 *    generator plus the X twist).
 *
 * Generation draws every random choice from counter-based streams
 * (deriveSeed(seed, stream, layer)), so circuits are bit-identical
 * regardless of thread count or call order, at any width up to the
 * 62-qubit sparse-simulator ceiling (heavyhex57 subregions included).
 *
 * Verification: |0...0> is invariant under the initial-layout
 * permutation, so the routed circuit applied to all-zeros on n_phys
 * wires must concentrate on the basis state with bit
 * finalLayout(q) = bitstring[q] -- mirrorSuccessProbability returns
 * that state's probability (1.0 for an exactly-routed circuit, ~1 minus
 * the fit error for a lowered one, ~2^-n for a corrupted pipeline).
 */

#ifndef MIRAGE_BENCHCIRCUITS_MIRROR_HH
#define MIRAGE_BENCHCIRCUITS_MIRROR_HH

#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"

namespace mirage::bench {

/** A mirror circuit plus its ideal output bitstring. */
struct MirrorCircuit
{
    circuit::Circuit circuit;
    /** Ideal measured bit of logical qubit q (0 or 1). */
    std::vector<int> bitstring;
};

/**
 * Mirror randomized-benchmarking circuit: `layers` rounds of (random 1Q
 * Cliffords, random disjoint CX/CZ pairs), a random central Pauli, and
 * the exact inverse half. 2*layers entangling layers of floor(n/2)
 * gates each.
 */
MirrorCircuit mirrorRb(int n, int layers, uint64_t seed);

/**
 * Mirror quantum-volume circuit: `depth` layers of Haar-random SU(4)
 * blocks on random disjoint pairs, the adjoint blocks in reverse, and a
 * seeded final X layer (at least one X, so an accidentally-empty
 * pipeline can never fake a pass).
 */
MirrorCircuit mirrorQv(int n, int depth, uint64_t seed);

/**
 * Probability that measuring `routed` (applied to |0...0> on its full
 * wire count) yields the ideal bitstring, with logical qubit q read on
 * wire logical_to_physical[q] (the router's FINAL layout). Sparse
 * simulation: linear in gates, memory ~2^(logical width).
 */
double mirrorSuccessProbability(
    const circuit::Circuit &routed,
    const std::vector<int> &logical_to_physical,
    const std::vector<int> &bitstring);

} // namespace mirage::bench

#endif // MIRAGE_BENCHCIRCUITS_MIRROR_HH
