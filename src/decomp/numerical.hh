/**
 * @file
 * Numerical decomposition front-end: express a two-qubit target in k
 * applications of a basis gate, either exactly (fidelity ~1) or as the
 * best achievable approximation for a given k (used by the approximate
 * decomposition experiments, paper Algorithm 1 / Table II).
 */

#ifndef MIRAGE_DECOMP_NUMERICAL_HH
#define MIRAGE_DECOMP_NUMERICAL_HH

#include "circuit/circuit.hh"
#include "decomp/optimize.hh"

namespace mirage::decomp {

/** A fitted decomposition of a 2Q target. */
struct Decomposition
{
    int k = 0;                  ///< basis applications used
    double fidelity = 0;        ///< achieved process fidelity
    std::vector<double> params; ///< 6(k+1) U3 angles
    /**
     * Objective evaluations spent producing this fit, including
     * discarded restarts/continuation branches. Zero for entries
     * restored from a saved cache (warm starts cost nothing) -- the
     * counter behind the bench-lowering `fitEvaluations` gate, and NOT
     * part of the persisted cache format.
     */
    uint64_t evaluations = 0;
};

/** Best fit with exactly k basis applications. */
Decomposition decomposeWithK(const Mat4 &target, const Mat4 &basis, int k,
                             Rng &rng, const FitOptions &opts = {});

/**
 * Like decomposeWithK, but fits the CANONICAL gate CAN(a,b,c) of the
 * target and grafts the exact KAK local factors onto the outermost
 * ansatz layers. The optimization landscape of the bare canonical gate
 * is far better conditioned than that of a locally dressed block
 * (small-angle controlled-phase blocks routinely fit to ~1e-14 via the
 * canonical form where the direct fit stalls around 1e-5), and the
 * grafting is exact, so the achieved fidelity carries over. The
 * reported fidelity is re-evaluated against the original target.
 */
Decomposition decomposeViaCanonical(const Mat4 &target, const Mat4 &basis,
                                    int k, Rng &rng,
                                    const FitOptions &opts = {});

/**
 * Append the fitted sequence to a circuit as Unitary1Q layers interleaved
 * with RootISWAP(root_degree) gates on wires (qa, qb).
 */
void appendDecomposition(circuit::Circuit &circ, const Decomposition &d,
                         int root_degree, int qa, int qb);

} // namespace mirage::decomp

#endif // MIRAGE_DECOMP_NUMERICAL_HH
