/**
 * @file
 * Decomposition cost model used by MIRAGE while routing.
 *
 * Maps Weyl coordinates to the minimum number of basis applications k,
 * read straight from the coverage polytopes (CoverageSet::minK), so every
 * query of the same coordinates gets the same k. Also provides the
 * decoherence fidelity model of Eq. 2: F = e^{-duration/lifetime} with the
 * lifetime normalized so a unit-duration iSWAP has fidelity 0.99.
 */

#ifndef MIRAGE_MONODROMY_COST_MODEL_HH
#define MIRAGE_MONODROMY_COST_MODEL_HH

#include "monodromy/coverage.hh"

namespace mirage::monodromy {

/** Eq. 2 fidelity for a pulse train of total duration d (iSWAP units). */
double decayFidelity(double duration);

/**
 * Cost/fidelity oracle for one basis gate.
 *
 * Stateless over a const CoverageSet, so one instance may be queried
 * concurrently (parallel routing trials share one).
 */
class CostModel
{
  public:
    explicit CostModel(const CoverageSet &coverage);

    const BasisSpec &basis() const { return coverage_->basis(); }
    double basisDuration() const { return coverage_->basis().duration; }

    /** Minimum applications of the basis realizing these coordinates. */
    int kFor(const Coord &c) const { return coverage_->minK(c); }
    /** Pulse cost: kFor * duration. */
    double costOf(const Coord &c) const { return kFor(c) * basisDuration(); }
    /** Pulse cost of the mirror gate U' = U * SWAP. */
    double mirrorCostOf(const Coord &c) const
    {
        return kFor(weyl::mirrorCoord(c)) * basisDuration();
    }
    /** Pulse cost of a bare SWAP in this basis. */
    double swapCost() const { return swapCost_; }

  private:
    const CoverageSet *coverage_;
    double swapCost_ = 0;
};

/** Cost model for the n-th root of iSWAP (process-cached coverage). */
CostModel makeRootIswapCostModel(int n);

} // namespace mirage::monodromy

#endif // MIRAGE_MONODROMY_COST_MODEL_HH
