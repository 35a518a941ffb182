/**
 * @file
 * Monodromy coverage sets: the regions of the Weyl alcove reachable by
 * k applications of a basis gate interleaved with arbitrary single-qubit
 * gates, and their mirror-extended counterparts (paper Section III).
 *
 * The coverage regions are convex polytopes in the alcove with
 * small-integer facet normals (in canonical coordinates). They are
 * derived numerically but snapped exactly: deterministic seeded sampling
 * of interleaved products provides interior points; per-direction support
 * maximization (Nelder-Mead over the interleaver parameters) sharpens
 * each candidate facet; supports are snapped to the rational grid
 * pi/(16 n). Anchor values from the paper (e.g. sqrt(iSWAP) k=2 covers
 * 79.0% of Haar volume, 94.4% with mirrors) validate the construction in
 * the test suite.
 */

#ifndef MIRAGE_MONODROMY_COVERAGE_HH
#define MIRAGE_MONODROMY_COVERAGE_HH

#include <string>
#include <vector>

#include "geometry/polytope.hh"
#include "linalg/matrix.hh"
#include "weyl/coordinates.hh"

namespace mirage::monodromy {

using geometry::Polytope;
using linalg::Mat4;
using weyl::Coord;

/** A two-qubit basis gate with its cost model inputs. */
struct BasisSpec
{
    std::string name;
    Mat4 matrix;
    Coord coords;
    /** Pulse duration in iSWAP units (iSWAP = 1.0). */
    double duration = 1.0;
    /** Snapping grid divisor: facet offsets lie on pi/(16*gridDivisor). */
    int gridDivisor = 1;

    /** The n-th root of iSWAP (duration 1/n). */
    static BasisSpec rootIswap(int n);
    /** CNOT basis (duration conventionally 1.0). */
    static BasisSpec cnot();
};

/** Coverage sets P_1..P_kMax for one basis gate. */
class CoverageSet
{
  public:
    /**
     * Build the coverage sets. When `parent` is given with stride s,
     * every j-gate product of the parent basis equals a (j*s)-gate
     * product of this basis (e.g. two 4th-roots make one sqrt), so the
     * parent's polytope vertices are exact lower bounds on the supports
     * of P_{j*s} -- this pins deep corners (SWAP, CNOT) exactly instead
     * of relying on numerical certification alone.
     */
    static CoverageSet build(const BasisSpec &basis,
                             const CoverageSet *parent = nullptr,
                             int parent_stride = 1);

    const BasisSpec &basis() const { return basis_; }
    /** Largest k computed; P_kMax covers the full alcove. */
    int kMax() const { return int(perK_.size()); }
    /** Region reachable with exactly <= k applications (1-based). */
    const Polytope &polytope(int k) const { return perK_[size_t(k - 1)]; }
    /** P_k together with its mirror image (union members). */
    const std::vector<Polytope> &mirrorRegion(int k) const
    {
        return mirror_[size_t(k - 1)];
    }

    /** Smallest k with coords inside P_k (tests both alcove reps). */
    int minK(const Coord &c) const;
    /** Smallest k with coords inside P_k or its mirror inside P_k. */
    int minKMirrored(const Coord &c) const;

    /** Haar-weighted fraction covered at k (cached). */
    double haarFractionAt(int k) const;
    /** Haar-weighted fraction covered at k with mirrors (cached). */
    double mirrorHaarFractionAt(int k) const;

  private:
    BasisSpec basis_;
    std::vector<Polytope> perK_;
    std::vector<std::vector<Polytope>> mirror_;
    mutable std::vector<double> fracCache_;
    mutable std::vector<double> mirrorFracCache_;
};

/**
 * Mirror image of a region: the two affine pieces of Eq. 1 applied to the
 * polytope, clipped to the alcove.
 */
std::vector<Polytope> mirrorImage(const Polytope &region);

/** Process-wide cached coverage set for the n-th root of iSWAP. */
const CoverageSet &coverageForRootIswap(int n);
/** Process-wide cached coverage set for CNOT. */
const CoverageSet &coverageForCnot();

} // namespace mirage::monodromy

#endif // MIRAGE_MONODROMY_COVERAGE_HH
