/**
 * @file
 * Monodromy coverage sets: construction of the alcove polytopes
 * reachable by k basis applications and their mirror-extended
 * counterparts (paper Section III).
 */

#include "monodromy/coverage.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "decomp/optimize.hh"
#include "geometry/quadrature.hh"
#include "monodromy/haar_density.hh"
#include "weyl/can.hh"
#include "weyl/catalog.hh"

namespace mirage::monodromy {

using geometry::Halfspace;
using geometry::Vec3;
using linalg::kPi;

BasisSpec
BasisSpec::rootIswap(int n)
{
    MIRAGE_ASSERT(n >= 1, "bad iSWAP root degree");
    BasisSpec b;
    b.name = (n == 1) ? "iswap" : ("riswap-" + std::to_string(n));
    b.matrix = weyl::gateRootISWAP(n);
    b.coords = weyl::coordRootISWAP(n);
    b.duration = 1.0 / n;
    b.gridDivisor = n;
    return b;
}

BasisSpec
BasisSpec::cnot()
{
    BasisSpec b;
    b.name = "cnot";
    b.matrix = weyl::gateCX();
    b.coords = weyl::coordCNOT();
    b.duration = 1.0;
    b.gridDivisor = 1;
    return b;
}

namespace {

/** Candidate facet directions: integer vectors with |component| <= 2,
 * primitive (gcd 1), both orientations kept. */
const std::vector<Vec3> &
candidateDirections()
{
    static const std::vector<Vec3> dirs = [] {
        std::vector<Vec3> out;
        auto gcd3 = [](int a, int b, int c) {
            a = std::abs(a);
            b = std::abs(b);
            c = std::abs(c);
            int g = std::gcd(a, std::gcd(b, c));
            return g == 0 ? 1 : g;
        };
        std::vector<std::array<int, 3>> seen;
        for (int i = -2; i <= 2; ++i) {
            for (int j = -2; j <= 2; ++j) {
                for (int k = -2; k <= 2; ++k) {
                    if (i == 0 && j == 0 && k == 0)
                        continue;
                    int g = gcd3(i, j, k);
                    std::array<int, 3> v = {i / g, j / g, k / g};
                    if (std::find(seen.begin(), seen.end(), v) != seen.end())
                        continue;
                    seen.push_back(v);
                    out.push_back(Vec3{double(v[0]), double(v[1]),
                                       double(v[2])});
                }
            }
        }
        return out;
    }();
    return dirs;
}

/** Product of k basis applications with the given interleaver params. */
Mat4
interleavedProduct(const Mat4 &basis, int k, const std::vector<double> &p)
{
    Mat4 w = basis;
    for (int j = 0; j < k - 1; ++j) {
        const double *q = p.data() + 6 * j;
        Mat4 local = linalg::kron(weyl::gateU3(q[0], q[1], q[2]),
                                  weyl::gateU3(q[3], q[4], q[5]));
        w = basis * (local * w);
    }
    return w;
}

Vec3
signedVec(const weyl::Coord &c)
{
    auto s = weyl::signedRep(c);
    return Vec3{s[0], s[1], s[2]};
}

/**
 * Landmark coordinates (alcove vertices, edge midpoints, centroid) whose
 * reachability is certified by direct numerical fits. Random sampling
 * alone misses the chamber corners because the Haar density vanishes
 * there; a certified landmark pins the supports exactly.
 */
const std::vector<Vec3> &
landmarkPoints()
{
    static const std::vector<Vec3> pts = [] {
        const double q = kPi / 4.0;
        std::vector<Vec3> out = {
            {0, 0, 0},             // identity
            {q, 0, 0},             // CNOT
            {q, q, 0},             // iSWAP
            {q, q, q},             // SWAP
            {q, q, -q},            // SWAP (other boundary sign)
            {q / 2, q / 2, 0},     // sqrt(iSWAP)
            {q / 2, q / 2, q / 2}, // sqrt(SWAP)
            {q / 2, q / 2, -q / 2}, // sqrt(SWAP)^dagger
            {q, q / 2, 0},         // B gate
            {q, q / 2, q / 2},     //
            {q, q / 2, -q / 2},    //
            {q, q, q / 2},         //
            {q, q, -q / 2},        //
            {q / 2, 0, 0},         // sqrt(CNOT) class
            {3 * q / 4, q / 2, q / 4},  // interior points
            {3 * q / 4, q / 2, -q / 4},
        };
        // All landmarks must be genuine signed-chamber points: the
        // supports are enforced on the raw coordinates.
        for (const auto &p : out) {
            MIRAGE_ASSERT(weyl::inSignedChamber({p.x, p.y, p.z}, 1e-9),
                          "landmark outside the signed chamber");
        }
        return out;
    }();
    return pts;
}

/** Point polytope at a coordinate (six axis-aligned halfspaces). */
Polytope
pointPolytope(const weyl::Coord &c)
{
    auto s = weyl::signedRep(c);
    std::vector<Halfspace> hs = {
        {{1, 0, 0}, s[0]},  {{-1, 0, 0}, -s[0]}, {{0, 1, 0}, s[1]},
        {{0, -1, 0}, -s[1]}, {{0, 0, 1}, s[2]},  {{0, 0, -1}, -s[2]},
    };
    return Polytope(std::move(hs));
}

} // namespace

std::vector<Polytope>
mirrorImage(const Polytope &region)
{
    // Eq. 1 in signed-chamber coordinates is piecewise affine with the
    // branch split on the sign of z:
    //   z <= 0:  (x,y,z) -> (pi/4+z, pi/4-y, pi/4-x)
    //   z >= 0:  (x,y,z) -> (pi/4-z, pi/4-y, x-pi/4)
    // and both branches map the chamber into itself.
    const double q = kPi / 4.0;
    Polytope chamber = geometry::signedChamber();

    Polytope lower = region;
    lower.addHalfspace(Halfspace{{0, 0, 1}, 0}); // z <= 0
    Polytope piece1 =
        lower.affineImage({0, 0, 1, 0, -1, 0, -1, 0, 0}, Vec3{q, q, q})
            .intersect(chamber);

    Polytope upper = region;
    upper.addHalfspace(Halfspace{{0, 0, -1}, 0}); // z >= 0
    Polytope piece2 =
        upper.affineImage({0, 0, -1, 0, -1, 0, 1, 0, 0}, Vec3{q, q, -q})
            .intersect(chamber);

    return {piece1, piece2};
}

CoverageSet
CoverageSet::build(const BasisSpec &basis, const CoverageSet *parent,
                   int parent_stride)
{
    // Sampling budget and seed; the snapped polytopes (and every
    // coverage anchor the tests pin) depend on them.
    constexpr int kSamplesPerK = 6000;
    constexpr int kRefineEvals = 250;
    constexpr int kMaxK = 8;
    constexpr uint64_t kSeed = 0x5EEDULL;

    CoverageSet cs;
    cs.basis_ = basis;

    Rng rng(kSeed);
    const auto &dirs = candidateDirections();
    const double grid = kPi / (16.0 * basis.gridDivisor);
    const double snap_tol = 0.012;
    const double q4 = kPi / 4.0;

    // k = 1: a single point (up to local gates).
    cs.perK_.push_back(
        pointPolytope(basis.coords).intersect(geometry::signedChamber()));
    {
        auto pieces = mirrorImage(cs.perK_.back());
        pieces.insert(pieces.begin(), cs.perK_.back());
        cs.mirror_.push_back(std::move(pieces));
    }

    std::vector<Vec3> prev_vertices = {signedVec(basis.coords)};
    std::vector<bool> certified(landmarkPoints().size(), false);
    Rng fit_rng(kSeed ^ 0xF17ULL);

    for (int k = 2; k <= kMaxK; ++k) {
        const int nparams = 6 * (k - 1);
        std::vector<double> supports(dirs.size(),
                                     -std::numeric_limits<double>::infinity());
        std::vector<std::vector<double>> argmax(dirs.size());

        // Nesting: P_{k-1} subset P_k, so its vertices lower-bound every
        // support exactly.
        for (size_t d = 0; d < dirs.size(); ++d) {
            for (const auto &v : prev_vertices)
                supports[d] = std::max(supports[d], dirs[d].dot(v));
        }

        // Bulk sampling of interleaved products.
        for (int s = 0; s < kSamplesPerK; ++s) {
            std::vector<double> p(static_cast<size_t>(nparams));
            for (auto &x : p)
                x = rng.uniform(-kPi, kPi);
            weyl::Coord c =
                weyl::weylCoordinates(interleavedProduct(basis.matrix, k, p));
            Vec3 v = signedVec(c);
            for (size_t d = 0; d < dirs.size(); ++d) {
                double h = dirs[d].dot(v);
                if (h > supports[d]) {
                    supports[d] = h;
                    argmax[d] = p;
                }
            }
        }

        // Exact inherited bounds: j parent-basis gates = j*stride gates
        // of this basis, so the parent polytope's vertices belong to
        // P_k for every j with j*stride <= k.
        if (parent && parent_stride >= 1) {
            int j = std::min(k / parent_stride, parent->kMax());
            if (j >= 1) {
                for (const auto &v :
                     parent->polytope(j).vertices()) {
                    for (size_t d = 0; d < dirs.size(); ++d)
                        supports[d] =
                            std::max(supports[d], dirs[d].dot(v));
                }
            }
        }

        // Exact power landmarks: k consecutive basis pulses realize
        // CAN(k*beta, k*beta, 0) with no interleavers, pinning the
        // x+y direction for free.
        for (int j = 1; j <= k; ++j) {
            weyl::Coord pw = weyl::canonicalize(
                j * basis.coords.a, j * basis.coords.b, j * basis.coords.c);
            Vec3 v = signedVec(pw);
            for (size_t d = 0; d < dirs.size(); ++d)
                supports[d] = std::max(supports[d], dirs[d].dot(v));
            // The x == pi/4 face carries both z-sign representatives.
            if (std::fabs(v.x - kPi / 4.0) < 1e-9) {
                Vec3 w{v.x, v.y, -v.z};
                for (size_t d = 0; d < dirs.size(); ++d)
                    supports[d] = std::max(supports[d], dirs[d].dot(w));
            }
        }

        // Landmark certification: direct numerical fits prove membership
        // of chamber corners the random sampling cannot reach.
        {
            decomp::FitOptions fo;
            fo.restarts = 5 + k / 2;
            fo.adamIterations = 350 + 60 * k;
            fo.targetInfidelity = 1e-10;
            const auto &pts = landmarkPoints();
            for (size_t i = 0; i < pts.size(); ++i) {
                if (certified[i])
                    continue;
                Mat4 target = weyl::canonicalGate(pts[i].x, pts[i].y,
                                                  pts[i].z);
                auto fit = decomp::fitAnsatz(target, basis.matrix, k,
                                             fit_rng, fo);
                // Reachable fits converge to ~1e-9 infidelity while
                // unreachable landmarks stall around 1e-3; 1e-6 separates
                // the two regimes with orders of magnitude to spare.
                if (fit.fidelity >= 1.0 - 1e-6)
                    certified[i] = true;
            }
            for (size_t d = 0; d < dirs.size(); ++d) {
                for (size_t i = 0; i < pts.size(); ++i) {
                    if (certified[i])
                        supports[d] =
                            std::max(supports[d], dirs[d].dot(pts[i]));
                }
            }
        }

        // Per-direction support refinement.
        for (size_t d = 0; d < dirs.size(); ++d) {
            if (argmax[d].empty())
                continue;
            decomp::ObjectiveFn obj = [&](const std::vector<double> &p) {
                weyl::Coord c = weyl::weylCoordinates(
                    interleavedProduct(basis.matrix, k, p));
                return -dirs[d].dot(signedVec(c));
            };
            double val = 0;
            decomp::nelderMead(obj, argmax[d], 0.15, kRefineEvals, &val);
            supports[d] = std::max(supports[d], -val);
        }

        // Snap supports onto the rational grid; pad un-snapped values so
        // the polytope never excludes genuinely reachable points.
        std::vector<Halfspace> hs;
        for (size_t d = 0; d < dirs.size(); ++d) {
            double h = supports[d];
            double snapped = std::round(h / grid) * grid;
            if (std::fabs(snapped - h) <= snap_tol)
                h = snapped;
            else
                h += 1e-9;
            hs.push_back(Halfspace{dirs[d], h});
        }
        Polytope poly =
            Polytope(std::move(hs)).intersect(geometry::signedChamber());
        poly.removeRedundancy();

        cs.perK_.push_back(poly);
        auto pieces = mirrorImage(poly);
        pieces.insert(pieces.begin(), poly);
        cs.mirror_.push_back(std::move(pieces));

        prev_vertices = poly.vertices();

        // Full coverage is a geometric fact: the polytope is convex, so
        // it equals the chamber as soon as it contains all four chamber
        // vertices.
        const Vec3 chamber_vertices[4] = {
            {0, 0, 0}, {q4, 0, 0}, {q4, q4, q4}, {q4, q4, -q4}};
        bool full = true;
        for (const auto &v : chamber_vertices) {
            if (!poly.contains(v, 1e-9)) {
                full = false;
                break;
            }
        }
        if (full)
            break;
    }
    return cs;
}

int
CoverageSet::minK(const Coord &c) const
{
    // The identity class costs nothing (this is what makes the mirror of
    // a SWAP free: SWAP * SWAP = I is pure relabeling).
    if (c.a < 1e-9 && c.b < 1e-9 && c.c < 1e-9)
        return 0;
    auto s = weyl::signedRep(c);
    std::vector<Vec3> reps = {Vec3{s[0], s[1], s[2]}};
    // On the x == pi/4 face the class has both z-sign representatives.
    if (std::fabs(s[0] - kPi / 4.0) < 1e-9 && std::fabs(s[2]) > 1e-12)
        reps.push_back(Vec3{s[0], s[1], -s[2]});
    for (int k = 1; k <= kMax(); ++k) {
        for (const auto &rep : reps) {
            if (perK_[size_t(k - 1)].contains(rep, 1e-6))
                return k;
        }
    }
    // Numerical edge: fall back to the full-coverage depth.
    return kMax();
}

int
CoverageSet::minKMirrored(const Coord &c) const
{
    return std::min(minK(c), minK(weyl::mirrorCoord(c)));
}

double
CoverageSet::haarFractionAt(int k) const
{
    if (fracCache_.size() < perK_.size())
        fracCache_.assign(perK_.size(), -1.0);
    double &slot = fracCache_[size_t(k - 1)];
    if (slot < 0)
        slot = haarFraction(perK_[size_t(k - 1)]);
    return slot;
}

double
CoverageSet::mirrorHaarFractionAt(int k) const
{
    if (mirrorFracCache_.size() < mirror_.size())
        mirrorFracCache_.assign(mirror_.size(), -1.0);
    double &slot = mirrorFracCache_[size_t(k - 1)];
    if (slot < 0)
        slot = haarFraction(mirror_[size_t(k - 1)]);
    return slot;
}

const CoverageSet &
coverageForRootIswap(int n)
{
    // Recursive: building root n inserts its divisor parents first. The
    // lock guards callers invoking transpile() concurrently from their
    // own threads; references stay valid because std::map never
    // relocates nodes.
    static std::recursive_mutex registry_mutex;
    static std::map<int, CoverageSet> registry;
    std::lock_guard<std::recursive_mutex> lock(registry_mutex);
    auto it = registry.find(n);
    if (it == registry.end()) {
        // Largest proper divisor gives the tightest exact parent.
        const CoverageSet *parent = nullptr;
        int stride = 1;
        for (int m = n / 2; m >= 1; --m) {
            if (n % m == 0) {
                parent = &coverageForRootIswap(m);
                stride = n / m;
                break;
            }
        }
        it = registry
                 .emplace(n, CoverageSet::build(BasisSpec::rootIswap(n),
                                                parent, stride))
                 .first;
    }
    return it->second;
}

const CoverageSet &
coverageForCnot()
{
    static const CoverageSet cs = CoverageSet::build(BasisSpec::cnot());
    return cs;
}

} // namespace mirage::monodromy
