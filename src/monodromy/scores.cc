/**
 * @file
 * Haar scores: exact expected decomposition cost by polytope
 * integration and the Monte Carlo approximation of the paper's
 * Algorithm 1.
 */

#include "monodromy/scores.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "decomp/numerical.hh"
#include "linalg/random_unitary.hh"
#include "monodromy/cost_model.hh"
#include "monodromy/haar_density.hh"
#include "weyl/can.hh"

namespace mirage::monodromy {

HaarScore
haarScoreExact(const CoverageSet &coverage, bool mirrors)
{
    const double dur = coverage.basis().duration;
    const int kmax = coverage.kMax();

    HaarScore out;
    double prev = 0;
    for (int k = 1; k <= kmax; ++k) {
        double frac = mirrors ? coverage.mirrorHaarFractionAt(k)
                              : coverage.haarFractionAt(k);
        // Clamp out quadrature noise and enforce monotonicity.
        frac = std::clamp(frac, prev, 1.0);
        double mass = frac - prev; // P(exact depth == k)
        prev = frac;
        out.score += mass * k * dur;
        out.fidelity += mass * decayFidelity(k * dur);
    }
    // Remaining mass (quadrature residue) sits at kmax.
    double rest = 1.0 - prev;
    if (rest > 0) {
        out.score += rest * kmax * dur;
        out.fidelity += rest * decayFidelity(kmax * dur);
    }
    return out;
}

HaarScore
haarScoreMonteCarlo(const CoverageSet &coverage, const MonteCarloOptions &opts)
{
    Rng rng(opts.seed);
    const double dur = coverage.basis().duration;
    const Mat4 &basis_matrix = coverage.basis().matrix;

    double total_cost = 0;
    double total_fid = 0;

    // A short, unpolished fit per approximation check.
    decomp::FitOptions fit_opts;
    fit_opts.restarts = 2;
    fit_opts.adamIterations = 220;
    fit_opts.polish = false;
    fit_opts.targetInfidelity = 1e-9;

    for (int it = 1; it <= opts.iterations; ++it) {
        Mat4 target = linalg::randomSU4(rng);
        Coord c = weyl::weylCoordinates(target);

        int k_exact = opts.mirrors ? coverage.minKMirrored(c)
                                   : coverage.minK(c);
        double best_cost = k_exact * dur;
        double best_fid = decayFidelity(best_cost);

        if (opts.approximate) {
            // Try every cheaper depth; accept when the total fidelity
            // (decomposition accuracy x decoherence decay) improves.
            // Mirrors allow fitting either the gate or its mirror.
            for (int k = 1; k < k_exact; ++k) {
                double circuit_fid = decayFidelity(k * dur);
                if (circuit_fid <= best_fid)
                    break; // deeper candidates only get worse
                double fit_fid = decomp::decomposeWithK(
                                     target, basis_matrix, k, rng, fit_opts)
                                     .fidelity;
                if (opts.mirrors) {
                    Mat4 mirror_target =
                        weyl::canonicalGate(weyl::mirrorCoord(c).a,
                                            weyl::mirrorCoord(c).b,
                                            weyl::mirrorCoord(c).c);
                    double mfid = decomp::decomposeWithK(mirror_target,
                                                         basis_matrix, k,
                                                         rng, fit_opts)
                                      .fidelity;
                    fit_fid = std::max(fit_fid, mfid);
                }
                double total = circuit_fid * fit_fid;
                if (total > best_fid) {
                    best_fid = total;
                    best_cost = k * dur;
                    break; // cheapest acceptable depth wins
                }
            }
        }

        total_cost += best_cost;
        total_fid += best_fid;
        if (opts.progress)
            opts.progress(it, total_cost / it);
    }

    HaarScore out;
    out.score = total_cost / opts.iterations;
    out.fidelity = total_fid / opts.iterations;
    return out;
}

} // namespace mirage::monodromy
