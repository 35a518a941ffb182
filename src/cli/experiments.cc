/**
 * @file
 * Experiment registry implementation: one entry per reproducible paper
 * artifact, each returning a versioned JSON payload, plus the shared
 * renderers (markdown, CSV) and the schema validator.
 */

#include "cli/experiments.hh"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "bench_circuits/generators.hh"
#include "bench_circuits/mirror.hh"
#include "circuit/consolidate.hh"
#include "cli/args.hh"
#include "common/exec.hh"
#include "decomp/catalog.hh"
#include "decomp/equivalence.hh"
#include "mirage/pipeline.hh"
#include "monodromy/scores.hh"
#include "topology/coupling.hh"
#include "weyl/catalog.hh"

namespace mirage::cli {

SweepKnobs
resolveKnobs(const Experiment &e, const SweepKnobs &user,
             json::Value *parameters)
{
    SweepKnobs knobs;
    for (const KnobSpec &s : knobSpecs()) {
        const KnobDefault *declared = e.declared(s.knob);
        const bool given =
            s.number ? user.*s.number >= 0 : !(user.*s.text).empty();
        if (!declared) {
            if (!given)
                continue;
            std::string reads;
            for (const KnobSpec &r : knobSpecs())
                if (e.declared(r.knob))
                    reads += std::string(reads.empty() ? "" : ", ") + r.flag;
            throw UsageError(std::string(s.flag) + " is not read by "
                             "experiment '" + e.name + "' (it reads " +
                             (reads.empty() ? "no knobs" : reads) + ")");
        }
        if (s.text) {
            knobs.*s.text = user.*s.text;
            if (parameters && s.parameter && given)
                parameters->set(s.parameter, knobs.*s.text);
        } else {
            knobs.*s.number = given ? user.*s.number : declared->value;
            if (parameters && s.parameter)
                parameters->set(s.parameter, knobs.*s.number);
        }
    }
    return knobs;
}

namespace {

/** How many of `available` suite entries a run covers (--limit). */
size_t
limitedCount(const SweepKnobs &k, size_t available)
{
    return k.suiteLimit >= 0 ? std::min(size_t(k.suiteLimit), available)
                             : available;
}

/** Column descriptor: key into the row objects + table label. */
json::Value
column(const char *key, const char *label, int digits = -1,
       bool sci = false)
{
    json::Value c = json::Value::object();
    c.set("key", key);
    c.set("label", label);
    if (digits >= 0)
        c.set("digits", digits);
    if (sci)
        c.set("sci", true);
    return c;
}

mirage_pass::TranspileOptions
sweepOptions(mirage_pass::Flow flow, uint64_t seed, const SweepKnobs &k)
{
    mirage_pass::TranspileOptions o;
    o.flow = flow;
    o.layoutTrials = k.layoutTrials;
    o.swapTrials = k.swapTrials;
    o.forwardBackwardPasses = k.fwdBwd;
    // The paper's suite is selected to need routing; skip the VF2
    // short-circuit so linear-interaction circuits are routed too.
    o.tryVf2 = false;
    o.seed = seed;
    o.threads = k.threads;
    return o;
}

/**
 * transpile() each circuit in order with one options set, so one
 * equivalence library (opts.equivalenceLibrary) serves them all; when
 * threads != 1 one trial-grid pool, owned here, serves them too.
 */
std::vector<mirage_pass::TranspileResult>
transpileAll(const std::vector<circuit::Circuit> &circuits,
             const topology::CouplingMap &coupling,
             mirage_pass::TranspileOptions opts)
{
    std::optional<exec::ThreadPool> pool;
    if (opts.threads != 1)
        opts.pool = &pool.emplace(opts.threads);
    std::vector<mirage_pass::TranspileResult> results;
    results.reserve(circuits.size());
    for (const circuit::Circuit &c : circuits)
        results.push_back(mirage_pass::transpile(c, coupling, opts));
    return results;
}

/** Aggregated transpile statistics over several seeds (geometric mean
 * for depth as in the paper, arithmetic for counters). */
struct SweepStats
{
    double depth = 0;
    double depthPulses = 0;
    double totalPulses = 0;
    double swaps = 0;
    double mirrorRate = 0;
};

SweepStats
runSweep(const std::string &bench_name,
         const topology::CouplingMap &coupling, mirage_pass::Flow flow,
         const SweepKnobs &knobs, int fixed_aggression = -1)
{
    SweepStats s;
    double log_depth = 0;
    for (int i = 0; i < knobs.seeds; ++i) {
        auto circ = bench::benchmarkByName(bench_name).make();
        auto opts = sweepOptions(flow, 0x9000 + 131 * uint64_t(i), knobs);
        opts.fixedAggression = fixed_aggression;
        auto res = mirage_pass::transpile(circ, coupling, opts);
        log_depth += std::log(std::max(res.metrics.depth, 1e-9));
        s.depthPulses += res.metrics.depthPulses;
        s.totalPulses += res.metrics.totalPulses;
        s.swaps += res.swapsAdded;
        s.mirrorRate += res.mirrorAcceptRate();
    }
    s.depth = std::exp(log_depth / knobs.seeds);
    s.depthPulses /= knobs.seeds;
    s.totalPulses /= knobs.seeds;
    s.swaps /= knobs.seeds;
    s.mirrorRate /= knobs.seeds;
    return s;
}

double
pct(double base, double now)
{
    return base > 0 ? 100.0 * (base - now) / base : 0.0;
}

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Record catalog usage in an artifact's summary object. */
void
setCatalogSummary(json::Value &summary, const decomp::CatalogLoad &use)
{
    summary.set("catalogPath", use.path);
    summary.set("catalogLoaded", use.loaded());
    summary.set("catalogEntries", uint64_t(use.result.entriesLoaded));
    if (!use.result.message.empty())
        summary.set("catalogError", use.result.message);
}

// --- experiments ------------------------------------------------------------

/**
 * Figs. 3-4: Haar-weighted coverage of the monodromy polytopes at each
 * k for CNOT and the iSWAP roots, with and without mirrors.
 */
json::Value
runFig3to4(const SweepKnobs &, json::Value &)
{
    json::Value rows = json::Value::array();
    json::Value fullK = json::Value::object();
    json::Value mirrorFullK = json::Value::object();
    for (const monodromy::CoverageSet *cs :
         {&monodromy::coverageForCnot(), &monodromy::coverageForRootIswap(2),
          &monodromy::coverageForRootIswap(3),
          &monodromy::coverageForRootIswap(4)}) {
        const std::string &basis = cs->basis().name;
        int mirror_full = 0;
        for (int k = 1; k <= cs->kMax(); ++k) {
            const double mirror = cs->mirrorHaarFractionAt(k);
            if (!mirror_full && mirror >= 1.0 - 1e-9)
                mirror_full = k;
            json::Value row = json::Value::object();
            row.set("basis", basis);
            row.set("duration", cs->basis().duration);
            row.set("k", k);
            row.set("coverage", 100.0 * cs->haarFractionAt(k));
            row.set("mirrorCoverage", 100.0 * mirror);
            rows.push(std::move(row));
        }
        fullK.set(basis, cs->kMax());
        mirrorFullK.set(basis, mirror_full);
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("basis", "basis"));
    cols.push(column("duration", "duration", 3));
    cols.push(column("k", "k"));
    cols.push(column("coverage", "coverage(%)", 2));
    cols.push(column("mirrorCoverage", "mirror coverage(%)", 2));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("fullCoverageK", std::move(fullK));
    summary.set("mirrorFullCoverageK", std::move(mirrorFullK));
    out.set("summary", std::move(summary));
    out.set("notes",
            "Haar-weighted volume of the k-application coverage polytope, "
            "standard and mirror-extended (U or U*SWAP realizable).");
    return out;
}

/**
 * Fig. 5: Monte-Carlo convergence of the 4th-root iSWAP Haar score
 * under the four strategies, at log-spaced checkpoints, against the
 * exact polytope-integration references.
 */
json::Value
runFig5(const SweepKnobs &knobs, json::Value &)
{
    const monodromy::CoverageSet &cs = monodromy::coverageForRootIswap(4);
    const int iters = knobs.mcIterations;

    std::vector<int> checkpoints;
    for (int c = 1; c <= iters; c *= 2)
        checkpoints.push_back(c);
    if (checkpoints.back() != iters)
        checkpoints.push_back(iters);

    const struct
    {
        const char *key;
        bool mirrors;
        bool approximate;
    } strategies[] = {
        {"exact", false, false},
        {"approximate", false, true},
        {"exactMirrors", true, false},
        {"approxMirrors", true, true},
    };
    std::vector<std::vector<double>> curves;
    json::Value final_scores = json::Value::object();
    json::Value final_fidelities = json::Value::object();
    for (const auto &s : strategies) {
        monodromy::MonteCarloOptions opts;
        opts.iterations = iters;
        opts.mirrors = s.mirrors;
        opts.approximate = s.approximate;
        std::vector<double> &curve =
            curves.emplace_back(checkpoints.size(), 0.0);
        opts.progress = [&](int it, double running) {
            for (size_t i = 0; i < checkpoints.size(); ++i) {
                if (checkpoints[i] == it)
                    curve[i] = running;
            }
        };
        monodromy::HaarScore score = monodromy::haarScoreMonteCarlo(cs, opts);
        curve.back() = score.score;
        final_scores.set(s.key, score.score);
        final_fidelities.set(s.key, score.fidelity);
    }
    json::Value rows = json::Value::array();
    for (size_t i = 0; i < checkpoints.size(); ++i) {
        json::Value row = json::Value::object();
        row.set("iteration", checkpoints[i]);
        for (size_t j = 0; j < curves.size(); ++j)
            row.set(strategies[j].key, curves[j][i]);
        rows.push(std::move(row));
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("iteration", "iteration"));
    cols.push(column("exact", "exact", 4));
    cols.push(column("approximate", "approximate", 4));
    cols.push(column("exactMirrors", "exact+mirrors", 4));
    cols.push(column("approxMirrors", "approx+mirrors", 4));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("exactReference", monodromy::haarScoreExact(cs, false).score);
    summary.set("exactMirrorReference",
                monodromy::haarScoreExact(cs, true).score);
    summary.set("finalScore", std::move(final_scores));
    summary.set("finalFidelity", std::move(final_fidelities));
    out.set("summary", std::move(summary));
    out.set("notes",
            "Running Haar score of Algorithm 1 for the 4th root of iSWAP "
            "at log-spaced iterations; the summary carries the exact "
            "polytope-integration reference lines and the final "
            "score/fidelity per strategy.");
    return out;
}

/**
 * Fig. 6: the CPHASE family and its mirror, the parametric-SWAP family,
 * against the sqrt(iSWAP) coverage. CPHASE sits inside the k=2 region;
 * its pSWAP mirror needs k=3 except at the CNOT/iSWAP endpoint.
 */
json::Value
runFig6(const SweepKnobs &, json::Value &)
{
    monodromy::CostModel cm = monodromy::makeRootIswapCostModel(2);
    json::Value rows = json::Value::array();
    for (int i = 1; i <= 8; ++i) {
        const double phi = linalg::kPi * i / 8.0;
        const weyl::Coord cp = weyl::coordCP(phi);
        const weyl::Coord ps = weyl::mirrorCoord(cp);
        json::Value row = json::Value::object();
        row.set("phiOverPi", phi / linalg::kPi);
        row.set("cpCoords", cp.toString());
        row.set("cpCost", cm.costOf(cp));
        row.set("cpK", cm.kFor(cp));
        row.set("pswapCoords", ps.toString());
        row.set("pswapCost", cm.costOf(ps));
        row.set("pswapK", cm.kFor(ps));
        rows.push(std::move(row));
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("phiOverPi", "phi/pi", 3));
    cols.push(column("cpCoords", "CP coords"));
    cols.push(column("cpCost", "cost", 2));
    cols.push(column("cpK", "k"));
    cols.push(column("pswapCoords", "pSWAP coords"));
    cols.push(column("pswapCost", "mirror cost", 2));
    cols.push(column("pswapK", "mirror k"));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    out.set("notes",
            "CNOT (phi = pi) and its mirror (iSWAP) both cost k=2, the "
            "free mirror; fractional CPHASEs mirror into k=3 pSWAPs, "
            "favored only when absorbing a SWAP.");
    return out;
}

/** Fig. 8: TwoLocal(full, 4q) on a 4-qubit line, baseline vs MIRAGE. */
json::Value
runFig8(const SweepKnobs &knobs, json::Value &)
{
    auto circ = bench::twoLocalFull(4, 1, 7);
    auto line = topology::CouplingMap::line(4);

    json::Value rows = json::Value::array();
    json::Value gates = json::Value::array();
    for (auto [label, flow] :
         {std::pair{"Qiskit-baseline", mirage_pass::Flow::SabreBaseline},
          std::pair{"MIRAGE", mirage_pass::Flow::MirageDepth}}) {
        auto res = mirage_pass::transpile(circ, line,
                                          sweepOptions(flow, 1, knobs));
        json::Value row = json::Value::object();
        row.set("flow", label);
        row.set("depthPulses", res.metrics.depthPulses);
        row.set("swaps", res.metrics.swapGates);
        row.set("mirrors", res.mirrorsAccepted);
        row.set("depth", res.metrics.depth);
        rows.push(std::move(row));
        if (flow == mirage_pass::Flow::MirageDepth) {
            for (const auto &g : res.routed.gates()) {
                if (!g.isTwoQubit())
                    continue;
                gates.push(g.name() + "(" + std::to_string(g.qubits[0]) +
                           "," + std::to_string(g.qubits[1]) + ")" +
                           (g.mirrored ? " [mirror]" : ""));
            }
        }
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("flow", "flow"));
    cols.push(column("depthPulses", "pulses(sqiSW)", 1));
    cols.push(column("swaps", "swaps"));
    cols.push(column("mirrors", "mirrors"));
    cols.push(column("depth", "depth(iSWAP)", 2));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("mirageTwoQubitGates", std::move(gates));
    out.set("summary", std::move(summary));
    return out;
}

/**
 * Fig. 9: local minima in greedy routing. The Fig. 8 input is routed
 * from the identity layout (its first gate needs no SWAP) once per
 * trial, cycling the aggression levels and seeds; different greedy
 * tie-breaks land in different minima, which is why MIRAGE runs many
 * trials and post-selects on depth.
 */
json::Value
runFig9(const SweepKnobs &knobs, json::Value &)
{
    const auto line = topology::CouplingMap::line(4);
    const auto cost = monodromy::makeRootIswapCostModel(2);
    const auto consolidated =
        circuit::consolidateBlocks(bench::twoLocalFull(4, 1, 7));

    std::map<int, int> histogram; // depth in pulses -> trials
    for (int t = 0; t < knobs.layoutTrials; ++t) {
        router::PassOptions opts;
        opts.costModel = &cost;
        opts.aggression = std::array{
            router::Aggression::Lower, router::Aggression::Equal,
            router::Aggression::Always, router::Aggression::None}[t % 4];
        opts.seed = 101 + 7 * uint64_t(t);
        auto res = router::routePass(consolidated, line, layout::Layout(4),
                                     opts);
        auto m = mirage_pass::computeMetrics(res.routed, cost);
        ++histogram[int(m.depthPulses + 0.5)];
    }

    json::Value rows = json::Value::array();
    for (auto [pulses, count] : histogram) {
        json::Value row = json::Value::object();
        row.set("depthPulses", pulses);
        row.set("trials", count);
        row.set("bar", std::string(size_t(count), '#'));
        rows.push(std::move(row));
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("depthPulses", "depth(pulses)"));
    cols.push(column("trials", "trials"));
    cols.push(column("bar", "histogram"));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("bestPulses", histogram.begin()->first);
    summary.set("worstPulses", histogram.rbegin()->first);
    summary.set("minima", uint64_t(histogram.size()));
    out.set("summary", std::move(summary));
    out.set("notes",
            "TwoLocal(full, 4q) on a 4-qubit line from the identity "
            "layout, one routing pass per trial with aggression cycling "
            "through the four levels; post-selection keeps the best "
            "route.");
    return out;
}

/** Fig. 10: fixed aggression levels vs baseline on four circuits. */
json::Value
runFig10(const SweepKnobs &knobs, json::Value &)
{
    auto grid = topology::CouplingMap::grid(6, 6);
    const char *names[] = {"wstate_n27", "bigadder_n18", "qft_n18",
                           "bv_n30"};

    json::Value rows = json::Value::array();
    for (const char *name : names) {
        json::Value row = json::Value::object();
        row.set("circuit", name);
        row.set("qiskit",
                runSweep(name, grid, mirage_pass::Flow::SabreBaseline,
                         knobs)
                    .depth);
        for (int a = 0; a <= 3; ++a) {
            std::string key("a");
            key.push_back(char('0' + a));
            row.set(key,
                    runSweep(name, grid, mirage_pass::Flow::MirageDepth,
                             knobs, a)
                        .depth);
        }
        row.set("mix",
                runSweep(name, grid, mirage_pass::Flow::MirageDepth, knobs)
                    .depth);
        rows.push(std::move(row));
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("circuit", "circuit"));
    cols.push(column("qiskit", "qiskit", 1));
    for (int a = 0; a <= 3; ++a) {
        std::string key("a");
        key.push_back(char('0' + a));
        cols.push(column(key.c_str(), key.c_str(), 1));
    }
    cols.push(column("mix", "mix", 1));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    out.set("notes",
            "Average depth in iSWAP units on a 6x6 grid. No single "
            "aggression level wins everywhere, motivating the mixed "
            "5/45/45/5 distribution.");
    return out;
}

const std::vector<const char *> &
suiteCircuits()
{
    static const std::vector<const char *> names = {
        "qec9xz_n17",       "seca_n11",       "knn_n25",
        "swap_test_n25",    "qram_n20",       "qft_n18",
        "qftentangled_n16", "ae_n16",         "bigadder_n18",
        "qpeexact_n16",     "multiplier_n15", "portfolioqaoa_n16",
        "sat_n11",
    };
    return names;
}

/** Fig. 11: SWAP-count vs estimated-depth post-selection. */
json::Value
runFig11(const SweepKnobs &knobs, json::Value &)
{
    auto grid = topology::CouplingMap::grid(6, 6);

    json::Value rows = json::Value::array();
    double sum_swap_red = 0, sum_depth_red = 0, sum_gate_ratio = 0;
    int count = 0;
    for (const char *name : suiteCircuits()) {
        auto qiskit =
            runSweep(name, grid, mirage_pass::Flow::SabreBaseline, knobs);
        auto mswaps =
            runSweep(name, grid, mirage_pass::Flow::MirageSwaps, knobs);
        auto mdepth =
            runSweep(name, grid, mirage_pass::Flow::MirageDepth, knobs);
        double ds = pct(qiskit.depth, mswaps.depth);
        double dd = pct(qiskit.depth, mdepth.depth);
        json::Value row = json::Value::object();
        row.set("circuit", name);
        row.set("qiskit", qiskit.depth);
        row.set("mirageSwaps", mswaps.depth);
        row.set("mirageDepth", mdepth.depth);
        row.set("swapSelRed", ds);
        row.set("depthSelRed", dd);
        rows.push(std::move(row));
        sum_swap_red += ds;
        sum_depth_red += dd;
        sum_gate_ratio += pct(qiskit.totalPulses, mdepth.totalPulses);
        ++count;
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("circuit", "circuit"));
    cols.push(column("qiskit", "qiskit", 1));
    cols.push(column("mirageSwaps", "mirage-swaps", 1));
    cols.push(column("mirageDepth", "mirage-depth", 1));
    cols.push(column("swapSelRed", "dS(%)", 1));
    cols.push(column("depthSelRed", "dD(%)", 1));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("avgDepthReductionSwapSel", sum_swap_red / count);
    summary.set("avgDepthReductionDepthSel", sum_depth_red / count);
    summary.set("avgExtraFromDepthSel",
                (sum_depth_red - sum_swap_red) / count);
    summary.set("avgTotalPulseChange", sum_gate_ratio / count);
    out.set("summary", std::move(summary));
    out.set("notes",
            "Average depth in iSWAP units on a 6x6 grid; dS/dD are the "
            "reductions of MIRAGE post-selected on SWAPs/depth vs the "
            "baseline.");
    return out;
}

/** Fig. 12: end-to-end comparison on heavy-hex 57Q and the 6x6 grid. */
json::Value
runFig12(const SweepKnobs &knobs, json::Value &)
{

    json::Value rows = json::Value::array();
    json::Value summary = json::Value::object();
    for (const auto &topo : {topology::CouplingMap::heavyHex57(),
                             topology::CouplingMap::grid(6, 6)}) {
        double sum_d = 0, sum_g = 0, sum_s = 0;
        double wsum_d = 0, wsum_g = 0, wsum_s = 0;
        double wtot_d = 0, wtot_g = 0, wtot_s = 0;
        int count = 0;
        for (const char *name : suiteCircuits()) {
            auto q = runSweep(name, topo,
                              mirage_pass::Flow::SabreBaseline, knobs);
            auto m = runSweep(name, topo, mirage_pass::Flow::MirageDepth,
                              knobs);
            double dp = pct(q.depth, m.depth);
            double gp = pct(q.totalPulses, m.totalPulses);
            double sp = pct(q.swaps, m.swaps);
            json::Value row = json::Value::object();
            row.set("topology", topo.name());
            row.set("circuit", name);
            row.set("qiskitDepth", q.depth);
            row.set("mirageDepth", m.depth);
            row.set("depthRed", dp);
            row.set("qiskitPulses", q.totalPulses);
            row.set("miragePulses", m.totalPulses);
            row.set("pulseRed", gp);
            row.set("qiskitSwaps", q.swaps);
            row.set("mirageSwaps", m.swaps);
            row.set("mirrorRate", 100.0 * m.mirrorRate);
            rows.push(std::move(row));
            sum_d += dp;
            sum_g += gp;
            sum_s += sp;
            wsum_d += dp * q.depth;
            wtot_d += q.depth;
            wsum_g += gp * q.totalPulses;
            wtot_g += q.totalPulses;
            wsum_s += sp * q.swaps;
            wtot_s += q.swaps;
            ++count;
        }
        json::Value t = json::Value::object();
        t.set("avgDepthReduction", sum_d / count);
        t.set("avgPulseReduction", sum_g / count);
        t.set("avgSwapReduction", sum_s / count);
        t.set("weightedDepthReduction", wsum_d / wtot_d);
        t.set("weightedPulseReduction", wsum_g / wtot_g);
        t.set("weightedSwapReduction", wsum_s / wtot_s);
        summary.set(topo.name(), std::move(t));
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("topology", "topology"));
    cols.push(column("circuit", "circuit"));
    cols.push(column("qiskitDepth", "Q.depth", 1));
    cols.push(column("mirageDepth", "M.depth", 1));
    cols.push(column("depthRed", "d%", 1));
    cols.push(column("qiskitPulses", "Q.pulse", 0));
    cols.push(column("miragePulses", "M.pulse", 0));
    cols.push(column("pulseRed", "g%", 1));
    cols.push(column("qiskitSwaps", "Q.swap", 1));
    cols.push(column("mirageSwaps", "M.swap", 1));
    cols.push(column("mirrorRate", "mirror%", 1));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    out.set("summary", std::move(summary));
    return out;
}

/**
 * Fig. 13: QFT scaling and the caching ablation. The suite's transpile
 * and lowering wall times are the `bench` and `bench-lowering`
 * experiments.
 */
json::Value
runFig13(const SweepKnobs &, json::Value &)
{
    const auto grid = topology::CouplingMap::grid(8, 8);

    json::Value rows = json::Value::array();
    auto addRow = [&rows](const char *stage, double ms,
                          const std::string &detail, int qubits = 0) {
        json::Value row = json::Value::object();
        row.set("stage", stage);
        if (qubits)
            row.set("qubits", qubits);
        row.set("ms", ms);
        row.set("detail", detail);
        rows.push(std::move(row));
    };
    // Per-size scaling and the caching ablation (Section VI-C): QFT(n)
    // consolidated and routed in one pass from a fixed random layout,
    // best of kReps wall times. "uncached" disables the consolidation
    // coordinate cache.
    constexpr int kReps = 5;
    const struct
    {
        const char *stage;
        router::Aggression aggression;
        bool coordinateCache;
    } configs[] = {
        {"qft-sabre", router::Aggression::None, true},
        {"qft-mirage-cached", router::Aggression::Equal, true},
        {"qft-mirage-uncached", router::Aggression::Equal, false},
    };
    const monodromy::CostModel cost = monodromy::makeRootIswapCostModel(2);
    std::vector<double> config_ms(std::size(configs), 0.0);
    bool ablation_identical = true;
    for (int n : {16, 24, 32, 48, 64}) {
        const auto qft = bench::qft(n, true);
        Rng rng(7);
        const auto init = layout::Layout::random(grid.numQubits(), rng);
        std::vector<circuit::Circuit> routed;
        for (size_t c = 0; c < std::size(configs); ++c) {
            circuit::ConsolidateOptions copts;
            copts.useCoordinateCache = configs[c].coordinateCache;
            router::PassOptions popts;
            popts.aggression = configs[c].aggression;
            popts.costModel = &cost;
            popts.seed = 42;
            double best_ms = 0;
            router::RouteResult res;
            for (int r = 0; r < kReps; ++r) {
                const auto t0 = std::chrono::steady_clock::now();
                res = router::routePass(circuit::consolidateBlocks(qft, copts),
                                        grid, init, popts);
                const double ms = millisSince(t0);
                best_ms = r ? std::min(best_ms, ms) : ms;
            }
            config_ms[c] += best_ms;
            addRow(configs[c].stage, best_ms,
                   std::to_string(res.swapsAdded) + " swaps", n);
            routed.push_back(std::move(res.routed));
        }
        ablation_identical = ablation_identical &&
                             circuit::Circuit::bitIdentical(routed[1],
                                                            routed[2]);
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("stage", "stage"));
    cols.push(column("qubits", "qubits"));
    cols.push(column("ms", "wall(ms)", 1));
    cols.push(column("detail", "detail"));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("qftMirageOverSabre",
                config_ms[0] > 0 ? config_ms[1] / config_ms[0] : 0.0);
    summary.set("qftUncachedSlowdown",
                config_ms[1] > 0 ? config_ms[2] / config_ms[1] : 0.0);
    summary.set("cacheAblationBitIdentical", ablation_identical);
    out.set("summary", std::move(summary));
    out.set("notes",
            "Single routing passes of QFT(16..64) on an 8x8 grid: "
            "SABRE, MIRAGE with and without the consolidation "
            "coordinate cache. Wall times vary by machine; "
            "cacheAblationBitIdentical (the cache leaves every QFT "
            "route unchanged) must always be true. The suite's "
            "transpile and lowering times are the bench and "
            "bench-lowering experiments.");
    return out;
}

/** Tables I/II: Haar scores, exact or Monte-Carlo approximate. */
json::Value
runHaarTable(const SweepKnobs &knobs, bool approximate)
{
    json::Value rows = json::Value::array();
    for (int n : {2, 3, 4}) {
        const monodromy::CoverageSet &cs =
            monodromy::coverageForRootIswap(n);
        monodromy::HaarScore plain, mirror;
        if (approximate) {
            monodromy::MonteCarloOptions opts;
            opts.iterations = knobs.mcIterations;
            opts.approximate = true;
            opts.mirrors = false;
            plain = monodromy::haarScoreMonteCarlo(cs, opts);
            opts.mirrors = true;
            opts.seed ^= 0x77;
            mirror = monodromy::haarScoreMonteCarlo(cs, opts);
        } else {
            plain = monodromy::haarScoreExact(cs, false);
            mirror = monodromy::haarScoreExact(cs, true);
        }
        json::Value row = json::Value::object();
        row.set("basis", std::to_string(n) + "-rt iSWAP");
        row.set("haar", plain.score);
        row.set("fidelity", plain.fidelity);
        row.set("mirrorHaar", mirror.score);
        row.set("mirrorFidelity", mirror.fidelity);
        rows.push(std::move(row));
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("basis", "basis"));
    cols.push(column("haar", "haar", 4));
    cols.push(column("fidelity", "fidelity", 4));
    cols.push(column("mirrorHaar", "mirror haar", 4));
    cols.push(column("mirrorFidelity", "mirror fid", 4));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    out.set("notes", approximate
                         ? "Algorithm 1 Monte Carlo with approximate "
                           "decomposition accepted when it improves "
                           "total fidelity."
                         : "Exact decomposition scores by polytope "
                           "integration.");
    return out;
}

/** The first --limit Table III circuits (all of them when unset). */
std::vector<circuit::Circuit>
limitedSuite(const SweepKnobs &knobs)
{
    const auto &suite = bench::paperBenchmarks();
    std::vector<circuit::Circuit> circuits;
    for (size_t i = 0; i < limitedCount(knobs, suite.size()); ++i)
        circuits.push_back(suite[i].make());
    return circuits;
}

/**
 * Table III: suite inventory + measured sqrt(iSWAP) pulse counts.
 * Lowers through `shared` when given (the catalog build), else through
 * a library from --catalog/--cache.
 */
json::Value
runTable3(const SweepKnobs &knobs,
          decomp::EquivalenceLibrary *shared = nullptr)
{
    const auto &suite = bench::paperBenchmarks();
    const auto circuits = limitedSuite(knobs);
    decomp::CatalogLoad catalog;
    auto own = shared ? nullptr
                      : decomp::loadLibrary(2, knobs.catalogPath,
                                            knobs.cacheDir, &catalog);
    decomp::EquivalenceLibrary &lib = shared ? *shared : *own;
    auto opts = sweepOptions(mirage_pass::Flow::MirageDepth, 0xB3, knobs);
    opts.lowerToBasis = true;
    opts.equivalenceLibrary = &lib;

    auto t0 = std::chrono::steady_clock::now();
    auto results =
        transpileAll(circuits, topology::CouplingMap::grid(8, 8), opts);
    double elapsed_ms = millisSince(t0);
    decomp::saveLibraryCache(lib, knobs.cacheDir);

    json::Value rows = json::Value::array();
    bool all_equal = true;
    double worst_inf = 0;
    int new_fits = 0;
    uint64_t fit_evals = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &b = suite[i];
        const auto &r = results[i];
        json::Value row = json::Value::object();
        row.set("name", b.name);
        row.set("class", b.klass);
        row.set("qubits", b.qubits);
        row.set("paperTwoQ", b.paperTwoQ);
        row.set("rawTwoQ", circuits[i].twoQubitGateCount());
        row.set("cxEquiv", bench::cxEquivalentCount(circuits[i]));
        row.set("estPulses", r.metrics.totalPulses);
        row.set("measPulses", r.loweredMetrics.totalPulses);
        row.set("measDepthPulses", r.loweredMetrics.depthPulses);
        row.set("fits", r.translateStats.newFits);
        row.set("worstInfidelity", r.translateStats.worstInfidelity);
        rows.push(std::move(row));
        all_equal = all_equal &&
                    r.metrics.totalPulses == r.loweredMetrics.totalPulses;
        worst_inf =
            std::max(worst_inf, r.translateStats.worstInfidelity);
        new_fits += r.translateStats.newFits;
        fit_evals += r.translateStats.fitEvaluations;
    }

    json::Value out = json::Value::object();
    json::Value cols = json::Value::array();
    cols.push(column("name", "name"));
    cols.push(column("class", "class"));
    cols.push(column("qubits", "qubits"));
    cols.push(column("paperTwoQ", "paper 2Q"));
    cols.push(column("rawTwoQ", "raw 2Q"));
    cols.push(column("cxEquiv", "cx-equiv"));
    cols.push(column("estPulses", "est.pulse", 0));
    cols.push(column("measPulses", "meas.pulse", 0));
    cols.push(column("measDepthPulses", "meas.depth", 0));
    cols.push(column("fits", "fits"));
    cols.push(column("worstInfidelity", "worst-inf", -1, true));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("measuredEqualsEstimated", all_equal);
    summary.set("worstInfidelity", worst_inf);
    summary.set("elapsedMs", elapsed_ms);
    summary.set("fits", uint64_t(lib.fitCount()));
    summary.set("newFits", new_fits);
    summary.set("fitEvaluations", fit_evals);
    summary.set("cachedDecompositions", uint64_t(lib.cacheSize()));
    setCatalogSummary(summary, catalog);
    out.set("summary", std::move(summary));
    out.set("notes",
            "Routed on an 8x8 grid with MirageDepth flow, then lowered "
            "to sqrt(iSWAP) pulses over one shared equivalence library. "
            "est.pulse is the polytope estimate, meas.pulse the count "
            "measured on the emitted circuit; the paper counts "
            "QASMBench entries natively (raw 2Q) and MQTBench entries "
            "after CX decomposition (cx-equiv).");
    return out;
}

/**
 * bench-lowering: the lowering cold-start perf trajectory. Routes the
 * Table III suite once, then translates every routed circuit twice --
 * cold (fresh preseeded library, every block numerically fitted) and
 * warm (library restored from the committed FIT_CATALOG.bin; falls
 * back to a second pass over the cold library when no catalog
 * resolves). Wall times are recorded but never gated; the
 * deterministic counters (fits, fitEvaluations, warmNewFits,
 * warmFitEvaluations -- pure functions of the circuits and the
 * FMA-free fit pipeline) are gated by `mirage sweep --experiment
 * bench-lowering --check BENCH_lowering.json` in CI, so the repo can
 * never silently go cold again.
 */
json::Value
runBenchLowering(const SweepKnobs &knobs, json::Value &parameters)
{
    const auto &suite = bench::paperBenchmarks();
    // Route once (table3's exact config); lowering is then isolated
    // from routing cost and measured per circuit, sequentially, so the
    // counters cannot be split across threads.
    auto routed = transpileAll(
        limitedSuite(knobs), topology::CouplingMap::grid(8, 8),
        sweepOptions(mirage_pass::Flow::MirageDepth, 0xB3, knobs));

    decomp::EquivalenceLibrary cold(2);
    std::vector<decomp::TranslateStats> cold_stats(routed.size());
    std::vector<double> cold_ms(routed.size());
    for (size_t i = 0; i < routed.size(); ++i) {
        auto t0 = std::chrono::steady_clock::now();
        cold.translate(routed[i].routed, &cold_stats[i]);
        cold_ms[i] = millisSince(t0);
    }

    decomp::CatalogLoad catalog;
    auto warm_lib = decomp::loadLibrary(2, knobs.catalogPath, "", &catalog,
                                        /*preseed_fallback=*/false);
    decomp::EquivalenceLibrary &warm = warm_lib ? *warm_lib : cold;

    std::vector<decomp::TranslateStats> warm_stats(routed.size());
    std::vector<double> warm_ms(routed.size());
    for (size_t i = 0; i < routed.size(); ++i) {
        auto t0 = std::chrono::steady_clock::now();
        warm.translate(routed[i].routed, &warm_stats[i]);
        warm_ms[i] = millisSince(t0);
    }

    json::Value rows = json::Value::array();
    double total_cold = 0, total_warm = 0;
    int warm_new_fits = 0;
    for (size_t i = 0; i < routed.size(); ++i) {
        json::Value row = json::Value::object();
        row.set("name", suite[i].name);
        row.set("qubits", suite[i].qubits);
        row.set("blocks", cold_stats[i].blocksTranslated);
        row.set("fits", cold_stats[i].newFits);
        row.set("fitEvaluations", cold_stats[i].fitEvaluations);
        row.set("coldMs", cold_ms[i]);
        row.set("warmNewFits", warm_stats[i].newFits);
        row.set("warmFitEvaluations", warm_stats[i].fitEvaluations);
        row.set("warmMs", warm_ms[i]);
        rows.push(std::move(row));
        total_cold += cold_ms[i];
        total_warm += warm_ms[i];
        warm_new_fits += warm_stats[i].newFits;
    }

    json::Value out = json::Value::object();
    parameters.set("circuits", uint64_t(routed.size()));
    json::Value cols = json::Value::array();
    cols.push(column("name", "name"));
    cols.push(column("qubits", "qubits"));
    cols.push(column("blocks", "blocks"));
    cols.push(column("fits", "fits"));
    cols.push(column("fitEvaluations", "fit-evals"));
    cols.push(column("coldMs", "cold(ms)", 1));
    cols.push(column("warmNewFits", "warm-fits"));
    cols.push(column("warmFitEvaluations", "warm-evals"));
    cols.push(column("warmMs", "warm(ms)", 1));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("loweringColdMs", total_cold);
    summary.set("loweringWarmMs", total_warm);
    summary.set("warmSpeedup", total_warm > 0 ? total_cold / total_warm : 0.0);
    summary.set("warmNewFits", warm_new_fits);
    summary.set("totalFits", uint64_t(cold.fitCount()));
    summary.set("totalFitEvaluations", uint64_t(cold.fitEvaluations()));
    setCatalogSummary(summary, catalog);
    out.set("summary", std::move(summary));
    out.set("notes",
            "Table III suite routed once on an 8x8 grid, then lowered "
            "cold (fresh library, every block fitted) vs warm (library "
            "restored from the committed FIT_CATALOG.bin). Wall times "
            "are machine-dependent and never gated; fits/fitEvaluations/"
            "warmNewFits are deterministic and CI-gated. warmNewFits "
            "must be 0: a nonzero value means the committed catalog no "
            "longer covers the suite.");
    return out;
}

/**
 * Routing perf trajectory (`bench`): the Table III suite routed
 * with the MIRAGE flow, reporting per-circuit routing-phase wall time
 * (threads=1 and all cores) next to the deterministic hot-path work
 * counters. The counters are pure functions of (circuit, options,
 * seed) -- machine-, build-, and thread-invariant -- so the committed
 * BENCH_fig13.json baseline gives CI a noise-free regression gate
 * while the wall times track the actual speedups per machine.
 */
json::Value
runBenchRouting(const SweepKnobs &knobs, json::Value &parameters)
{
    const auto grid = topology::CouplingMap::grid(8, 8);
    const auto &suite = bench::paperBenchmarks();
    const auto circuits = limitedSuite(knobs);

    json::Value rows = json::Value::array();
    bool identical = true;
    double serial_ms = 0, parallel_ms = 0;
    uint64_t total_evals = 0, total_stalls = 0;
    for (size_t i = 0; i < circuits.size(); ++i) {
        const circuit::Circuit &circ = circuits[i];
        auto opts =
            sweepOptions(mirage_pass::Flow::MirageDepth, 0xF13, knobs);
        opts.threads = 1;
        auto serial = mirage_pass::transpile(circ, grid, opts);
        opts.threads = 0; // all hardware threads
        auto parallel = mirage_pass::transpile(circ, grid, opts);
        identical = identical &&
                    circuit::Circuit::bitIdentical(serial.routed,
                                                   parallel.routed) &&
                    serial.routingCounters == parallel.routingCounters;

        const auto &c = serial.routingCounters;
        json::Value row = json::Value::object();
        row.set("name", suite[i].name);
        row.set("qubits", suite[i].qubits);
        row.set("serialMs", serial.routingMs);
        row.set("parallelMs", parallel.routingMs);
        row.set("swaps", serial.swapsAdded);
        row.set("stallSteps", c.stallSteps);
        row.set("swapCandidates", c.swapCandidates);
        row.set("heuristicEvals", c.heuristicEvals);
        row.set("evalsPerStall", c.evalsPerStall());
        row.set("mirrorOutlooks", c.mirrorOutlooks);
        row.set("extSetBuilds", c.extSetBuilds);
        row.set("extSetReuses", c.extSetReuses);
        rows.push(std::move(row));

        serial_ms += serial.routingMs;
        parallel_ms += parallel.routingMs;
        total_evals += c.heuristicEvals;
        total_stalls += c.stallSteps;
    }

    json::Value out = json::Value::object();
    parameters.set("circuits", uint64_t(circuits.size()));
    json::Value cols = json::Value::array();
    cols.push(column("name", "name"));
    cols.push(column("qubits", "qubits"));
    cols.push(column("serialMs", "route(ms,1T)", 1));
    cols.push(column("parallelMs", "route(ms,NT)", 1));
    cols.push(column("swaps", "swaps"));
    cols.push(column("stallSteps", "stalls"));
    cols.push(column("heuristicEvals", "h-evals"));
    cols.push(column("evalsPerStall", "evals/stall", 2));
    cols.push(column("extSetBuilds", "ext-builds"));
    cols.push(column("extSetReuses", "ext-reuses"));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("routingSerialMs", serial_ms);
    summary.set("routingParallelMs", parallel_ms);
    summary.set("parallelSpeedup",
                parallel_ms > 0 ? serial_ms / parallel_ms : 0.0);
    summary.set("heuristicEvals", total_evals);
    summary.set("evalsPerStall",
                total_stalls ? double(total_evals) / double(total_stalls)
                             : 0.0);
    summary.set("outputsBitIdentical", identical);
    summary.set("hardwareThreads", exec::defaultThreads());
    out.set("summary", std::move(summary));
    out.set("notes",
            "Routing-phase wall time of the Table III suite on an 8x8 "
            "grid (MirageDepth flow), threads=1 vs all cores, with the "
            "deterministic hot-path counters. Wall times vary by "
            "machine; the counters and routed circuits must not (the "
            "`mirage sweep --check` CI gate compares counters only).");
    return out;
}

/**
 * Large-device routing gate (fig12 at Osprey/Condor scale): route a
 * slice of the Table III suite on the 433/1121-qubit heavy-hex and
 * 33x33-grid topologies. The artifact records the same deterministic
 * hot-path counters as the `bench` experiment, so `mirage sweep
 * --experiment fig12-large --check` gates regressions the same way.
 */
json::Value
runFig12Large(const SweepKnobs &knobs, json::Value &parameters)
{
    const std::vector<topology::CouplingMap> devices = {
        topology::CouplingMap::heavyHex433(),
        topology::CouplingMap::heavyHex1121(),
        topology::CouplingMap::grid(33, 33),
    };
    // Table III circuits spanning a ~6x range of 2Q gate count, so
    // ms-per-gate across rows tracks route-time scaling in gate count.
    const std::vector<std::string> circuits = {
        "wstate_n27", "knn_n25", "multiplier_n15", "qft_n18"};
    const size_t limit = limitedCount(knobs, circuits.size());

    json::Value rows = json::Value::array();
    json::Value topo_summaries = json::Value::array();
    bool all_near_linear = true;
    for (const auto &device : devices) {
        const size_t n = size_t(device.numQubits());
        // Smallest/largest circuit by 2Q count on this device, for the
        // route-time-vs-gate-count growth comparison.
        int gates_min = 0, gates_max = 0;
        double ms_at_min = 0, ms_at_max = 0;
        for (size_t i = 0; i < limit; ++i) {
            const auto &info = bench::benchmarkByName(circuits[i]);
            auto circ = info.make();
            auto opts =
                sweepOptions(mirage_pass::Flow::MirageDepth, 0xF12, knobs);
            auto res = mirage_pass::transpile(circ, device, opts);

            const auto &c = res.routingCounters;
            const double ms_per_gate =
                info.paperTwoQ > 0 ? res.routingMs / info.paperTwoQ : 0.0;
            json::Value row = json::Value::object();
            row.set("name", info.name + "@" + device.name());
            row.set("topology", device.name());
            row.set("deviceQubits", uint64_t(n));
            row.set("circuitQubits", info.qubits);
            row.set("gates2q", info.paperTwoQ);
            row.set("routeMs", res.routingMs);
            row.set("msPerGate2q", ms_per_gate);
            row.set("swaps", res.swapsAdded);
            row.set("stallSteps", c.stallSteps);
            row.set("heuristicEvals", c.heuristicEvals);
            row.set("extSetBuilds", c.extSetBuilds);
            row.set("extSetReuses", c.extSetReuses);
            rows.push(std::move(row));

            if (gates_min == 0 || info.paperTwoQ < gates_min) {
                gates_min = info.paperTwoQ;
                ms_at_min = res.routingMs;
            }
            if (info.paperTwoQ > gates_max) {
                gates_max = info.paperTwoQ;
                ms_at_max = res.routingMs;
            }
        }

        // Near-linear route time in gate count: going from the smallest
        // to the largest circuit, wall time must not grow more than 1.5x
        // the gate-count growth (in practice it grows slower -- per-pass
        // fixed costs amortize). Informational headroom, not a hard CI
        // gate: wall times vary by machine.
        const double gate_growth =
            gates_min > 0 ? double(gates_max) / gates_min : 0.0;
        const double time_growth =
            ms_at_min > 0 ? ms_at_max / ms_at_min : 0.0;
        const bool near_linear =
            gate_growth > 0 && time_growth <= 1.5 * gate_growth;
        all_near_linear = all_near_linear && near_linear;

        json::Value ts = json::Value::object();
        ts.set("topology", device.name());
        ts.set("qubits", uint64_t(n));
        ts.set("edges", uint64_t(device.edges().size()));
        ts.set("routeTimeGrowth", time_growth);
        ts.set("gateCountGrowth", gate_growth);
        ts.set("routeTimeNearLinearInGates", near_linear);
        topo_summaries.push(std::move(ts));
    }

    json::Value out = json::Value::object();
    parameters.set("circuits", uint64_t(limit));
    json::Value cols = json::Value::array();
    cols.push(column("name", "name"));
    cols.push(column("deviceQubits", "device-q"));
    cols.push(column("gates2q", "2q-gates"));
    cols.push(column("routeMs", "route(ms)", 1));
    cols.push(column("msPerGate2q", "ms/2q-gate", 3));
    cols.push(column("swaps", "swaps"));
    cols.push(column("stallSteps", "stalls"));
    cols.push(column("heuristicEvals", "h-evals"));
    cols.push(column("extSetBuilds", "ext-builds"));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("topologies", std::move(topo_summaries));
    summary.set("routeTimeNearLinearInGates", all_near_linear);
    out.set("summary", std::move(summary));
    out.set("notes",
            "Table III circuits routed on 433/1121-qubit heavy-hex and a "
            "33x33 grid; msPerGate2q tracks route-time scaling in gate "
            "count. Counters are deterministic and gated by `mirage sweep "
            "--experiment fig12-large --check`; wall times vary by machine "
            "and are never compared.");
    return out;
}

// --- mirror-circuit verification -------------------------------------------

/**
 * Success-probability tolerance for a lowered circuit, derived the same
 * way as the test oracle's loweringTolerance (tests/support/
 * equivalence.hh): per-amplitude error is bounded by 1e-7 + 8 *
 * sum(sqrt(block infidelity)), and a probability |a|^2 can dip below 1
 * by at most twice the amplitude error. Capped at 0.5 so the threshold
 * always separates a working pipeline (~1) from a corrupted one
 * (~2^-width).
 */
double
loweredSuccessTolerance(double root_infidelity_sum)
{
    return std::min(0.5, 2.0 * (1e-7 + 8.0 * root_infidelity_sum));
}

/**
 * Self-verifying mirror-family sweep (mirror-RB or mirror-QV) on the
 * heavy-hex 57Q device -- widths the 6-qubit unitary oracle cannot
 * reach. Each instance is routed with the baseline and MIRAGE flows,
 * lowered to RootISWAP pulses, and the ideal bitstring's probability is
 * measured on BOTH the routed and the lowered circuit by sparse
 * simulation; `verified` requires routed ~exact and lowered within the
 * fit-error budget. Lowers through `shared` when given (the catalog
 * build), else through a library from --catalog/--cache.
 */
json::Value
runMirrorFamily(const SweepKnobs &knobs, json::Value &parameters, bool qv,
                decomp::EquivalenceLibrary *shared = nullptr)
{
    const auto topo = topology::CouplingMap::heavyHex57();
    std::vector<int> widths =
        qv ? std::vector<int>{8, 10, 12} : std::vector<int>{8, 10, 14};
    widths.resize(limitedCount(knobs, widths.size()));

    decomp::CatalogLoad catalog;
    auto own = shared ? nullptr
                      : decomp::loadLibrary(2, knobs.catalogPath,
                                            knobs.cacheDir, &catalog);
    decomp::EquivalenceLibrary &lib = shared ? *shared : *own;

    json::Value rows = json::Value::array();
    bool all_verified = true;
    double min_lowered = 1.0;
    for (int w : widths) {
        for (int i = 0; i < knobs.seeds; ++i) {
            const uint64_t gen_seed = 0xA11CE + 977 * uint64_t(i);
            auto mc = qv ? bench::mirrorQv(w, 4, gen_seed)
                         : bench::mirrorRb(w, 3, gen_seed);

            const uint64_t route_seed = 0x9000 + 131 * uint64_t(i);
            auto base = mirage_pass::transpile(
                mc.circuit, topo,
                sweepOptions(mirage_pass::Flow::SabreBaseline, route_seed,
                             knobs));
            auto opts = sweepOptions(mirage_pass::Flow::MirageDepth,
                                     route_seed, knobs);
            opts.lowerToBasis = true;
            opts.equivalenceLibrary = &lib;
            auto res = mirage_pass::transpile(mc.circuit, topo, opts);

            const auto &l2p = res.final.logicalToPhysical();
            double routed_p = bench::mirrorSuccessProbability(
                res.routed, l2p, mc.bitstring);
            double lowered_p = bench::mirrorSuccessProbability(
                res.lowered, l2p, mc.bitstring);
            double tol = loweredSuccessTolerance(
                res.translateStats.rootInfidelitySum);
            bool verified =
                routed_p >= 1.0 - 1e-9 && lowered_p >= 1.0 - tol;
            all_verified = all_verified && verified;
            min_lowered = std::min(min_lowered, lowered_p);

            json::Value row = json::Value::object();
            row.set("circuit", mc.circuit.name());
            row.set("qubits", w);
            row.set("instance", i);
            row.set("baselineDepth", base.metrics.depth);
            row.set("mirageDepth", res.metrics.depth);
            row.set("depthRed", pct(base.metrics.depth, res.metrics.depth));
            row.set("swaps", res.swapsAdded);
            row.set("mirrors", res.mirrorsAccepted);
            row.set("routedSuccess", routed_p);
            row.set("loweredSuccess", lowered_p);
            row.set("successTolerance", tol);
            row.set("verified", verified);
            row.set("stallSteps", res.routingCounters.stallSteps);
            row.set("heuristicEvals", res.routingCounters.heuristicEvals);
            rows.push(std::move(row));
        }
    }
    decomp::saveLibraryCache(lib, knobs.cacheDir);

    json::Value out = json::Value::object();
    parameters.set("topology", topo.name());
    parameters.set("widths", uint64_t(widths.size()));
    json::Value cols = json::Value::array();
    cols.push(column("circuit", "circuit"));
    cols.push(column("qubits", "qubits"));
    cols.push(column("instance", "inst"));
    cols.push(column("baselineDepth", "base depth", 1));
    cols.push(column("mirageDepth", "mirage depth", 1));
    cols.push(column("depthRed", "d%", 1));
    cols.push(column("swaps", "swaps"));
    cols.push(column("mirrors", "mirrors"));
    cols.push(column("routedSuccess", "P(routed)", 6));
    cols.push(column("loweredSuccess", "P(lowered)", 6));
    cols.push(column("successTolerance", "tol", -1, true));
    cols.push(column("verified", "ok"));
    cols.push(column("stallSteps", "stalls"));
    cols.push(column("heuristicEvals", "h-evals"));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("allVerified", all_verified);
    summary.set("minLoweredSuccess", min_lowered);
    setCatalogSummary(summary, catalog);
    out.set("summary", std::move(summary));
    out.set("notes",
            "Every row is one self-verifying mirror circuit routed on "
            "heavy-hex 57Q and lowered to sqrt(iSWAP) pulses; the ideal "
            "bitstring's probability is measured by sparse simulation of "
            "the emitted circuit on all 57 wires. allVerified must be "
            "true: the bitstring check certifies the whole pipeline at "
            "widths the exhaustive unitary oracle (<= 6 qubits) cannot "
            "reach.");
    return out;
}

/**
 * Scenario matrix: {mirror families + Table III suite} x {grid6x6,
 * heavyhex57, line30} x {aggression 0-3}. Mirror workloads lead the
 * suite so `--limit 2` runs exactly the self-verifying rows (the CI
 * smoke shape); their routed circuits are bitstring-checked per cell.
 */
json::Value
runMatrix(const SweepKnobs &knobs, json::Value &parameters)
{
    struct Workload
    {
        std::string name;
        int qubits;
        circuit::Circuit circ;
        std::vector<int> bits; ///< empty = not a mirror workload
    };
    std::vector<Workload> suite;
    auto rb = bench::mirrorRb(10, 3, 0xB0B);
    suite.push_back({rb.circuit.name(), 10, rb.circuit, rb.bitstring});
    auto qv = bench::mirrorQv(10, 4, 0xB0B);
    suite.push_back({qv.circuit.name(), 10, qv.circuit, qv.bitstring});
    for (const auto &b : bench::paperBenchmarks())
        suite.push_back({b.name, b.qubits, b.make(), {}});
    suite.resize(limitedCount(knobs, suite.size()));

    const std::vector<topology::CouplingMap> topologies = {
        topology::CouplingMap::grid(6, 6),
        topology::CouplingMap::heavyHex57(),
        topology::CouplingMap::line(30),
    };

    json::Value rows = json::Value::array();
    int cells = 0, mirror_cells = 0, verified_cells = 0;
    for (const auto &w : suite) {
        for (const auto &topo : topologies) {
            auto base = mirage_pass::transpile(
                w.circ, topo,
                sweepOptions(mirage_pass::Flow::SabreBaseline, 0x9000,
                             knobs));
            for (int a = 0; a <= 3; ++a) {
                auto opts = sweepOptions(mirage_pass::Flow::MirageDepth,
                                         0x9000, knobs);
                opts.fixedAggression = a;
                auto res = mirage_pass::transpile(w.circ, topo, opts);

                json::Value row = json::Value::object();
                row.set("circuit", w.name);
                row.set("qubits", w.qubits);
                row.set("topology", topo.name());
                row.set("aggression", a);
                row.set("baselineDepth", base.metrics.depth);
                row.set("depth", res.metrics.depth);
                row.set("depthRed",
                        pct(base.metrics.depth, res.metrics.depth));
                row.set("swaps", res.swapsAdded);
                row.set("mirrors", res.mirrorsAccepted);
                row.set("heuristicEvals",
                        res.routingCounters.heuristicEvals);
                ++cells;
                if (!w.bits.empty()) {
                    double p = bench::mirrorSuccessProbability(
                        res.routed, res.final.logicalToPhysical(),
                        w.bits);
                    bool ok = p >= 1.0 - 1e-9;
                    row.set("successProb", p);
                    row.set("verified", ok);
                    ++mirror_cells;
                    if (ok)
                        ++verified_cells;
                }
                rows.push(std::move(row));
            }
        }
    }

    json::Value out = json::Value::object();
    parameters.set("workloads", uint64_t(suite.size()));
    json::Value cols = json::Value::array();
    cols.push(column("circuit", "circuit"));
    cols.push(column("qubits", "qubits"));
    cols.push(column("topology", "topology"));
    cols.push(column("aggression", "aggr"));
    cols.push(column("baselineDepth", "base depth", 1));
    cols.push(column("depth", "depth", 1));
    cols.push(column("depthRed", "d%", 1));
    cols.push(column("swaps", "swaps"));
    cols.push(column("mirrors", "mirrors"));
    cols.push(column("heuristicEvals", "h-evals"));
    cols.push(column("successProb", "P(bitstring)", 6));
    cols.push(column("verified", "ok"));
    out.set("columns", std::move(cols));
    out.set("rows", std::move(rows));
    json::Value summary = json::Value::object();
    summary.set("cells", cells);
    summary.set("mirrorCells", mirror_cells);
    summary.set("verifiedCells", verified_cells);
    summary.set("allMirrorCellsVerified",
                mirror_cells == verified_cells);
    out.set("summary", std::move(summary));
    out.set("notes",
            "Table III grown into a scenario matrix: every workload x "
            "{grid6x6, heavyhex57, line30} x fixed aggression 0-3, one "
            "row per cell. The two mirror workloads lead the suite "
            "(--limit 2 runs only them) and are bitstring-verified "
            "against the routed circuit in every cell; "
            "allMirrorCellsVerified must be true.");
    return out;
}

} // namespace

const std::vector<KnobSpec> &
knobSpecs()
{
    using enum Knob;
    using K = SweepKnobs;
    static const std::vector<KnobSpec> specs = {
        {Seeds, "--seeds", "N", "independent instances averaged", "seeds",
         true, &K::seeds},
        {Trials, "--trials", "N", "layout trials", "layoutTrials", true,
         &K::layoutTrials},
        {SwapTrials, "--swap-trials", "N", "routing repeats per layout",
         "swapTrials", true, &K::swapTrials},
        {FwdBwd, "--fwd-bwd", "N", "layout refinement rounds",
         "forwardBackwardPasses", true, &K::fwdBwd},
        // Counters are thread-invariant, so --check ignores --threads.
        {Threads, "--threads", "N", "trial-grid worker threads (0 = all "
         "cores)", "threads", false, &K::threads},
        {McIters, "--mc-iters", "N", "Monte-Carlo iterations",
         "mcIterations", true, &K::mcIterations},
        {Limit, "--limit", "N", "first N suite entries / widths (default: "
         "all)", nullptr, false, &K::suiteLimit},
        {Cache, "--cache", "DIR", "equivalence-library cache directory "
         "shared across runs", "cacheDir", false, nullptr, &K::cacheDir},
        {Catalog, "--catalog", "FILE", "fit catalog warm-starting lowering "
         "('none' disables; default: $MIRAGE_FIT_CATALOG, then "
         "./FIT_CATALOG.bin when present)", nullptr, false, nullptr,
         &K::catalogPath},
    };
    return specs;
}

const std::vector<Experiment> &
experimentRegistry()
{
    using enum Knob;
    // The paper's routing sweep (Figs. 10-12) and the mirror families.
    const std::vector<KnobDefault> paperSweep = {
        {Seeds, 3}, {Trials, 12}, {SwapTrials, 4}, {FwdBwd, 2}, {Threads, 1}};
    const std::vector<KnobDefault> mirror = {
        {Seeds, 1}, {Trials, 4}, {SwapTrials, 2}, {FwdBwd, 1},
        {Threads, 1}, {Limit}, {Cache}, {Catalog}};
    static const std::vector<Experiment> registry = {
        {"fig3-4", "Figures 3-4",
         "Haar coverage of the monodromy polytopes, with and without "
         "mirrors",
         "paper: CNOT k=2 covers 0% (planar); sqrt(iSWAP) k=2 covers "
         "79.0%, 94.4% with mirrors; the 4th root needs k=6 exactly, "
         "k=4 with mirrors",
         runFig3to4},
        {"fig5", "Figure 5",
         "Monte-Carlo Haar-score convergence for the 4th root of iSWAP",
         "paper: exact ~0.96, exact+mirrors ~0.90, approx+mirrors < "
         "0.86",
         runFig5,
         {{McIters, 300}}},
        {"fig6", "Figure 6",
         "CPHASE vs its pSWAP mirror against the sqrt(iSWAP) coverage",
         "paper: CNOT and its iSWAP mirror both need k=2; fractional "
         "CPHASE mirrors need k=3",
         runFig6},
        {"fig8", "Figure 8",
         "TwoLocal(full, 4q) on a 4-qubit line: baseline vs MIRAGE",
         "paper: 16 pulses / 3 SWAPs vs 10 pulses / 0 SWAPs", runFig8,
         {{Trials, 8}, {SwapTrials, 4}, {FwdBwd, 2}, {Threads, 1}}},
        {"fig9", "Figure 9",
         "Greedy local minima across routing trials from one layout",
         "paper: trials from the same layout land in different minima "
         "(6 vs 7+ pulses on its subset); post-selection keeps the best",
         runFig9,
         {{Trials, 64}}},
        {"fig10", "Figure 10",
         "Fixed mirror-aggression levels vs the Qiskit baseline",
         "paper: no single aggression level is universally optimal; the "
         "mixed 5/45/45/5 distribution is competitive everywhere",
         runFig10,
         paperSweep},
        {"fig11", "Figure 11",
         "Post-selection metric: SWAP count vs estimated depth",
         "paper: -24.1% average depth (SWAP selection) -> -29.5% (depth "
         "selection), total gates mostly unchanged",
         runFig11,
         paperSweep},
        {"fig12", "Figure 12",
         "MIRAGE vs Qiskit-SABRE on production topologies",
         "paper: heavy-hex -31.19% depth / -16.97% gates / -56.19% "
         "SWAPs; square lattice -29.58% depth / -10.25% gates / -59.86% "
         "SWAPs",
         runFig12,
         paperSweep},
        {"fig13", "Figure 13",
         "Transpiler runtime: QFT scaling and the caching ablation",
         "paper: caching keeps MIRAGE runtime competitive with SABRE "
         "(Section VI-C)",
         runFig13,
         {},
         {"cacheAblationBitIdentical"}},
        {"table1", "Table I",
         "Exact Haar scores/fidelities for iSWAP roots, with mirrors",
         "paper: 1.105/0.9890 1.029/0.9897 | 0.9907/0.9901 "
         "0.9545/0.9904 | 0.9599/0.9904 0.8997/0.9910",
         [](auto &k, auto &) { return runHaarTable(k, false); }},
        {"table2", "Table II",
         "Approximate (Algorithm 1) Haar scores for iSWAP roots",
         "paper: 1.031/0.9895 0.9950/0.9899 | 0.9433/0.9904 "
         "0.8900/0.9908 | 0.9165/0.9906 0.8453/0.9913",
         [](auto &k, auto &) { return runHaarTable(k, true); },
         {{McIters, 300}}},
        {"table3", "Table III",
         "Benchmark suite inventory with measured sqrt(iSWAP) pulses",
         "paper: Table III reports the suite's 2Q gate counts; this "
         "repo additionally measures the lowered pulse counts "
         "(measured == estimated expected)",
         [](auto &k, auto &) { return runTable3(k); },
         {{Trials, 8}, {SwapTrials, 2}, {FwdBwd, 2}, {Threads, 1}, {Limit},
          {Cache}, {Catalog}},
         {},
         {"measuredEqualsEstimated"}},
        {"mirror-rb", "Mirror RB",
         "Self-verifying mirror randomized-benchmarking circuits, "
         "routed+lowered on heavy-hex 57Q with a bitstring oracle",
         "beyond paper: Proctor et al. mirror circuits; end-to-end "
         "pipeline verification at widths the 6-qubit unitary oracle "
         "cannot reach (allVerified must be true)",
         [](auto &k, auto &p) { return runMirrorFamily(k, p, false); },
         mirror,
         {},
         {"allVerified"}},
        {"mirror-qv", "Mirror QV",
         "Self-verifying mirror quantum-volume circuits (random SU(4) "
         "halves), routed+lowered on heavy-hex 57Q with a bitstring "
         "oracle",
         "beyond paper: mitiq-style mirror QV; end-to-end pipeline "
         "verification at widths the 6-qubit unitary oracle cannot "
         "reach (allVerified must be true)",
         [](auto &k, auto &p) { return runMirrorFamily(k, p, true); },
         mirror,
         {},
         {"allVerified"}},
        {"matrix", "Table III (scenario matrix)",
         "{mirror families + Table III suite} x {grid6x6, heavyhex57, "
         "line30} x aggression 0-3, one artifact row per cell",
         "beyond paper: full scenario coverage with per-cell depth "
         "reduction and bitstring verification of the mirror workloads",
         runMatrix,
         {{Trials, 2}, {SwapTrials, 2}, {FwdBwd, 1}, {Threads, 1}, {Limit}},
         {},
         {"allMirrorCellsVerified"}},
        {"bench", "Figure 13 (routing)",
         "Routing hot-path perf trajectory: wall time + deterministic "
         "work counters",
         "paper: mirror-aware routing must stay fast enough to run "
         "many trials (Section VI-C); tracked here as the committed "
         "BENCH_fig13.json trajectory",
         runBenchRouting,
         // Routes at threads 1 and at all cores: no --threads.
         {{Trials, 8}, {SwapTrials, 2}, {FwdBwd, 2}, {Limit}},
         {"heuristicEvals", "extSetBuilds"},
         {"outputsBitIdentical"}},
        {"fig12-large", "Figure 12 (large devices)",
         "Table III circuits routed on 433/1121-qubit heavy-hex and a "
         "33x33 grid, with deterministic routing counters",
         "beyond paper: the paper evaluates up to heavy-hex 57; this "
         "sweep scales routing to IBM Osprey/Condor-class devices "
         "(tracked as the committed BENCH_large_topo.json trajectory)",
         runFig12Large,
         // One routed pass per direction is enough for the counter
         // gate and keeps the 1121-qubit sweep to CI seconds.
         {{Trials, 2}, {SwapTrials, 1}, {FwdBwd, 1}, {Threads, 1}, {Limit}},
         {"heuristicEvals", "extSetBuilds"}},
        {"bench-lowering", "Figure 13 (lowering)",
         "Lowering cold-start trajectory: cold fits vs the committed "
         "FIT_CATALOG.bin, with deterministic fit counters",
         "paper: Section VI-C motivates the decomposition cache; "
         "tracked here as the committed BENCH_lowering.json trajectory "
         "(warmNewFits must stay 0)",
         runBenchLowering,
         // table3's routing config; --catalog picks the warm library.
         {{Trials, 8}, {SwapTrials, 2}, {FwdBwd, 2}, {Threads, 1}, {Limit},
          {Catalog}},
         // warmNewFits' baseline is 0, so ANY warm fit is a regression:
         // the committed catalog stopped covering the suite.
         {"fits", "fitEvaluations", "warmNewFits", "warmFitEvaluations"}},
    };
    return registry;
}

std::unique_ptr<decomp::EquivalenceLibrary>
buildCatalogLibrary(int threads)
{
    // Each entry runs at its declared defaults over one cold library, so
    // the catalog holds exactly the fits those default sweeps make.
    auto lib = std::make_unique<decomp::EquivalenceLibrary>(2);
    SweepKnobs user;
    user.threads = threads;
    auto defaults = [&user](const char *name) {
        return resolveKnobs(*findExperiment(name), user);
    };
    json::Value parameters = json::Value::object();
    runTable3(defaults("table3"), lib.get());
    runMirrorFamily(defaults("mirror-rb"), parameters, false, lib.get());
    runMirrorFamily(defaults("mirror-qv"), parameters, true, lib.get());
    return lib;
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &e : experimentRegistry()) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

json::Value
runExperiment(const Experiment &e, const SweepKnobs &user)
{
    json::Value parameters = json::Value::object();
    const SweepKnobs knobs = resolveKnobs(e, user, &parameters);
    json::Value payload = e.run(knobs, parameters);
    json::Value artifact = json::Value::object();
    artifact.set("schemaVersion", kArtifactSchemaVersion);
    artifact.set("kind", kSweepArtifactKind);
    artifact.set("experiment", e.name);
    artifact.set("paperArtifact", e.artifact);
    artifact.set("title", e.title);
    artifact.set("paperRef", e.paperRef);
    artifact.set("parameters", std::move(parameters));
    for (const auto &[key, value] : payload.members())
        artifact.set(key, value);
    return artifact;
}

bool
validateArtifact(const json::Value &artifact, std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    if (!artifact.isObject())
        return fail("artifact is not a JSON object");
    const json::Value *version = artifact.find("schemaVersion");
    if (!version || !version->isNumber())
        return fail("missing numeric 'schemaVersion'");
    if (version->asInt() != kArtifactSchemaVersion)
        return fail("schemaVersion " + std::to_string(version->asInt()) +
                    " != supported " +
                    std::to_string(kArtifactSchemaVersion));
    const json::Value *kind = artifact.find("kind");
    if (!kind || !kind->isString() ||
        kind->asString() != kSweepArtifactKind)
        return fail("missing or unexpected 'kind' (want \"" +
                    std::string(kSweepArtifactKind) + "\")");
    for (const char *key :
         {"experiment", "paperArtifact", "title", "paperRef"}) {
        const json::Value *v = artifact.find(key);
        if (!v || !v->isString())
            return fail(std::string("missing string '") + key + "'");
    }
    const json::Value *params = artifact.find("parameters");
    if (!params || !params->isObject())
        return fail("missing object 'parameters'");
    const json::Value *columns = artifact.find("columns");
    if (!columns || !columns->isArray() || columns->size() == 0)
        return fail("missing non-empty array 'columns'");
    for (size_t i = 0; i < columns->size(); ++i) {
        const json::Value &c = columns->at(i);
        const json::Value *key = c.isObject() ? c.find("key") : nullptr;
        const json::Value *label =
            c.isObject() ? c.find("label") : nullptr;
        if (!key || !key->isString() || !label || !label->isString())
            return fail("column " + std::to_string(i) +
                        " lacks string key/label");
    }
    const json::Value *rows = artifact.find("rows");
    if (!rows || !rows->isArray())
        return fail("missing array 'rows'");
    for (size_t i = 0; i < rows->size(); ++i) {
        if (!rows->at(i).isObject())
            return fail("row " + std::to_string(i) + " is not an object");
    }
    return true;
}

bool
checkBenchCounters(const Experiment &e, const json::Value &current,
                   const json::Value &baseline, std::string *report)
{
    auto fail = [report](const std::string &msg) {
        if (report)
            *report += msg + "\n";
        return false;
    };
    std::string err;
    if (!validateArtifact(current, &err))
        return fail("current artifact invalid: " + err);
    if (!validateArtifact(baseline, &err))
        return fail("baseline artifact invalid: " + err);
    if (e.gatedCounters.empty())
        return fail("not a counter-gated experiment: " + e.name);
    // Both sides must come from the same experiment or the row sets
    // aren't comparable.
    for (const json::Value *a : {&current, &baseline}) {
        if ((*a)["experiment"].asString() != e.name)
            return fail("experiment mismatch: want '" + e.name +
                        "', artifact has '" +
                        (*a)["experiment"].asString() + "'");
    }

    // Counters are only comparable when the workload matches: the
    // circuit count and every declared workload knob.
    std::vector<std::string> workload = {"circuits"};
    for (const KnobSpec &s : knobSpecs())
        if (s.workload && e.declared(s.knob))
            workload.push_back(s.parameter);
    for (const std::string &key : workload) {
        const json::Value *c = current["parameters"].find(key);
        const json::Value *b = baseline["parameters"].find(key);
        if (!c || !b || c->asInt() != b->asInt())
            return fail("parameter '" + key +
                        "' differs from the baseline; regenerate the "
                        "baseline with matching knobs");
    }

    bool ok = true;
    const json::Value &rows = current["rows"];
    const json::Value &base_rows = baseline["rows"];
    auto findRow = [&base_rows](const std::string &name) {
        for (size_t i = 0; i < base_rows.size(); ++i) {
            const json::Value *n = base_rows.at(i).find("name");
            if (n && n->isString() && n->asString() == name)
                return &base_rows.at(i);
        }
        return static_cast<const json::Value *>(nullptr);
    };
    size_t matched = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        const json::Value &row = rows.at(i);
        const std::string name = row["name"].asString();
        const json::Value *base = findRow(name);
        if (!base)
            continue; // a new row has no baseline yet
        ++matched;
        for (const std::string &key : e.gatedCounters) {
            const json::Value *n = row.find(key), *r = base->find(key);
            if (!n || !r || !n->isNumber() || !r->isNumber()) {
                ok = false;
                fail(name + ": counter '" + key + "' missing");
                continue;
            }
            const int64_t now = n->asInt(), ref = r->asInt();
            if (now > ref) {
                ok = false;
                fail(name + ": " + key + " regressed " +
                     std::to_string(ref) + " -> " + std::to_string(now));
            } else if (report && now < ref) {
                *report += name + ": " + key + " improved " +
                           std::to_string(ref) + " -> " +
                           std::to_string(now) + "\n";
            }
        }
    }
    // Every baseline row must still be measured, or a regression could
    // hide behind a shrunken suite.
    if (matched < base_rows.size()) {
        ok = false;
        fail("current run covers " + std::to_string(matched) + " of " +
             std::to_string(base_rows.size()) + " baseline rows");
    }
    return ok;
}

bool
checkInvariants(const Experiment &e, const json::Value &artifact,
                std::string *report)
{
    bool ok = true;
    const json::Value *summary = artifact.find("summary");
    for (const std::string &key : e.invariants) {
        const json::Value *flag = summary ? summary->find(key) : nullptr;
        if (flag && flag->isBool() && flag->asBool())
            continue;
        ok = false;
        if (report)
            *report += "invariant '" + key + "' is " +
                       (flag ? flag->dump(0) : std::string("missing")) +
                       ", must be true\n";
    }
    return ok;
}

namespace {

/** Format one cell according to the column spec. */
std::string
formatCell(const json::Value &v, const json::Value &col)
{
    if (v.isString())
        return v.asString();
    if (v.isBool())
        return v.asBool() ? "true" : "false";
    if (v.isNull())
        return "";
    if (!v.isNumber())
        return v.dump(0);
    const json::Value *sci = col.find("sci");
    if (sci && sci->isBool() && sci->asBool()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1e", v.asNumber());
        return buf;
    }
    const json::Value *digits = col.find("digits");
    if (digits && digits->isNumber()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.*f", int(digits->asInt()),
                      v.asNumber());
        return buf;
    }
    return json::formatNumber(v.asNumber());
}

std::string
formatSummaryValue(const json::Value &v)
{
    if (v.isString())
        return v.asString();
    if (v.isBool())
        return v.asBool() ? "true" : "false";
    if (v.isNumber()) {
        double d = v.asNumber();
        if (d == std::floor(d) && std::fabs(d) < 1e15)
            return json::formatNumber(d);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4g", d);
        return buf;
    }
    return v.dump(0);
}

} // namespace

std::string
renderMarkdown(const json::Value &artifact)
{
    std::string err;
    if (!validateArtifact(artifact, &err))
        return "<!-- invalid artifact: " + err + " -->\n";

    const json::Value &columns = artifact["columns"];
    const json::Value &rows = artifact["rows"];

    std::string out = "## " + artifact["paperArtifact"].asString() +
                      " — " + artifact["title"].asString() + " (`" +
                      artifact["experiment"].asString() + "`)\n\n";

    const json::Value &params = artifact["parameters"];
    if (params.size()) {
        out += "Parameters: ";
        bool first = true;
        for (const auto &[k, v] : params.members()) {
            if (!first)
                out += ", ";
            out += k + "=" + formatSummaryValue(v);
            first = false;
        }
        out += "\n\n";
    }

    // Header + alignment (numbers right, everything else left). A
    // column is numeric when its first present value is a number.
    std::string header = "|", align = "|";
    for (size_t c = 0; c < columns.size(); ++c) {
        const json::Value &col = columns.at(c);
        header += " " + col["label"].asString() + " |";
        bool numeric = false;
        const std::string &key = col["key"].asString();
        for (size_t r = 0; r < rows.size(); ++r) {
            if (const json::Value *v = rows.at(r).find(key)) {
                numeric = v->isNumber();
                break;
            }
        }
        align += numeric ? " ---: |" : " --- |";
    }
    out += header + "\n" + align + "\n";

    for (size_t r = 0; r < rows.size(); ++r) {
        out += "|";
        for (size_t c = 0; c < columns.size(); ++c) {
            const json::Value &col = columns.at(c);
            const json::Value *v = rows.at(r).find(col["key"].asString());
            out += " ";
            if (v)
                out += formatCell(*v, col);
            out += " |";
        }
        out += "\n";
    }

    if (const json::Value *summary = artifact.find("summary");
        summary && summary->isObject() && summary->size()) {
        out += "\n";
        for (const auto &[k, v] : summary->members()) {
            if (v.isObject()) {
                out += "- " + k + ":";
                for (const auto &[k2, v2] : v.members())
                    out += " " + k2 + "=" + formatSummaryValue(v2);
                out += "\n";
            } else if (v.isArray()) {
                out += "- " + k + ": ";
                for (size_t i = 0; i < v.size(); ++i) {
                    if (i)
                        out += ", ";
                    out += formatSummaryValue(v.at(i));
                }
                out += "\n";
            } else {
                out += "- " + k + ": " + formatSummaryValue(v) + "\n";
            }
        }
    }

    if (const json::Value *notes = artifact.find("notes");
        notes && notes->isString())
        out += "\n" + notes->asString() + "\n";
    out += "\n*" + artifact["paperRef"].asString() + "*\n";
    return out;
}

std::string
renderCsv(const json::Value &artifact)
{
    std::string err;
    if (!validateArtifact(artifact, &err))
        return "";

    const json::Value &columns = artifact["columns"];
    const json::Value &rows = artifact["rows"];

    auto csvEscape = [](const std::string &s) {
        if (s.find_first_of(",\"\n") == std::string::npos)
            return s;
        std::string out = "\"";
        for (char c : s) {
            if (c == '"')
                out += '"';
            out += c;
        }
        out += '"';
        return out;
    };

    std::string out;
    for (size_t c = 0; c < columns.size(); ++c) {
        if (c)
            out += ",";
        out += csvEscape(columns.at(c)["key"].asString());
    }
    out += "\n";
    for (size_t r = 0; r < rows.size(); ++r) {
        for (size_t c = 0; c < columns.size(); ++c) {
            if (c)
                out += ",";
            const json::Value *v =
                rows.at(r).find(columns.at(c)["key"].asString());
            if (!v || v->isNull())
                continue;
            if (v->isNumber())
                out += json::formatNumber(v->asNumber());
            else if (v->isBool())
                out += v->asBool() ? "true" : "false";
            else if (v->isString())
                out += csvEscape(v->asString());
            else
                out += csvEscape(v->dump(0));
        }
        out += "\n";
    }
    return out;
}

} // namespace mirage::cli
