/**
 * @file
 * In-process workloads: suite-route (routing trial grid, plus warm
 * re-lowering of one slice), lower-cold (fresh-library lowering of
 * pre-routed circuits) and the traced stage replay used by every
 * workload's --trace 1 run.
 */

#include "inproc.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <random>

#include "checks.hh"
#include "circuit/consolidate.hh"
#include "circuit/qasm.hh"
#include "decomp/equivalence.hh"
#include "layout/vf2.hh"
#include "monodromy/coverage.hh"
#include "serve/protocol.hh"
#include "trace.hh"

namespace perfbench {

namespace mp = mirage::mirage_pass;
using mirage::circuit::Circuit;
using mirage::topology::CouplingMap;

namespace {

/** Largest logical width whose equivalence is checked by simulation. */
constexpr int kSimulateUpTo = 12;
constexpr double kRoutedTolerance = 1e-6;
constexpr double kLoweredTolerance = 1e-5;

struct Loaded
{
    PlanItem item;
    std::string text;
    Circuit input;
    std::vector<Op> inputOps;
    const CouplingMap *topo = nullptr;
};

struct Setup
{
    std::vector<Loaded> items;
    std::map<std::string, std::unique_ptr<CouplingMap>> topologies;
    std::unique_ptr<mirage::decomp::EquivalenceLibrary> catalogLib;
    size_t catalogEntries = 0;
};

/**
 * Cold set-up: coverage + cost model, topologies, inputs and (when
 * `catalog` is non-empty) the fit catalog. Prints READY when done so
 * the caller can time set-up from outside the process.
 */
Setup
coldSetup(const std::string &plan, const std::string &catalog,
          Recorder *rec)
{
    Setup s;
    {
        Scope sp(rec, "monodromy.coverage_build", -1);
        mirage::monodromy::coverageForRootIswap(2);
    }
    {
        Scope sp(rec, "setup.cost_model", -1);
        mirage::monodromy::makeRootIswapCostModel(2);
    }
    for (PlanItem &it : readPlan(plan)) {
        Loaded l;
        l.text = readFile(it.path);
        {
            Scope sp(rec, "circuit.parse", -1);
            l.input = mirage::circuit::fromQasm(l.text);
        }
        l.inputOps = opsOf(l.input);
        auto &topo = s.topologies[it.topology];
        if (!topo) {
            Scope sp(rec, "topology.build", -1);
            topo = std::make_unique<CouplingMap>(
                CouplingMap::parseSpec(it.topology, l.input.numQubits()));
        }
        l.topo = topo.get();
        l.item = std::move(it);
        s.items.push_back(std::move(l));
    }
    if (!catalog.empty()) {
        Scope sp(rec, "decomp.catalog_load", -1);
        s.catalogLib =
            std::make_unique<mirage::decomp::EquivalenceLibrary>(2, false);
        auto res = s.catalogLib->loadCacheFileDetailed(catalog);
        if (res.status != mirage::decomp::EquivalenceLibrary::CacheLoadStatus::Ok)
            throw std::runtime_error("catalog: " + res.message);
        s.catalogEntries = res.entriesLoaded;
    }
    std::printf("READY\n");
    std::fflush(stdout);
    return s;
}

/**
 * The probe just after set-up; with the one run.py takes just before
 * starting this process it scales the set-up time (see run.py).
 */
void
printSetupProbe()
{
    std::printf("PROBE %.9g\n", hostProbeMs());
    std::fflush(stdout);
}

/** Everything that must repeat exactly when the same item is redone. */
struct Signature
{
    uint64_t routed = 0;
    uint64_t lowered = 0;
    int swaps = 0;
    double depthPulses = 0;
    mirage::router::RoutingCounters counters;
    int newFits = 0;
    uint64_t fitEvaluations = 0;

    bool
    operator==(const Signature &o) const
    {
        return routed == o.routed && lowered == o.lowered &&
               swaps == o.swaps && depthPulses == o.depthPulses &&
               counters == o.counters && newFits == o.newFits &&
               fitEvaluations == o.fitEvaluations;
    }
};

/** Independent checks of one routed result against its input. */
void
checkRouted(const Loaded &l, const mp::TranspileResult &r, uint64_t seed,
            Result &res)
{
    const std::vector<Op> routed = opsOf(r.routed);
    if (int bad = edgeViolations(routed, edgeSet(l.topo->edges())))
        res.fail(l.item.name + ": " + std::to_string(bad) +
                 " two-qubit gates off the device edges");
    const int n = l.input.numQubits();
    if (n <= kSimulateUpTo) {
        const double f = layoutFidelity(
            l.inputOps, n, routed, r.routed.numQubits(),
            r.initial.logicalToPhysical(), r.final.logicalToPhysical(), seed);
        if (!(f > 1 - kRoutedTolerance))
            res.fail(l.item.name + ": routed circuit differs from input "
                                   "(fidelity " + std::to_string(f) + ")");
    }
}

/**
 * Independent checks of one lowered circuit against its routed one;
 * returns "" or what is wrong.
 */
std::string
checkLowered(const Loaded &l, const mp::TranspileResult &r,
             const Circuit &lowered, uint64_t seed)
{
    const std::vector<Op> low = opsOf(lowered);
    if (edgeViolations(low, edgeSet(l.topo->edges())) != 0)
        return l.item.name + ": lowered gates off the device edges";
    const Pulses p = countPulses(lowered.numQubits(), low);
    const int est_total = int(std::lround(r.metrics.totalPulses));
    const int est_depth = int(std::lround(r.metrics.depthPulses));
    if (p.total != est_total || p.depth != est_depth)
        return l.item.name + ": measured pulses (total/depth) " +
               std::to_string(p.total) + "/" + std::to_string(p.depth) +
               " != estimated " + std::to_string(r.metrics.totalPulses) +
               "/" + std::to_string(r.metrics.depthPulses);
    if (l.input.numQubits() <= kSimulateUpTo) {
        const double f = sameQubitFidelity(opsOf(r.routed), low,
                                           lowered.numQubits(), seed);
        if (!(f > 1 - kLoweredTolerance))
            return l.item.name + ": lowered circuit differs from routed "
                                 "(fidelity " + std::to_string(f) + ")";
    }
    return "";
}

Signature
signatureOf(const mp::TranspileResult &r)
{
    Signature s;
    s.routed = fingerprint(r.routed);
    s.swaps = r.swapsAdded;
    s.depthPulses = r.metrics.depthPulses;
    s.counters = r.routingCounters;
    return s;
}

std::vector<size_t>
order(size_t n, std::mt19937_64 &rng)
{
    std::vector<size_t> o(n);
    std::iota(o.begin(), o.end(), 0);
    std::shuffle(o.begin(), o.end(), rng);
    return o;
}

/** Host speed over the run, on standard error (not a metric). */
void
reportProbes(const ProbedTimes &times, size_t samples)
{
    const auto &p = times.probes();
    std::fprintf(stderr, "host probe: %zu probes, median %.3f ms "
                 "(%.3f-%.3f); %zu samples, %.1f ms raw\n", p.size(),
                 quantile(p, 0.5), *std::min_element(p.begin(), p.end()),
                 *std::max_element(p.begin(), p.end()), samples,
                 times.rawMs());
}

void
setLatencyMetrics(Result &res, const std::vector<double> &ms)
{
    res.set("oneshot_ms", quantile(ms, 0.5), "ms");
    res.set("latency_p50_ms", quantile(ms, 0.5), "ms");
    res.set("latency_p99_ms", quantile(ms, 0.99), "ms");
}

} // namespace

int
runSuiteRoute(const std::string &plan, const std::string &catalog,
              const std::string &lower_topology, uint64_t seed,
              double seconds)
{
    pinToOneCpu();
    Setup s = coldSetup(plan, catalog, nullptr);
    printSetupProbe();
    Result res;
    std::mt19937_64 rng(seed);

    // Untimed first pass: check every output independently, record the
    // signatures later passes must repeat, and warm the lowering library
    // on the re-lowered slice.
    std::vector<Signature> want(s.items.size());
    // A lowering whose output fails a check fails the same way on every
    // repetition (outputs repeat exactly): each one counts as a failed
    // operation, reported once.
    std::vector<bool> bad_lowering(s.items.size(), false);
    double depth = 0, swaps = 0;
    for (size_t i = 0; i < s.items.size(); ++i) {
        const Loaded &l = s.items[i];
        auto r = mp::transpile(l.input, *l.topo, optionsOf(l.item));
        checkRouted(l, r, seed + i, res);
        want[i] = signatureOf(r);
        depth += r.metrics.depthPulses;
        swaps += r.swapsAdded;
        if (l.item.topology == lower_topology) {
            mirage::decomp::TranslateStats st;
            Circuit low = s.catalogLib->translate(r.routed, &st);
            const std::string why = checkLowered(l, r, low, seed + i);
            if (!why.empty()) {
                std::fprintf(stderr, "failed operation: %s\n", why.c_str());
                bad_lowering[i] = true;
            }
            want[i].lowered = fingerprint(low);
        }
    }

    std::vector<double> route_ms, lower_ms;
    ProbedTimes times;
    const auto t0 = Clock::now();
    while (msSince(t0) < seconds * 1000.0) {
        for (size_t i : order(s.items.size(), rng)) {
            const Loaded &l = s.items[i];
            ++res.attempted;
            auto c0 = Clock::now();
            auto r = mp::transpile(l.input, *l.topo, optionsOf(l.item));
            times.add(&route_ms, msSince(c0));
            Signature got = signatureOf(r);
            if (l.item.topology == lower_topology) {
                ++res.attempted;
                mirage::decomp::TranslateStats st;
                c0 = Clock::now();
                Circuit low = s.catalogLib->translate(r.routed, &st);
                times.add(&lower_ms, msSince(c0));
                got.lowered = fingerprint(low);
                res.failed += bad_lowering[i];
                if (st.newFits != 0)
                    res.fail(l.item.name + ": warm re-lowering fitted");
            }
            if (!(got == want[i]))
                res.fail(l.item.name + ": output or counters changed "
                                       "between repetitions");
            times.tick();
        }
    }
    times.finish();
    const double route_s =
        std::accumulate(route_ms.begin(), route_ms.end(), 0.0) / 1000.0;
    const double lower_s =
        std::accumulate(lower_ms.begin(), lower_ms.end(), 0.0) / 1000.0;
    res.set("circuits_per_s", double(route_ms.size()) / route_s, "1/s");
    res.set("lowered_circuits_per_s", double(lower_ms.size()) / lower_s,
            "1/s");
    setLatencyMetrics(res, route_ms);
    res.set("depth_pulses", depth, "pulses");
    res.set("swaps", swaps, "count");
    res.set("peak_rss_mb", peakRssMb(), "MB");
    reportProbes(times, route_ms.size() + lower_ms.size());
    res.print();
    return 0;
}

int
runLowerCold(const std::string &plan, uint64_t seed, double seconds)
{
    pinToOneCpu();
    Setup s = coldSetup(plan, "", nullptr);
    printSetupProbe();
    Result res;
    std::mt19937_64 rng(seed);

    // Routing is done once, untimed.
    std::vector<mp::TranspileResult> routed;
    double swaps = 0;
    for (size_t i = 0; i < s.items.size(); ++i) {
        const Loaded &l = s.items[i];
        auto opts = optionsOf(l.item);
        opts.lowerToBasis = false;
        routed.push_back(mp::transpile(l.input, *l.topo, opts));
        checkRouted(l, routed.back(), seed + i, res);
        swaps += routed.back().swapsAdded;
    }

    std::vector<std::optional<Signature>> want(s.items.size());
    // As on suite-route: a lowering that fails a check fails the same way
    // on every repetition, and each one counts as a failed operation.
    std::vector<bool> bad_lowering(s.items.size(), false);
    std::vector<double> ms;
    double depth = 0;
    ProbedTimes times;
    const auto t0 = Clock::now();
    while (msSince(t0) < seconds * 1000.0) {
        for (size_t i : order(s.items.size(), rng)) {
            const Loaded &l = s.items[i];
            const auto &r = routed[i];
            ++res.attempted;
            mirage::decomp::TranslateStats st;
            const auto c0 = Clock::now();
            mirage::decomp::EquivalenceLibrary lib(2);
            Circuit low = lib.translate(r.routed, &st);
            times.add(&ms, msSince(c0));
            Signature got;
            got.lowered = fingerprint(low);
            got.newFits = st.newFits;
            got.fitEvaluations = st.fitEvaluations;
            got.depthPulses =
                mp::measuredPulseMetrics(low, 0.5).depthPulses;
            if (!want[i]) {
                const std::string why = checkLowered(l, r, low, seed + i);
                if (!why.empty()) {
                    std::fprintf(stderr, "failed operation: %s\n",
                                 why.c_str());
                    bad_lowering[i] = true;
                }
                want[i] = got;
                depth += got.depthPulses;
            } else if (!(got == *want[i])) {
                res.fail(l.item.name + ": lowering changed between "
                                       "repetitions");
            }
            res.failed += bad_lowering[i];
            times.tick();
        }
    }
    times.finish();
    const double total_s = std::accumulate(ms.begin(), ms.end(), 0.0) / 1000;
    res.set("circuits_per_s", double(ms.size()) / total_s, "1/s");
    res.set("lowered_circuits_per_s", double(ms.size()) / total_s, "1/s");
    setLatencyMetrics(res, ms);
    res.set("depth_pulses", depth, "pulses");
    res.set("swaps", swaps, "count");
    res.set("peak_rss_mb", peakRssMb(), "MB");
    reportProbes(times, ms.size());
    res.print();
    return 0;
}

int
runSetup(const std::string &plan, const std::string &catalog)
{
    pinToOneCpu();
    coldSetup(plan, catalog, nullptr);
    printSetupProbe();
    return 0;
}

// --- traced stage replay ---------------------------------------------

namespace {

/** Per-round counters of the traced replay (first round only). */
struct LayerCounts
{
    double blocks = 0, vf2Hits = 0, evals = 0, stalls = 0, candidates = 0;
    double mirrorsAccepted = 0, mirrorCandidates = 0;
    double newFits = 0, fitEvaluations = 0, cacheHits = 0;
    double rowCacheMisses = 0;
};

/**
 * mirage_pass::transpile, replayed stage by stage through the public
 * stage functions with a span around each call.
 */
mp::TranspileResult
replay(const Loaded &l, mirage::decomp::EquivalenceLibrary *lib,
       Recorder &rec, int request, LayerCounts *counts)
{
    const mp::TranspileOptions o = optionsOf(l.item);
    Scope root(&rec, "transpile", request);
    std::optional<mirage::monodromy::CostModel> cm;
    {
        Scope sp(&rec, "monodromy.cost_model", request);
        cm.emplace(mirage::monodromy::makeRootIswapCostModel(o.rootDegree));
    }
    Circuit cleaned;
    {
        Scope sp(&rec, "circuit.unroll", request);
        cleaned = mp::unrollThreeQubit(l.input);
    }
    Circuit cons;
    {
        Scope sp(&rec, "circuit.consolidate", request);
        cons = mirage::circuit::consolidateBlocks(
            cleaned, mirage::circuit::ConsolidateOptions{});
    }
    mp::TranspileResult r;
    std::optional<mirage::layout::Layout> vf2;
    if (o.tryVf2) {
        Scope sp(&rec, "layout.vf2", request);
        vf2 = mirage::layout::findSwapFreeLayout(cons, *l.topo);
    }
    if (vf2) {
        Circuit placed(l.topo->numQubits(), l.input.name());
        for (const auto &g : cons.gates()) {
            auto phys = g;
            for (auto &q : phys.qubits)
                q = vf2->toPhysical(q);
            placed.append(std::move(phys));
        }
        r.routed = std::move(placed);
        r.initial = r.final = *vf2;
        r.usedVf2 = true;
    } else {
        mirage::router::TrialOptions t;
        t.layoutTrials = o.layoutTrials;
        t.forwardBackwardPasses = o.forwardBackwardPasses;
        t.swapTrials = o.swapTrials;
        t.seed = o.seed;
        t.threads = 1;
        t.pass.costModel = &*cm;
        t.postSelect = mirage::router::PostSelect::Depth;
        t.trialAggression = mirage::router::mirageAggressionMix(o.layoutTrials);
        Scope sp(&rec, "router.route", request);
        auto rr = mirage::router::routeWithTrials(cons, *l.topo, t);
        r.routed = std::move(rr.routed);
        r.initial = rr.initial;
        r.final = rr.final;
        r.swapsAdded = rr.swapsAdded;
        r.mirrorsAccepted = rr.mirrorsAccepted;
        r.mirrorCandidates = rr.mirrorCandidates;
        r.routingCounters = rr.counters;
    }
    {
        Scope sp(&rec, "mirage.metrics", request);
        r.metrics = mp::computeMetrics(r.routed, *cm);
    }
    if (o.lowerToBasis) {
        {
            Scope sp(&rec, "decomp.translate", request);
            r.lowered = lib->translate(r.routed, &r.translateStats);
        }
        Scope sp(&rec, "mirage.measured_metrics", request);
        r.loweredMetrics = mp::measuredPulseMetrics(r.lowered,
                                                    cm->basisDuration());
        r.loweredToBasis = true;
    }
    if (counts) {
        counts->blocks += double(cons.size());
        counts->vf2Hits += vf2 ? 1 : 0;
        counts->evals += double(r.routingCounters.heuristicEvals);
        counts->stalls += double(r.routingCounters.stallSteps);
        counts->candidates += double(r.routingCounters.swapCandidates);
        counts->mirrorsAccepted += r.mirrorsAccepted;
        counts->mirrorCandidates += r.mirrorCandidates;
        counts->newFits += r.translateStats.newFits;
        counts->fitEvaluations += double(r.translateStats.fitEvaluations);
        counts->cacheHits += r.translateStats.cacheHits;
    }
    return r;
}

} // namespace

int
runTrace(const std::string &plan, const std::string &catalog, bool cold_lib,
         uint64_t seed, double seconds, const std::string &trace_out,
         const ServeMixConfig *serve)
{
    Recorder rec;
    Setup s = coldSetup(plan, catalog, &rec);
    Result res;
    std::mt19937_64 rng(seed);
    std::vector<double> probes{hostProbeMs()};

    auto library = [&](std::unique_ptr<mirage::decomp::EquivalenceLibrary>
                           &fresh) -> mirage::decomp::EquivalenceLibrary * {
        if (cold_lib || !s.catalogLib) {
            fresh = std::make_unique<mirage::decomp::EquivalenceLibrary>(2);
            return fresh.get();
        }
        return s.catalogLib.get();
    };

    LayerCounts counts;
    double replay_ms = 0, plain_ms = 0, report_ms = 0;
    int rounds = 0, request = 0;
    const double replay_budget_ms = seconds * 1000.0 * (serve ? 0.6 : 1.0);
    const auto t0 = Clock::now();
    do {
        if (rounds == 0)
            mirage::topology::CouplingMap::clearRowCache();
        for (size_t i : order(s.items.size(), rng)) {
            const Loaded &l = s.items[i];
            res.attempted += 2;
            {
                Scope sp(&rec, "circuit.parse", request);
                (void)mirage::circuit::fromQasm(l.text);
            }
            // Alternate which of the pair runs first.
            // Libraries are made before either clock starts.
            std::unique_ptr<mirage::decomp::EquivalenceLibrary> fa, fb;
            mirage::decomp::EquivalenceLibrary *lib_a = library(fa);
            mirage::decomp::EquivalenceLibrary *lib_b = library(fb);
            mp::TranspileResult traced, plain;
            auto run_traced = [&] {
                const auto c0 = Clock::now();
                traced = replay(l, lib_a, rec, request,
                                rounds == 0 ? &counts : nullptr);
                replay_ms += msSince(c0);
            };
            auto run_plain = [&] {
                auto opts = optionsOf(l.item);
                opts.equivalenceLibrary = lib_b;
                const auto c0 = Clock::now();
                plain = mp::transpile(l.input, *l.topo, opts);
                plain_ms += msSince(c0);
            };
            if (request % 2) {
                run_traced();
                run_plain();
            } else {
                run_plain();
                run_traced();
            }
            if (fingerprint(traced.routed) != fingerprint(plain.routed) ||
                !(traced.initial == plain.initial) ||
                !(traced.final == plain.final) ||
                (l.item.lower &&
                 fingerprint(traced.lowered) != fingerprint(plain.lowered)))
                res.fail(l.item.name + ": replayed output differs from "
                                       "transpile()");
            {
                const auto c0 = Clock::now();
                Scope sp(&rec, "cli.report", request);
                std::string text =
                    mirage::serve::transpileReportJson(l.item.path, l.input,
                                                       *l.topo,
                                                       optionsOf(l.item),
                                                       plain)
                        .dump(-1);
                report_ms += msSince(c0);
                if (text.empty())
                    res.fail("empty report");
            }
            ++request;
        }
        if (rounds == 0)
            counts.rowCacheMisses = double(
                mirage::topology::CouplingMap::rowCacheStats().misses);
        ++rounds;
        probes.push_back(hostProbeMs());
    } while (msSince(t0) < replay_budget_ms);

    const double per_round = 1.0 / rounds;
    auto layer = [&](const char *metric, const char *span) {
        res.set(metric, rec.totalMs(span) * per_round, "ms");
    };
    res.set("monodromy.coverage_build_ms",
            rec.totalMs("monodromy.coverage_build"), "ms");
    res.set("monodromy.cost_model_ms",
            rec.totalMs("monodromy.cost_model") / double(request),
            "ms");
    res.set("decomp.catalog_load_ms", rec.totalMs("decomp.catalog_load"),
            "ms");
    res.set("decomp.catalog_entries", double(s.catalogEntries), "count");
    res.set("topology.build_ms", rec.totalMs("topology.build"), "ms");
    layer("circuit.parse_ms", "circuit.parse");
    res.set("cli.report_ms", report_ms * per_round, "ms");
    layer("circuit.consolidate_ms", "circuit.consolidate");
    layer("layout.vf2_ms", "layout.vf2");
    layer("mirage.metrics_ms", "mirage.metrics");
    layer("router.route_ms", "router.route");
    layer("decomp.translate_ms", "decomp.translate");
    res.set("circuit.blocks", counts.blocks, "count");
    res.set("layout.vf2_hits", counts.vf2Hits, "count");
    res.set("router.heuristic_evals", counts.evals, "count");
    res.set("router.stall_steps", counts.stalls, "count");
    res.set("router.swap_candidates", counts.candidates, "count");
    res.set("router.mirror_accept_ratio",
            counts.mirrorCandidates
                ? counts.mirrorsAccepted / counts.mirrorCandidates
                : 0.0,
            "ratio");
    res.set("topology.row_cache_misses", counts.rowCacheMisses, "count");
    res.set("decomp.new_fits", counts.newFits, "count");
    res.set("decomp.fit_evaluations", counts.fitEvaluations, "count");
    res.set("decomp.cache_hits", counts.cacheHits, "count");
    res.set("decomp.ms_per_fit",
            counts.newFits ? rec.totalMs("decomp.translate") * per_round /
                                 counts.newFits
                           : 0.0,
            "ms");

    // Stage time inside the traced transpile spans versus the plain
    // transpile() calls that ran alternately beside them.
    double stage_ms = 0;
    for (const char *stage :
         {"monodromy.cost_model", "circuit.unroll", "circuit.consolidate",
          "layout.vf2", "router.route", "mirage.metrics", "decomp.translate",
          "mirage.measured_metrics"})
        stage_ms += rec.totalMs(stage);
    res.set("trace.stage_sum_ratio", stage_ms / plain_ms, "ratio");
    res.set("trace.overhead_pct", (replay_ms / plain_ms - 1.0) * 100.0, "%");
    if (std::abs(stage_ms / plain_ms - 1.0) > 0.2)
        res.fail("stage spans do not add up to transpile() time");

    if (serve)
        runServeMix(*serve, res);
    res.set("host.probe_ms", quantile(probes, 0.5), "ms");
    rec.write(trace_out);
    res.print();
    return 0;
}

} // namespace perfbench
