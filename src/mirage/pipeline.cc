/**
 * @file
 * Transpilation pipeline implementation: 3Q unrolling, block
 * consolidation, VF2 short-circuit, routing trials with post-selection,
 * and metric computation for the SABRE baseline and MIRAGE flows.
 */

#include "mirage/pipeline.hh"

#include <chrono>
#include <optional>

#include "circuit/consolidate.hh"
#include "common/logging.hh"
#include "layout/vf2.hh"

namespace mirage::mirage_pass {

using circuit::Circuit;
using circuit::GateKind;

circuit::Circuit
unrollThreeQubit(const Circuit &input)
{
    Circuit out(input.numQubits(), input.name());
    for (const auto &g : input.gates()) {
        if (g.kind == GateKind::CCX) {
            int a = g.qubits[0], b = g.qubits[1], c = g.qubits[2];
            // Standard 6-CNOT Toffoli.
            out.h(c);
            out.cx(b, c);
            out.tdg(c);
            out.cx(a, c);
            out.t(c);
            out.cx(b, c);
            out.tdg(c);
            out.cx(a, c);
            out.t(b);
            out.t(c);
            out.h(c);
            out.cx(a, b);
            out.t(a);
            out.tdg(b);
            out.cx(a, b);
        } else if (g.kind == GateKind::CSWAP) {
            int c = g.qubits[0], x = g.qubits[1], y = g.qubits[2];
            // Fredkin = CX(y,x) Toffoli(c,x,y) CX(y,x).
            out.cx(y, x);
            Circuit tof(input.numQubits());
            tof.ccx(c, x, y);
            Circuit unrolled = unrollThreeQubit(tof);
            for (const auto &tg : unrolled.gates())
                out.append(tg);
            out.cx(y, x);
        } else if (g.isBarrier()) {
            continue; // input cleaning removes barriers
        } else {
            out.append(g);
        }
    }
    return out;
}

namespace {

/**
 * Final pipeline stage: lower the routed circuit to explicit basis
 * pulses and measure the pulse metrics the polytope stage estimated.
 */
void
lowerResult(TranspileResult &result, const TranspileOptions &opts,
            const monodromy::CostModel &cost_model,
            decomp::EquivalenceLibrary *library)
{
    if (!opts.lowerToBasis)
        return;
    MIRAGE_ASSERT(library != nullptr, "lowerToBasis needs a library");
    MIRAGE_ASSERT(library->rootDegree() == opts.rootDegree,
                  "equivalence library basis does not match rootDegree");
    result.lowered = library->translate(result.routed,
                                        &result.translateStats,
                                        opts.deadline);
    result.loweredMetrics =
        measuredPulseMetrics(result.lowered, cost_model.basisDuration());
    result.loweredToBasis = true;
}

} // namespace

TranspileResult
transpile(const Circuit &input, const topology::CouplingMap &coupling,
          const TranspileOptions &opts)
{
    std::optional<decomp::EquivalenceLibrary> local_lib;
    decomp::EquivalenceLibrary *library = opts.equivalenceLibrary;
    if (opts.lowerToBasis && !library)
        library = &local_lib.emplace(opts.rootDegree);
    MIRAGE_ASSERT(opts.rootDegree >= 1, "bad basis root degree");
    opts.deadline.check("pipeline.start");
    const monodromy::CostModel cost_model =
        monodromy::makeRootIswapCostModel(opts.rootDegree);

    // 1. Input cleaning + consolidation.
    Circuit cleaned = unrollThreeQubit(input);
    circuit::ConsolidateOptions copts;
    Circuit consolidated = circuit::consolidateBlocks(cleaned, copts);

    TranspileResult result;

    // 2. SWAP-free check (VF2).
    if (opts.tryVf2) {
        auto vf2 = layout::findSwapFreeLayout(consolidated, coupling);
        if (vf2.has_value()) {
            // Apply the layout directly; no routing needed.
            Circuit placed(coupling.numQubits(), input.name());
            for (const auto &g : consolidated.gates()) {
                circuit::Gate phys = g;
                for (auto &q : phys.qubits)
                    q = vf2->toPhysical(q);
                placed.append(std::move(phys));
            }
            result.routed = std::move(placed);
            result.initial = *vf2;
            result.final = *vf2;
            result.usedVf2 = true;
            result.metrics = computeMetrics(result.routed, cost_model);
            lowerResult(result, opts, cost_model, library);
            return result;
        }
    }

    // 3. Routing.
    router::TrialOptions topts;
    topts.layoutTrials = opts.layoutTrials;
    topts.forwardBackwardPasses = opts.forwardBackwardPasses;
    topts.swapTrials = opts.swapTrials;
    topts.seed = opts.seed;
    topts.threads = opts.threads;
    topts.pool = opts.pool;
    topts.pass.costModel = &cost_model;
    // Every trial's pass copies opts.pass (passForTrial), so the token
    // reaches the whole grid; parallelFor rethrows the first
    // DeadlineError and skips unclaimed trials.
    topts.pass.deadline = opts.deadline;

    switch (opts.flow) {
      case Flow::SabreBaseline:
        topts.postSelect = router::PostSelect::Swaps;
        topts.trialAggression = {router::Aggression::None};
        break;
      case Flow::MirageSwaps:
        topts.postSelect = router::PostSelect::Swaps;
        topts.trialAggression =
            router::mirageAggressionMix(opts.layoutTrials);
        break;
      case Flow::MirageDepth:
        topts.postSelect = router::PostSelect::Depth;
        topts.trialAggression =
            router::mirageAggressionMix(opts.layoutTrials);
        break;
    }
    if (opts.fixedAggression >= 0) {
        topts.trialAggression = {
            router::Aggression(opts.fixedAggression)};
    }

    const auto route_start = std::chrono::steady_clock::now();
    router::RouteResult routed =
        router::routeWithTrials(consolidated, coupling, topts);
    result.routingMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - route_start)
            .count();

    result.routed = std::move(routed.routed);
    result.initial = routed.initial;
    result.final = routed.final;
    result.swapsAdded = routed.swapsAdded;
    result.mirrorsAccepted = routed.mirrorsAccepted;
    result.mirrorCandidates = routed.mirrorCandidates;
    result.routingCounters = routed.counters;
    result.metrics = computeMetrics(result.routed, cost_model);
    lowerResult(result, opts, cost_model, library);
    return result;
}

} // namespace mirage::mirage_pass
