/**
 * @file
 * SABRE/MIRAGE routing engine: front-layer DAG walk, extended-set
 * lookahead scoring, SWAP selection, the mirror-gate intermediate layer
 * with aggression policies, and multi-trial post-selection.
 *
 * Hot-path design (the routing phase dominates transpile time, paper
 * Fig. 13): every scoring quantity is an exact integer distance sum,
 * combined into the floating-point heuristic by ONE shared expression
 * (combineHeuristic / combineOutlook). A per-pass scratch arena
 * (epoch-stamped `seen`, reusable front/extended/candidate buffers,
 * per-wire touch lists) makes the steady state allocation-free, and
 * swap candidates are scored incrementally: the base sums are built
 * once per stall step, and a candidate SWAP (pa, pb) only adjusts the
 * contributions of nodes touching pa or pb (ScoreMode::Delta). The
 * allocation-heavy full-rescan scorer survives as ScoreMode::Naive -- a
 * runtime test hook, not an #ifdef -- and produces bit-identical
 * results because both modes feed the same integer sums through the
 * same combiner. Since distances are small non-negative ints, the sums
 * are exact in any accumulation order, so Delta == Naive holds for
 * any extended-set weight; with kExtendedSetWeight = 0.5 (exactly
 * representable halves) the combined doubles also reproduce the
 * historical per-term accumulation bit for bit.
 */

#include "router/sabre.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "circuit/dag.hh"
#include "common/logging.hh"
#include "mirage/depth_metric.hh"
#include "weyl/catalog.hh"
#include "weyl/coordinates.hh"

namespace mirage::router {

using circuit::Circuit;
using circuit::DagCircuit;
using circuit::Gate;
using circuit::GateKind;
using layout::Layout;
using topology::CouplingMap;

namespace {

/** SABRE lookahead window: at most this many 2Q gates past the front. */
constexpr int kExtendedSetSize = 20;
/** Weight of the extended set's mean distance in the heuristic. */
constexpr double kExtendedSetWeight = 0.5;
/** Decay added to both wires of each SWAP; reset to 1 every
 * kDecayResetInterval SWAPs. */
constexpr double kDecayIncrement = 0.001;
constexpr int kDecayResetInterval = 5;

/**
 * One front/extended node's contribution pinned to a physical wire:
 * stored under both endpoints so a candidate SWAP (pa, pb) can find
 * every affected node by scanning just touch[pa] and touch[pb].
 */
struct TouchEntry
{
    int other;     ///< the node's other physical endpoint
    int dist;      ///< distance under the live layout
    bool in_front; ///< blocked-front node (else extended-set node)
};

/**
 * Exact integer distance sums over the blocked front (F) and extended
 * set (E). `fine*` are plain distance sums (the SABRE heuristic and
 * the mirror tiebreaker); `unit*` are future-SWAP sums max(0, d-1)
 * (the mirror outlook). Integers make the scores order-independent:
 * a delta-adjusted sum equals a full rescan exactly.
 */
struct ScoreSums
{
    long long fineFront = 0;
    long long fineExt = 0;
    long long unitFront = 0;
    long long unitExt = 0;
};

/**
 * SABRE heuristic H = 1/|F| sum_F d + W/|E| sum_E d. The single
 * combiner shared by both score modes: bit-identity of Delta vs Naive
 * reduces to equality of the integer sums.
 */
double
combineHeuristic(const ScoreSums &s, size_t nf, size_t ne, double w)
{
    double h = 0;
    if (nf)
        h += double(s.fineFront) / double(nf);
    if (ne)
        h += w * double(s.fineExt) / double(ne);
    return h;
}

/**
 * MIRAGE mirror outlook in future-SWAP units: each blocked gate needs
 * (distance - 1) SWAPs before it can execute, the lookahead window
 * contributes with the usual extended-set weight, and unlike the SABRE
 * selection heuristic this is deliberately NOT normalized by the set
 * sizes -- the mirror decision trades an absolute decomposition-cost
 * difference against an absolute number of saved SWAPs (paper Section
 * IV). The fine-grained tiebreaker (total lookahead distance, scaled
 * far below one SWAP unit) only resolves ties; without it the Equal
 * level accepts cost-neutral mirrors that merely randomize the
 * permutation, hurting CCX-heavy circuits.
 */
double
combineOutlook(const ScoreSums &s, size_t ne, double w)
{
    double units = double(s.unitFront) + w * double(s.unitExt);
    double fine = double(s.fineFront);
    if (ne)
        fine += w * double(s.fineExt) / double(ne);
    return units + 0.02 * fine;
}

/**
 * Reusable buffers for one routing pass (the per-trial scratch arena).
 * Everything here reaches a steady-state capacity after the first few
 * steps, after which extendedSet/blockedFront/candidate enumeration
 * and scoring allocate nothing. The `seen` array is epoch-stamped
 * instead of cleared: bumping `epoch` invalidates every mark in O(1).
 */
struct PassScratch
{
    std::vector<uint64_t> seen; ///< per-DAG-node visit epoch
    uint64_t epoch = 0;

    std::vector<int> ext;      ///< extended (lookahead) set
    std::vector<int> front2q;  ///< blocked front-layer 2Q nodes
    std::vector<int> walk;     ///< BFS worklist (index-driven)
    std::vector<std::pair<int, int>> candidates;
    std::vector<std::pair<int, int>> bestSwaps;

    std::vector<std::vector<TouchEntry>> touch; ///< per physical wire
    std::vector<int> touched; ///< wires with non-empty touch lists

    void
    prepare(size_t dag_size, size_t num_phys)
    {
        if (seen.size() < dag_size)
            seen.resize(dag_size, 0);
        if (touch.size() < num_phys)
            touch.resize(num_phys);
    }
};

/** Per-node mirror data: everything about a mirror decision that does
 * not depend on the layout, precomputed once per DAG and reused by
 * every pass of the trial grid. */
struct NodeMirror
{
    weyl::Coord mirrorCoord;      ///< mirrorCoord(gate coords)
    double gateCost = 0;          ///< costModel->costOf(coords)
    double mirrorCost = 0;        ///< costModel->costOf(mirror coords)
    linalg::Mat4 mirroredMatrix;  ///< SWAP * U (the emitted unitary)
};

/**
 * Immutable routing plan for one DAG direction: compact per-node
 * arrays (the hot loops touch these instead of chasing Gate objects
 * through DagNode), plus the mirror table when the pass may mirror.
 * Built once per routeWithTrials direction and shared read-only across
 * the whole trial grid; routePass builds a private one.
 */
struct RoutePlan
{
    const DagCircuit *dag = nullptr;
    std::vector<uint8_t> oneQ;                ///< per node: 1Q gate
    std::vector<uint8_t> twoQ;                ///< per node: 2Q gate
    std::vector<std::array<int, 2>> wires;    ///< logical operands
    std::vector<NodeMirror> mirror;           ///< empty unless mirroring
};

RoutePlan
makePlan(const DagCircuit &dag, const monodromy::CostModel *cost_model,
         bool with_mirrors)
{
    RoutePlan plan;
    plan.dag = &dag;
    const size_t n = dag.size();
    plan.oneQ.resize(n);
    plan.twoQ.resize(n);
    plan.wires.assign(n, {0, 0});
    if (with_mirrors) {
        MIRAGE_ASSERT(cost_model, "mirror decisions need a cost model");
        plan.mirror.resize(n);
    }
    for (const auto &node : dag.nodes()) {
        const Gate &g = node.gate;
        const size_t id = size_t(node.id);
        MIRAGE_ASSERT(g.isOneQubit() || g.isTwoQubit(),
                      "router requires 1Q/2Q gates (unroll 3Q first)");
        plan.oneQ[id] = g.isOneQubit();
        plan.twoQ[id] = g.isTwoQubit();
        plan.wires[id][0] = g.qubits[0];
        if (g.isTwoQubit())
            plan.wires[id][1] = g.qubits[1];
        if (with_mirrors && g.isTwoQubit()) {
            // Same values considerMirror/execute historically computed
            // per consideration, hoisted to once per node: the Weyl
            // coordinates, both decomposition costs, and the mirrored
            // unitary SWAP * U (paper Eq. 1 -- no eigensolver call).
            weyl::Coord c = g.coords.has_value()
                                ? *g.coords
                                : weyl::weylCoordinates(g.matrix4());
            NodeMirror &m = plan.mirror[id];
            m.mirrorCoord = weyl::mirrorCoord(c);
            m.gateCost = cost_model->costOf(c);
            m.mirrorCost = cost_model->costOf(m.mirrorCoord);
            m.mirroredMatrix = weyl::gateSWAP() * g.matrix4();
        }
    }
    return plan;
}

/** Mutable routing state for one pass. */
struct PassState
{
    const DagCircuit *dag;
    const RoutePlan *plan;
    const CouplingMap *coupling;
    const PassOptions *opts;
    PassScratch *scratch;
    Rng rng;

    Layout layout;
    std::vector<int> indegree;
    std::vector<int> front;      // dependency-free, unexecuted nodes
    std::vector<double> decay;   // per physical qubit
    int swaps_since_reset = 0;

    // The extended set depends only on the front layer and the DAG --
    // never on the layout -- so consecutive stall steps (which only
    // swap wires) reuse the cached set. Any front mutation bumps
    // front_version; ext_version records which front the cached set
    // was built from (0 = invalid; versions start at 1).
    uint64_t front_version = 1;
    uint64_t ext_version = 0;

    Circuit out;
    int swaps_added = 0;
    int mirrors_accepted = 0;
    int mirror_candidates = 0;
    RoutingCounters counters;

    explicit PassState(const RoutePlan &p, const CouplingMap &c,
                       const Layout &init, const PassOptions &o,
                       PassScratch &s)
        : dag(p.dag), plan(&p), coupling(&c), opts(&o), scratch(&s),
          rng(o.seed), layout(init), indegree(p.dag->size(), 0),
          decay(size_t(c.numQubits()), 1.0),
          out(c.numQubits(), "routed")
    {
        scratch->prepare(dag->size(), size_t(c.numQubits()));
        for (const auto &node : dag->nodes())
            indegree[size_t(node.id)] = int(node.preds.size());
        for (int id : dag->roots())
            front.push_back(id);
    }

    void
    resetDecay()
    {
        std::fill(decay.begin(), decay.end(), 1.0);
        swaps_since_reset = 0;
    }

    /** Move a completed node's successors into the front layer. */
    void
    advance(int id)
    {
        for (int s : dag->node(id).succs) {
            if (--indegree[size_t(s)] == 0)
                front.push_back(s);
        }
        ++front_version;
    }

    /**
     * Collect the lookahead window into scratch->ext: the next 2Q gates
     * after the front, breadth-first over the successor closure, capped
     * at kExtendedSetSize. With skip_node >= 0 the BFS seeds the front
     * minus that node first and the node last (the mirror decision's
     * view); those builds bypass the stall-step cache.
     */
    void
    buildExtendedSet(int skip_node = -1)
    {
        ++counters.extSetBuilds;
        auto &ext = scratch->ext;
        auto &walk = scratch->walk;
        ext.clear();
        walk.clear();
        for (int id : front) {
            if (id != skip_node)
                walk.push_back(id);
        }
        if (skip_node >= 0)
            walk.push_back(skip_node);
        const uint64_t epoch = ++scratch->epoch;
        auto &seen = scratch->seen;
        for (int id : walk)
            seen[size_t(id)] = epoch;
        // Walk the successor closure breadth-first collecting 2Q gates
        // that are not already in the front.
        size_t head = 0;
        while (head < walk.size() &&
               int(ext.size()) < kExtendedSetSize) {
            int id = walk[head++];
            for (int s : dag->node(id).succs) {
                if (seen[size_t(s)] == epoch)
                    continue;
                seen[size_t(s)] = epoch;
                if (plan->twoQ[size_t(s)]) {
                    ext.push_back(s);
                    if (int(ext.size()) >= kExtendedSetSize)
                        break;
                }
                walk.push_back(s);
            }
        }
        ext_version = skip_node < 0 ? front_version : 0;
    }

    /** Stall-step extended set, rebuilt only when the front changed. */
    void
    ensureExtendedSet()
    {
        if (ext_version == front_version) {
            ++counters.extSetReuses;
            return;
        }
        buildExtendedSet();
    }

    /** Distance of a 2Q node's wires under the live layout. */
    int
    nodeDistance(int id) const
    {
        const auto &w = plan->wires[size_t(id)];
        return coupling->distance(layout.toPhysical(w[0]),
                                  layout.toPhysical(w[1]));
    }

    /** Front-layer 2Q nodes that are not yet executable. */
    void
    buildBlockedFront()
    {
        auto &blocked = scratch->front2q;
        blocked.clear();
        for (int id : front) {
            if (!plan->twoQ[size_t(id)])
                continue;
            const auto &w = plan->wires[size_t(id)];
            if (!coupling->isEdge(layout.toPhysical(w[0]),
                                  layout.toPhysical(w[1])))
                blocked.push_back(id);
        }
    }

    // --- scoring ----------------------------------------------------------

    void
    clearTouch()
    {
        for (int p : scratch->touched)
            scratch->touch[size_t(p)].clear();
        scratch->touched.clear();
    }

    void
    pushTouch(int p, const TouchEntry &e)
    {
        auto &list = scratch->touch[size_t(p)];
        if (list.empty())
            scratch->touched.push_back(p);
        list.push_back(e);
    }

    static void
    accumulate(ScoreSums &s, int d, bool in_front)
    {
        if (in_front) {
            s.fineFront += d;
            s.unitFront += std::max(0, d - 1);
        } else {
            s.fineExt += d;
            s.unitExt += std::max(0, d - 1);
        }
    }

    /**
     * Build the per-step base: distances of every blocked-front and
     * extended-set node under the live layout, registered on both
     * physical endpoints so candidate deltas touch only the two swapped
     * wires. O(|F| + |E|) once per step.
     */
    ScoreSums
    buildBaseSums()
    {
        clearTouch();
        ScoreSums s;
        for (int pass = 0; pass < 2; ++pass) {
            const bool in_front = pass == 0;
            const auto &nodes =
                in_front ? scratch->front2q : scratch->ext;
            for (int id : nodes) {
                const auto &w = plan->wires[size_t(id)];
                int qa = layout.toPhysical(w[0]);
                int qb = layout.toPhysical(w[1]);
                int d = coupling->distance(qa, qb);
                accumulate(s, d, in_front);
                pushTouch(qa, {qb, d, in_front});
                pushTouch(qb, {qa, d, in_front});
            }
        }
        return s;
    }

    static void
    applyDelta(ScoreSums &s, const TouchEntry &e, int nd)
    {
        int dfine = nd - e.dist;
        int dunit = std::max(0, nd - 1) - std::max(0, e.dist - 1);
        if (e.in_front) {
            s.fineFront += dfine;
            s.unitFront += dunit;
        } else {
            s.fineExt += dfine;
            s.unitExt += dunit;
        }
    }

    /**
     * Score sums under the hypothetical layout with pa/pb swapped, by
     * adjusting only the nodes whose wires move. A node with BOTH
     * endpoints in {pa, pb} keeps its distance (the pair is preserved),
     * so its double-registration is skipped on both lists. O(degree of
     * the step's active wires) instead of O(|F| + |E|) per candidate.
     */
    ScoreSums
    deltaSums(const ScoreSums &base, int pa, int pb) const
    {
        ScoreSums s = base;
        const int16_t *row_pb = coupling->distanceRow(pb);
        for (const TouchEntry &e : scratch->touch[size_t(pa)]) {
            if (e.other != pb)
                applyDelta(s, e, row_pb[e.other]);
        }
        const int16_t *row_pa = coupling->distanceRow(pa);
        for (const TouchEntry &e : scratch->touch[size_t(pb)]) {
            if (e.other != pa)
                applyDelta(s, e, row_pa[e.other]);
        }
        return s;
    }

    /**
     * Reference scorer (ScoreMode::Naive): rescan every front/extended
     * node under the hypothetical layout, applied to the live layout
     * via ScopedSwap (apply/undo) rather than the historical O(n)
     * Layout copy. Produces the same integer sums as deltaSums by
     * construction; the scoring-equivalence tests compare the two over
     * the full Table III suite.
     */
    ScoreSums
    rescanSums(int swap_a = -1, int swap_b = -1)
    {
        std::optional<layout::ScopedSwap> guard;
        if (swap_a >= 0)
            guard.emplace(layout, swap_a, swap_b);
        ScoreSums s;
        for (int id : scratch->front2q)
            accumulate(s, nodeDistance(id), true);
        for (int id : scratch->ext)
            accumulate(s, nodeDistance(id), false);
        return s;
    }

    /**
     * MIRAGE intermediate layer: decide whether to replace an executable
     * gate by its mirror (paper Algorithm 2). Returns true when the
     * mirror was accepted (the layout permutation is applied here).
     */
    bool
    considerMirror(int id)
    {
        if (opts->aggression == Aggression::None)
            return false;
        MIRAGE_ASSERT(opts->costModel, "mirror decisions need a cost model");
        const NodeMirror &mi = plan->mirror[size_t(id)];
        ++mirror_candidates;
        ++counters.mirrorOutlooks;
        counters.heuristicEvals += 2;

        const auto &wires = plan->wires[size_t(id)];
        int pa = layout.toPhysical(wires[0]);
        int pb = layout.toPhysical(wires[1]);

        buildBlockedFront();
        buildExtendedSet(id);

        ScoreSums now_sums, mirror_sums;
        if (opts->scoreMode == ScoreMode::Delta) {
            now_sums = buildBaseSums();
            mirror_sums = deltaSums(now_sums, pa, pb);
        } else {
            now_sums = rescanSums();
            mirror_sums = rescanSums(pa, pb);
        }
        const size_t ne = scratch->ext.size();
        const double w = kExtendedSetWeight;
        double h_now = combineOutlook(now_sums, ne, w);
        double h_mirror = combineOutlook(mirror_sums, ne, w);

        double swap_cost = opts->costModel->swapCost();
        double cost_current = mi.gateCost + swap_cost * h_now;
        double cost_trial = mi.mirrorCost + swap_cost * h_mirror;

        bool accept = false;
        switch (opts->aggression) {
          case Aggression::None:
            break;
          case Aggression::Lower:
            accept = cost_trial < cost_current - 1e-12;
            break;
          case Aggression::Equal:
            accept = cost_trial <= cost_current + 1e-12;
            break;
          case Aggression::Always:
            accept = true;
            break;
        }
        if (accept)
            layout.swapPhysical(pa, pb);
        return accept;
    }

    /**
     * Emit an executable node onto physical wires. Returns true when
     * the layout changed (a mirror was accepted) -- the flush loop only
     * needs to rescan earlier front nodes in that case, because a 2Q
     * node's executability is a function of the layout alone.
     */
    bool
    execute(int id)
    {
        const Gate &g = dag->node(id).gate;
        if (plan->oneQ[size_t(id)]) {
            Gate phys = g;
            phys.qubits = {layout.toPhysical(g.qubits[0])};
            out.append(std::move(phys));
            advance(id);
            return false;
        }

        int pa = layout.toPhysical(g.qubits[0]);
        int pb = layout.toPhysical(g.qubits[1]);
        bool mirrored = considerMirror(id);

        Gate phys;
        if (mirrored) {
            // U' = SWAP * U with the mirror coordinate annotated via
            // Eq. 1 -- no eigensolver call (paper Section VI-C); both
            // were precomputed into the plan's mirror table.
            const NodeMirror &mi = plan->mirror[size_t(id)];
            phys = circuit::makeUnitary2(pa, pb, mi.mirroredMatrix);
            phys.mirrored = true;
            phys.coords = mi.mirrorCoord;
            ++mirrors_accepted;
        } else {
            phys = g;
            phys.qubits = {pa, pb};
        }
        out.append(std::move(phys));
        resetDecay();
        advance(id);
        return mirrored;
    }

    /** Stalled front: enumerate, score, and apply the best SWAP. */
    void
    stallStep()
    {
        // The stall step is the unit of routing progress: checking here
        // bounds overshoot past an expired deadline to one swap
        // decision, and no shared state is mid-mutation at this point.
        opts->deadline.check("route.stall");
        buildBlockedFront();
        MIRAGE_ASSERT(!scratch->front2q.empty(),
                      "stall without blocked gates");
        ensureExtendedSet();
        ++counters.stallSteps;

        auto &candidates = scratch->candidates;
        candidates.clear();
        for (int id : scratch->front2q) {
            for (int lq : plan->wires[size_t(id)]) {
                int p = layout.toPhysical(lq);
                for (int nb : coupling->neighbors(p)) {
                    int a = std::min(p, nb), b = std::max(p, nb);
                    candidates.emplace_back(a, b);
                }
            }
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(
            std::unique(candidates.begin(), candidates.end()),
            candidates.end());
        counters.swapCandidates += candidates.size();

        const bool use_delta = opts->scoreMode == ScoreMode::Delta;
        const size_t nf = scratch->front2q.size();
        const size_t ne = scratch->ext.size();
        const double w = kExtendedSetWeight;
        ScoreSums base;
        if (use_delta)
            base = buildBaseSums();

        double best = std::numeric_limits<double>::infinity();
        auto &best_swaps = scratch->bestSwaps;
        best_swaps.clear();
        for (auto [pa, pb] : candidates) {
            ++counters.heuristicEvals;
            ScoreSums s = use_delta ? deltaSums(base, pa, pb)
                                    : rescanSums(pa, pb);
            double h = combineHeuristic(s, nf, ne, w);
            h *= std::max(decay[size_t(pa)], decay[size_t(pb)]);
            if (h < best - 1e-12) {
                best = h;
                best_swaps.clear();
                best_swaps.emplace_back(pa, pb);
            } else if (h <= best + 1e-12) {
                best_swaps.emplace_back(pa, pb);
            }
        }
        auto [pa, pb] = best_swaps[rng.index(best_swaps.size())];

        Gate sw = circuit::makeGate2(GateKind::SWAP, pa, pb);
        sw.coords = weyl::coordSWAP();
        out.append(std::move(sw));
        layout.swapPhysical(pa, pb);
        ++swaps_added;
        decay[size_t(pa)] += kDecayIncrement;
        decay[size_t(pb)] += kDecayIncrement;
        if (++swaps_since_reset >= kDecayResetInterval)
            resetDecay();
    }

    /** Run the pass to completion. */
    void
    run()
    {
        while (!front.empty()) {
            // Flush everything executable. A single in-order sweep
            // emits the same gate sequence as the historical
            // restart-from-zero scan: blocked 2Q nodes can only become
            // executable when the layout changes (an accepted mirror),
            // so that is the one case that rescans the earlier front.
            bool progress = true;
            while (progress) {
                progress = false;
                for (size_t i = 0; i < front.size();) {
                    int id = front[i];
                    const auto &w = plan->wires[size_t(id)];
                    bool executable =
                        plan->oneQ[size_t(id)] ||
                        coupling->isEdge(layout.toPhysical(w[0]),
                                         layout.toPhysical(w[1]));
                    if (executable) {
                        front.erase(front.begin() + long(i));
                        ++front_version;
                        bool layout_changed = execute(id);
                        progress = true;
                        if (layout_changed)
                            i = 0;
                        // else: the erase shifted the next node into
                        // slot i; earlier nodes are still blocked.
                    } else {
                        ++i;
                    }
                }
            }
            if (front.empty())
                break;
            stallStep();
        }
    }
};

/**
 * Lift the logical circuit onto the padded wire count so the DAG and
 * the layout agree. One DAG serves every pass over the same circuit:
 * routeWithTrials builds the forward/backward DAGs once and shares them
 * read-only across the whole trial grid instead of re-copying every
 * gate (4x4 matrices included) per pass.
 *
 * With annotate_coords set, 2Q gates missing Weyl coordinates get them
 * stamped here (the same deterministic weylCoordinates value every
 * later consumer would compute), so the routed output carries coords
 * and per-pass metric computation never re-runs the eigensolver.
 */
/**
 * Route-entry fail-fast: on a disconnected device, distance() returns
 * the -1 sentinel for cross-component pairs, which would otherwise flow
 * silently into the heuristic's integer score sums and corrupt every
 * SWAP decision. Refuse up front with a diagnostic instead.
 */
void
requireRoutableTopology(const CouplingMap &coupling)
{
    if (coupling.numQubits() <= 0)
        throw topology::TopologyError(
            "cannot route on empty coupling map '" + coupling.name() + "'");
    if (coupling.numComponents() != 1)
        throw topology::TopologyError(
            "cannot route on disconnected coupling map '" + coupling.name() +
            "': " + std::to_string(coupling.numQubits()) + " qubits in " +
            std::to_string(coupling.numComponents()) +
            " connected components; SABRE/MIRAGE distance sums are "
            "undefined across components (distance() == -1)");
}

DagCircuit
liftToDag(const Circuit &circuit, const CouplingMap &coupling,
          bool annotate_coords)
{
    MIRAGE_ASSERT(circuit.numQubits() <= coupling.numQubits(),
                  "circuit does not fit the device (%d > %d)",
                  circuit.numQubits(), coupling.numQubits());
    Circuit lifted(coupling.numQubits(), circuit.name());
    for (const auto &g : circuit.gates())
        lifted.append(g);
    if (annotate_coords) {
        for (auto &g : lifted.gates()) {
            if (g.isTwoQubit())
                g.annotateCoords();
        }
    }
    return DagCircuit(lifted);
}

RouteResult
routePassOnPlan(const RoutePlan &plan, const CouplingMap &coupling,
                const Layout &initial, const PassOptions &opts,
                PassScratch &scratch)
{
    MIRAGE_ASSERT(initial.size() == coupling.numQubits(),
                  "layout size mismatch");

    PassState state(plan, coupling, initial, opts, scratch);
    state.run();

    RouteResult res;
    res.routed = std::move(state.out);
    res.initial = initial;
    res.final = state.layout;
    res.swapsAdded = state.swaps_added;
    res.mirrorsAccepted = state.mirrors_accepted;
    res.mirrorCandidates = state.mirror_candidates;
    res.counters = state.counters;
    if (opts.costModel && opts.estimateMetrics) {
        auto metrics =
            mirage_pass::computeMetrics(res.routed, *opts.costModel);
        res.estDepth = metrics.depth;
        res.estTotalCost = metrics.totalCost;
    }
    return res;
}

} // namespace

RouteResult
routePass(const Circuit &circuit, const CouplingMap &coupling,
          const Layout &initial, const PassOptions &opts)
{
    requireRoutableTopology(coupling);
    PassScratch scratch;
    DagCircuit dag =
        liftToDag(circuit, coupling, opts.costModel != nullptr);
    RoutePlan plan = makePlan(dag, opts.costModel,
                              opts.aggression != Aggression::None);
    return routePassOnPlan(plan, coupling, initial, opts, scratch);
}

std::vector<Aggression>
mirageAggressionMix(int trials)
{
    // 5% level 0, 45% level 1, 45% level 2, 5% level 3 (Section IV-C).
    // The edge levels are guaranteed one slot each whenever there are
    // enough trials: level 0 keeps a plain-SABRE fallback in the pool for
    // mirror-hostile circuits, level 3 explores the always-mirror
    // extreme; depth post-selection then keeps the best of all worlds.
    std::vector<Aggression> mix;
    for (int i = 0; i < trials; ++i) {
        double f = (i + 0.5) / trials;
        if (f < 0.05)
            mix.push_back(Aggression::None);
        else if (f < 0.50)
            mix.push_back(Aggression::Lower);
        else if (f < 0.95)
            mix.push_back(Aggression::Equal);
        else
            mix.push_back(Aggression::Always);
    }
    if (trials >= 4) {
        if (std::find(mix.begin(), mix.end(), Aggression::None) ==
            mix.end())
            mix.front() = Aggression::None;
        if (std::find(mix.begin(), mix.end(), Aggression::Always) ==
            mix.end())
            mix.back() = Aggression::Always;
    }
    return mix;
}

namespace {

/**
 * Per-trial RNG stream layout (counters within stream (seed, trial)):
 * counter 0 seeds the random initial layout, counters 1..2P seed the P
 * forward/backward refinement passes, and counter 2P+1+st seeds swap
 * trial st. Every value is a pure function of (seed, trial, counter),
 * so a trial computes identical results on any thread.
 */
enum : uint64_t { kLayoutCounter = 0, kRefineBase = 1 };

PassOptions
passForTrial(const TrialOptions &opts, int trial)
{
    PassOptions pass = opts.pass;
    if (!opts.trialAggression.empty())
        pass.aggression = opts.trialAggression[size_t(trial) %
                                               opts.trialAggression.size()];
    return pass;
}

} // namespace

RouteResult
routeWithTrials(const Circuit &circuit, const CouplingMap &coupling,
                const TrialOptions &opts)
{
    requireRoutableTopology(coupling);
    MIRAGE_ASSERT(opts.layoutTrials > 0 && opts.swapTrials > 0,
                  "need at least one layout and one swap trial");
    if (opts.postSelect == PostSelect::Depth) {
        MIRAGE_ASSERT(opts.pass.costModel,
                      "depth post-selection needs a cost model");
    }
    // Both walk directions are lifted, DAG-ified, and planned exactly
    // once (compact node arrays + per-node mirror costs/matrices);
    // every pass of every trial reads the same immutable plans.
    bool with_mirrors =
        opts.trialAggression.empty()
            ? opts.pass.aggression != Aggression::None
            : std::any_of(opts.trialAggression.begin(),
                          opts.trialAggression.end(),
                          [](Aggression a) {
                              return a != Aggression::None;
                          });
    const bool annotate = opts.pass.costModel != nullptr;
    const DagCircuit fwd_dag = liftToDag(circuit, coupling, annotate);
    const DagCircuit bwd_dag =
        liftToDag(circuit.reversed(), coupling, annotate);
    const RoutePlan fwd_plan =
        makePlan(fwd_dag, opts.pass.costModel, with_mirrors);
    const RoutePlan bwd_plan =
        makePlan(bwd_dag, opts.pass.costModel, with_mirrors);

    // Null pool = pure serial fast path; otherwise use the caller's
    // pool or spin up a local one.
    std::optional<exec::ThreadPool> local_pool;
    exec::ThreadPool *pool = opts.pool;
    if (!pool && opts.threads != 1) {
        local_pool.emplace(opts.threads);
        pool = &*local_pool;
    }

    const int trials = opts.layoutTrials;
    const int swap_trials = opts.swapTrials;
    const uint64_t swap_base =
        kRefineBase + 2 * uint64_t(opts.forwardBackwardPasses);

    // Stage 1: independent layout trials with fwd/bwd refinement. Each
    // trial owns one scratch arena shared by all of its passes.
    std::vector<Layout> refined(static_cast<size_t>(trials));
    std::vector<RoutingCounters> refine_counters(
        static_cast<size_t>(trials));
    exec::parallelFor(pool, trials, [&](int64_t t) {
        StreamRng stream(opts.seed, uint64_t(t));
        PassOptions pass = passForTrial(opts, int(t));
        // Refinement passes only feed their final layout forward; skip
        // the estimate walk nobody reads.
        pass.estimateMetrics = false;
        Rng layout_rng(stream.at(kLayoutCounter));
        Layout layout = Layout::random(coupling.numQubits(), layout_rng);
        PassScratch scratch;
        RoutingCounters &counters = refine_counters[size_t(t)];
        for (int iter = 0; iter < opts.forwardBackwardPasses; ++iter) {
            pass.seed = stream.at(kRefineBase + 2 * uint64_t(iter));
            RouteResult fwd = routePassOnPlan(fwd_plan, coupling, layout,
                                              pass, scratch);
            pass.seed = stream.at(kRefineBase + 2 * uint64_t(iter) + 1);
            RouteResult bwd = routePassOnPlan(bwd_plan, coupling,
                                              fwd.final, pass, scratch);
            layout = bwd.final;
            counters.add(fwd.counters);
            counters.add(bwd.counters);
        }
        refined[size_t(t)] = layout;
    });

    // Stage 2: the flattened layoutTrials x swapTrials grid of final
    // forward routes, reduced streamingly to the lexicographic
    // (metric, grid-index) minimum. Taking the lowest index among equal
    // metrics reproduces the serial strictly-lower-wins loop exactly,
    // independent of completion order, while keeping only the running
    // best result live instead of the whole grid.
    const int64_t grid = int64_t(trials) * int64_t(swap_trials);
    std::vector<RoutingCounters> grid_counters(static_cast<size_t>(grid));
    std::optional<RouteResult> best;
    double best_metric = std::numeric_limits<double>::infinity();
    int64_t best_idx = grid;
    std::mutex best_mutex;
    exec::parallelFor(pool, grid, [&](int64_t i) {
        int t = int(i / swap_trials);
        int st = int(i % swap_trials);
        PassOptions pass = passForTrial(opts, t);
        pass.seed = StreamRng(opts.seed, uint64_t(t))
                        .at(swap_base + uint64_t(st));
        PassScratch scratch;
        RouteResult res = routePassOnPlan(
            fwd_plan, coupling, refined[size_t(t)], pass, scratch);
        grid_counters[size_t(i)] = res.counters;
        double metric = opts.postSelect == PostSelect::Swaps
                            ? double(res.swapsAdded)
                            : res.estDepth;
        std::lock_guard<std::mutex> lock(best_mutex);
        if (metric < best_metric ||
            (metric == best_metric && i < best_idx)) {
            best_metric = metric;
            best_idx = i;
            best = std::move(res);
        }
    });
    MIRAGE_ASSERT(best.has_value(), "no routing trial succeeded");

    // Report the routing-phase work of the WHOLE grid (refinement +
    // swap trials), summed in index order so the total is identical
    // for every thread count.
    RoutingCounters total;
    for (const auto &c : refine_counters)
        total.add(c);
    for (const auto &c : grid_counters)
        total.add(c);
    best->counters = total;
    return std::move(*best);
}

} // namespace mirage::router
