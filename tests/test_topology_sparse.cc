/**
 * @file
 * Coupling-map queries against a reference BFS written here over the
 * edge list alone: `distance`, `distanceRow`, `isEdge` and
 * `shortestPath` on every registry topology (heavyhex1121 included) and
 * on randomized graphs, many of them disconnected. Also routing on
 * heavyhex433 at threads=1 and threads=4, bit-identical; the
 * concurrency label puts the shared distance table under the TSan job.
 * (The suite names date from when large devices had a second, sparse
 * storage mode.)
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bench_circuits/generators.hh"
#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "router/sabre.hh"
#include "topology/coupling.hh"

using namespace mirage;
using namespace mirage::topology;

namespace {

/** Adjacency lists rebuilt from cm.edges(), independent of its CSR. */
std::vector<std::vector<int>>
referenceAdjacency(const CouplingMap &cm)
{
    std::vector<std::vector<int>> adj(size_t(cm.numQubits()));
    for (auto [a, b] : cm.edges()) {
        adj[size_t(a)].push_back(b);
        adj[size_t(b)].push_back(a);
    }
    return adj;
}

/** Plain BFS hop counts from src; -1 where src cannot reach. */
std::vector<int>
referenceRow(const std::vector<std::vector<int>> &adj, int src)
{
    std::vector<int> ref(adj.size(), -1);
    ref[size_t(src)] = 0;
    std::vector<int> queue = {src};
    for (size_t head = 0; head < queue.size(); ++head) {
        const int u = queue[head];
        for (int v : adj[size_t(u)]) {
            if (ref[size_t(v)] < 0) {
                ref[size_t(v)] = ref[size_t(u)] + 1;
                queue.push_back(v);
            }
        }
    }
    return ref;
}

/**
 * Every query from each source in `sources` must match the reference.
 * shortestPath is checked to every `path_stride`-th target: a valid
 * path of reference length, or a throw across components.
 */
void
expectMatchesReference(const CouplingMap &cm, const std::vector<int> &sources,
                       int path_stride = 1)
{
    const auto adj = referenceAdjacency(cm);
    const int n = cm.numQubits();
    for (int a : sources) {
        const std::vector<int> ref = referenceRow(adj, a);
        std::vector<bool> neighbor(size_t(n), false);
        for (int v : adj[size_t(a)])
            neighbor[size_t(v)] = true;
        const int16_t *row = cm.distanceRow(a);
        for (int b = 0; b < n; ++b) {
            ASSERT_EQ(row[b], ref[size_t(b)])
                << cm.name() << " row " << a << " -> " << b;
            ASSERT_EQ(cm.distance(a, b), ref[size_t(b)])
                << cm.name() << " " << a << " -> " << b;
            ASSERT_EQ(cm.isEdge(a, b), neighbor[size_t(b)])
                << cm.name() << " " << a << "," << b;
            ASSERT_EQ(cm.sameComponent(a, b), ref[size_t(b)] >= 0)
                << cm.name() << " " << a << "," << b;
        }
        for (int b = a % path_stride; b < n; b += path_stride) {
            if (ref[size_t(b)] < 0) {
                EXPECT_THROW(cm.shortestPath(a, b), TopologyError);
                continue;
            }
            const std::vector<int> path = cm.shortestPath(a, b);
            ASSERT_EQ(int(path.size()) - 1, ref[size_t(b)])
                << cm.name() << " " << a << " -> " << b;
            EXPECT_EQ(path.front(), a);
            EXPECT_EQ(path.back(), b);
            for (size_t i = 0; i + 1 < path.size(); ++i)
                ASSERT_TRUE(cm.isEdge(path[i], path[i + 1]))
                    << cm.name() << " " << a << " -> " << b;
        }
    }
}

std::vector<int>
allQubits(const CouplingMap &cm)
{
    std::vector<int> qs(size_t(cm.numQubits()));
    for (int q = 0; q < cm.numQubits(); ++q)
        qs[size_t(q)] = q;
    return qs;
}

/** Random graph on n qubits; ~edge_frac of all pairs, deduplicated.
 * Not necessarily connected -- that's the point. */
CouplingMap
randomGraph(int n, double edge_frac, uint64_t seed)
{
    Rng rng(seed);
    std::set<std::pair<int, int>> picked;
    const int target = int(edge_frac * n * (n - 1) / 2);
    for (int i = 0; i < target; ++i) {
        int a = int(rng.index(uint64_t(n)));
        int b = int(rng.index(uint64_t(n)));
        if (a == b)
            continue;
        picked.insert({std::min(a, b), std::max(a, b)});
    }
    return CouplingMap(
        n, std::vector<std::pair<int, int>>(picked.begin(), picked.end()),
        "rand-" + std::to_string(seed));
}

} // namespace

TEST(SparseEquivalence, RegistryTopologies)
{
    for (const auto &cm :
         {CouplingMap::line(8), CouplingMap::ring(9), CouplingMap::grid(6, 6),
          CouplingMap::grid(4, 7), CouplingMap::heavyHex57(),
          CouplingMap::allToAll(6), CouplingMap::parseSpec("auto", 10)}) {
        expectMatchesReference(cm, allQubits(cm));
    }
}

TEST(SparseEquivalence, RandomizedGraphsIncludingDisconnected)
{
    // Property test over random graphs of varying density; sparse ones
    // are usually disconnected, so the -1 entries, the per-component
    // BFS stop and the shortestPath throw are exercised too.
    int disconnected = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const int n = 10 + int(seed) * 3;
        const double frac = seed % 2 ? 0.04 : 0.15;
        auto cm = randomGraph(n, frac, seed);
        disconnected += cm.isConnected() ? 0 : 1;
        expectMatchesReference(cm, allQubits(cm));
    }
    EXPECT_GT(disconnected, 0);
}

TEST(SparseEquivalence, LargeDeviceSpotCheckAgainstReferenceBfs)
{
    // Every row of the large lattices; shortest paths to a stride of
    // targets keeps the path walk to ~10^5 pairs per device.
    for (const auto &cm :
         {CouplingMap::heavyHex433(), CouplingMap::heavyHex1121(),
          CouplingMap::grid(33, 33)}) {
        expectMatchesReference(cm, allQubits(cm), 97);
    }
    // The densest device a spec can name: each BFS stops after the
    // source's own neighbor list, which already reaches every qubit.
    CouplingMap a2a = CouplingMap::parseSpec(
        "alltoall" + std::to_string(CouplingMap::kMaxSpecQubits), 1);
    expectMatchesReference(a2a, {0, 560, CouplingMap::kMaxSpecQubits - 1},
                           97);
}

TEST(SparseRouting, BitIdenticalToDenseAtAnyThreadCount)
{
    // The distance table is built once and read by every trial thread:
    // the same trial grid on heavyhex433 must route bit-identically at
    // threads=1 and threads=4 (the TSan job checks the reads are
    // race-free).
    auto circ = bench::qft(12, /*with_swaps=*/false);
    CouplingMap device = CouplingMap::heavyHex433();

    // Plain-SABRE trials (mirror decisions would need a cost model);
    // the distance hot path is identical either way.
    router::TrialOptions opts;
    opts.layoutTrials = 4;
    opts.swapTrials = 2;
    opts.threads = 1;

    auto serial = router::routeWithTrials(circ, device, opts);
    opts.threads = 4;
    auto parallel = router::routeWithTrials(circ, device, opts);

    EXPECT_GT(serial.swapsAdded, 0);
    EXPECT_TRUE(
        circuit::Circuit::bitIdentical(serial.routed, parallel.routed));
    EXPECT_TRUE(serial.counters == parallel.counters);
    EXPECT_EQ(serial.swapsAdded, parallel.swapsAdded);
}

TEST(SparseRouting, DisconnectedTopologyFailsFastAtRouteEntry)
{
    // Regression for the -1 sentinel: routing used to feed -1 distances
    // straight into the heuristic's integer score sums.
    auto circ = bench::ghz(4);
    CouplingMap split(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}}, "split-2x3");
    router::TrialOptions opts;
    opts.layoutTrials = 1;
    opts.swapTrials = 1;
    EXPECT_THROW(router::routeWithTrials(circ, split, opts), TopologyError);
    router::PassOptions pass;
    layout::Layout trivial(6);
    EXPECT_THROW(router::routePass(circ, split, trivial, pass),
                 TopologyError);
    // The diagnostic names the map and the component count.
    try {
        router::routeWithTrials(circ, split, opts);
        FAIL() << "expected TopologyError";
    } catch (const TopologyError &e) {
        EXPECT_NE(std::string(e.what()).find("split-2x3"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("disconnected"),
                  std::string::npos);
    }
}
