/**
 * @file
 * The benchmark's own tests: every output check passes on a real output
 * and fails on a corrupted copy of it (a dropped SWAP, a wrong qubit on
 * one gate, a missing lowered block), and the simulator's gate table
 * agrees with the transpiler's cost model on known gates.
 */

#include <cmath>
#include <cstdio>

#include "checks.hh"
#include "circuit/qasm.hh"
#include "decomp/equivalence.hh"
#include "inproc.hh"
#include "mirage/pipeline.hh"
#include "topology/coupling.hh"

namespace perfbench {

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

/** A 5-qubit mirror circuit with an X twist on qubits 0 and 3. */
const char *kMirror = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
x q[0];
x q[3];
h q[1];
cx q[1],q[4];
u3(0.3,0.2,0.1) q[4];
cx q[0],q[2];
cx q[4],q[3];
ry(0.7) q[2];
cx q[2],q[1];
cx q[3],q[0];
cx q[3],q[0];
cx q[2],q[1];
ry(-0.7) q[2];
cx q[4],q[3];
cx q[0],q[2];
u3(-0.3,-0.1,-0.2) q[4];
cx q[1],q[4];
h q[1];
)";

int
firstIndexOf(const std::vector<Op> &ops, const std::string &name)
{
    for (size_t i = 0; i < ops.size(); ++i)
        if (ops[i].name == name)
            return int(i);
    return -1;
}

} // namespace

int
runSelftest()
{
    namespace mp = mirage::mirage_pass;
    using mirage::topology::CouplingMap;

    expect(checkCostModelK().empty(),
           "cost model k: swap 3, cx 2, iswap 2, sqrt-iswap 1, id 0, "
           "mirror(swap) 0 " + checkCostModelK());

    const QasmCircuit logical = parseQasm(kMirror);
    const BasisOutcome want = basisOutcome(logical.qubits, logical.ops);
    expect(want.probability > 1 - 1e-9 && want.weight == 2,
           "mirror input ends in a weight-2 basis state");

    // Routed with the SWAP-count baseline so SWAPs stay explicit.
    const auto input = mirage::circuit::fromQasm(kMirror);
    const CouplingMap line = CouplingMap::line(5);
    mp::TranspileOptions opts;
    opts.flow = mp::Flow::SabreBaseline;
    opts.tryVf2 = false;
    opts.lowerToBasis = true;
    const auto r = mp::transpile(input, line, opts);
    const std::vector<Op> routed = opsOf(r.routed);
    const auto edges = edgeSet(line.edges());
    const auto l2p0 = r.initial.logicalToPhysical();
    const auto l2p1 = r.final.logicalToPhysical();
    auto fidelity = [&](const std::vector<Op> &ops) {
        return layoutFidelity(opsOf(input), 5, ops, 5, l2p0, l2p1, 11);
    };
    auto qasm_ok = [&](const std::vector<Op> &ops) {
        const BasisOutcome o = basisOutcome(5, ops);
        return o.probability > 1 - 1e-6 && o.weight == want.weight;
    };

    expect(edgeViolations(routed, edges) == 0, "routed: gates on edges");
    expect(fidelity(routed) > 1 - 1e-6, "routed: equivalent under layouts");
    const QasmCircuit text = parseQasm(mirage::circuit::toQasm(r.routed));
    expect(qasm_ok(text.ops), "routed QASM: basis state of weight 2");

    // A dropped SWAP.
    const int swap_at = firstIndexOf(routed, "swap");
    expect(swap_at >= 0, "routed circuit has a SWAP to drop");
    if (swap_at >= 0) {
        auto dropped = routed;
        dropped.erase(dropped.begin() + swap_at);
        expect(fidelity(dropped) < 0.999, "dropped SWAP fails equivalence");
        // The weight check is layout-blind: a SWAP whose only effect is a
        // relabelling, or that meets qubits still in basis states, cannot
        // show. It must still catch dropped SWAPs that later gates use.
        int dependent = 0, caught = 0;
        for (size_t i = 0; i < text.ops.size(); ++i) {
            if (text.ops[i].name != "swap")
                continue;
            bool later = false;
            for (size_t j = i + 1; j < text.ops.size() && !later; ++j)
                for (int q : text.ops[j].q)
                    later |= text.ops[j].q.size() == 2 &&
                             (q == text.ops[i].q[0] || q == text.ops[i].q[1]);
            if (!later)
                continue;
            auto dropped_text = text.ops;
            dropped_text.erase(dropped_text.begin() + long(i));
            ++dependent;
            caught += !qasm_ok(dropped_text);
        }
        expect(caught > 0,
               "dropped SWAPs that later gates use fail the mirror "
               "basis-state check (" + std::to_string(caught) + "/" +
                   std::to_string(dependent) + ")");
    }

    // A wrong qubit on one two-qubit gate.
    int two_q = -1;
    for (size_t i = 0; i < routed.size() && two_q < 0; ++i)
        if (routed[i].q.size() == 2)
            two_q = int(i);
    {
        auto moved = routed;
        Op &g = moved[size_t(two_q)];
        g.q[1] = (g.q[0] + 2) % 5; // never a line neighbour
        expect(edgeViolations(moved, edges) == 1,
               "wrong qubit fails the device-edge check");
        expect(fidelity(moved) < 0.999, "wrong qubit fails equivalence");
    }

    // A missing lowered block.
    const std::vector<Op> lowered = opsOf(r.lowered);
    const Pulses p = countPulses(5, lowered);
    expect(p.total == int(std::lround(r.metrics.totalPulses)) &&
               p.depth == int(std::lround(r.metrics.depthPulses)),
           "lowered: measured pulses equal estimated pulses");
    expect(sameQubitFidelity(routed, lowered, 5, 5) > 1 - 1e-5,
           "lowered: equivalent to routed");
    {
        // Drop the first block's pulses (every RootISWAP on its pair
        // before another pair is touched).
        auto missing = lowered;
        const int at = firstIndexOf(missing, "riswap");
        const std::vector<int> pair = missing[size_t(at)].q;
        for (size_t i = size_t(at); i < missing.size();) {
            if (missing[i].q.size() != 2)
                ++i;
            else if (missing[i].q == pair)
                missing.erase(missing.begin() + long(i));
            else
                break;
        }
        const Pulses mp_ = countPulses(5, missing);
        expect(mp_.total != p.total,
               "missing lowered block fails the pulse check");
        expect(sameQubitFidelity(routed, missing, 5, 5) < 0.999,
               "missing lowered block fails equivalence");
    }

    std::printf("%s\n", failures ? "SELFTEST FAILED" : "SELFTEST PASSED");
    return failures ? 1 : 0;
}

} // namespace perfbench
