/**
 * @file
 * Output checks made apart from the transpiler: device-edge placement,
 * state-vector equivalence under layouts, the mirror-circuit basis-state
 * outcome, and pulse counts, all on the benchmark's own simulator.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hh"
#include "qsim.hh"

namespace perfbench {

/** Ops of a transpiler circuit, with matrices from qsim's own gate table
 * (explicit block matrices are taken as output data). */
std::vector<Op> opsOf(const mirage::circuit::Circuit &c);

using EdgeSet = std::set<std::pair<int, int>>;
EdgeSet edgeSet(const std::vector<std::pair<int, int>> &edges);

/** Two-qubit ops whose qubits are not a device edge. */
int edgeViolations(const std::vector<Op> &ops, const EdgeSet &edges);

/**
 * |<expected|actual>| where `expected` runs `input` (n logical qubits)
 * on a seeded random product state and maps the result through `final`,
 * and `actual` runs `routed` (physical) from the same product state
 * placed through `initial`. 1 means equivalent up to global phase.
 */
double layoutFidelity(const std::vector<Op> &input, int n,
                      const std::vector<Op> &routed, int physical,
                      const std::vector<int> &initial,
                      const std::vector<int> &final, uint64_t seed);

/** |<a|b>| for two physical circuits run from one random product state
 * over the qubits either touches. */
double sameQubitFidelity(const std::vector<Op> &a, const std::vector<Op> &b,
                         int physical, uint64_t seed);

/** Outcome of a circuit run from |0...0>: the most likely basis state's
 * probability and Hamming weight. */
struct BasisOutcome
{
    double probability = 0;
    int weight = -1;
};
BasisOutcome basisOutcome(int qubits, const std::vector<Op> &ops);

/** Pulses of a lowered circuit: every two-qubit op is one pulse. */
struct Pulses
{
    int total = 0;
    int depth = 0;
};
Pulses countPulses(int qubits, const std::vector<Op> &ops);

/**
 * The cost model gives the paper's k for known gates: SWAP 3, CNOT 2,
 * iSWAP 2, sqrt(iSWAP) 1, identity 0, mirror of SWAP 0. Returns "" or
 * a description of the first mismatch.
 */
std::string checkCostModelK();

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
