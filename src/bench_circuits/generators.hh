/**
 * @file
 * Benchmark circuit generators reproducing the paper's Table III suite
 * (QASMBench + MQTBench families) plus the TwoLocal ansatz of Fig. 8.
 *
 * The original benchmarks ship as QASM files; here each family is
 * generated programmatically at the same qubit count with closely
 * matching two-qubit gate counts (the QASMBench-sourced entries count
 * native gates; the MQTBench-sourced entries count CX-decomposed gates;
 * see cxEquivalentCount).
 */

#ifndef MIRAGE_BENCHCIRCUITS_GENERATORS_HH
#define MIRAGE_BENCHCIRCUITS_GENERATORS_HH

#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.hh"

namespace mirage::bench {

using circuit::Circuit;

// --- entanglement / state preparation --------------------------------------

/** W-state preparation: a cascade of controlled rotations + CNOTs. */
Circuit wstate(int n);
/** GHZ state (linear CNOT chain). */
Circuit ghz(int n);
/** TwoLocal ansatz with full (all-pairs) entanglement (paper Fig. 8a). */
Circuit twoLocalFull(int n, int reps = 1, uint64_t seed = 7);

// --- hidden subgroup --------------------------------------------------------

/** Bernstein-Vazirani with the given number of 1-bits in the secret. */
Circuit bernsteinVazirani(int n, int secret_ones);
/** Quantum Fourier transform (with the final reversal SWAP network). */
Circuit qft(int n, bool with_swaps = true);
/** GHZ-entangled input followed by QFT (MQTBench 'qftentangled'). */
Circuit qftEntangled(int n);
/** Quantum phase estimation of an exactly representable phase. */
Circuit qpeExact(int n);
/** Iterative amplitude-estimation style circuit (MQTBench 'ae'). */
Circuit amplitudeEstimation(int n);

// --- arithmetic --------------------------------------------------------------

/** CDKM ripple-carry adder: two (n-2)/2-bit registers + carries. */
Circuit bigadder(int n);
/** Draper (QFT-based) multiplier on split registers. */
Circuit multiplier(int n);

// --- error correction --------------------------------------------------------

/** Shor-9 code: encoding plus X/Z stabilizer syndrome extraction. */
Circuit qec9xz(int n);
/** Shor-code error correction with teleportation (QASMBench 'seca'). */
Circuit seca(int n);

// --- memory ------------------------------------------------------------------

/** Bucket-brigade style QRAM router tree. */
Circuit qram(int n);

// --- QML / optimization -------------------------------------------------------

/** Grover search for a small SAT instance (CCX-cascade oracle). */
Circuit satGrover(int n);
/** QAOA on a complete graph (portfolio optimization), p layers. */
Circuit portfolioQaoa(int n, int p = 3, uint64_t seed = 11);
/** Swap-test between two multi-qubit registers. */
Circuit swapTest(int n);
/** Swap-test based k-nearest-neighbor kernel circuit. */
Circuit knn(int n);

// --- registry -----------------------------------------------------------------

/** One benchmark suite entry. */
struct BenchmarkInfo
{
    std::string name;   ///< paper's name, e.g. "qft_n18"
    int qubits;         ///< paper's qubit count
    int paperTwoQ;      ///< 2Q gate count reported in Table III
    std::string klass;  ///< paper's class label
    std::function<Circuit()> make;
};

/** The 15 circuits of Table III. */
const std::vector<BenchmarkInfo> &paperBenchmarks();

/** Look up a Table III entry by name; throws std::invalid_argument on
 * an unknown name (benchmark names can arrive as request data). */
const BenchmarkInfo &benchmarkByName(const std::string &name);

/**
 * Two-qubit gate count after decomposition to CNOTs (cp/cry/rzz = 2,
 * swap = 3, ccx = 6, cswap = 8, ...), the convention MQTBench reports.
 */
int cxEquivalentCount(const Circuit &c);

} // namespace mirage::bench

#endif // MIRAGE_BENCHCIRCUITS_GENERATORS_HH
