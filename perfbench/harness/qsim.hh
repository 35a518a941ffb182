/**
 * @file
 * The benchmark's own quantum-circuit model: gate matrices, an OpenQASM 2
 * reader for the dialect the transpiler emits, and a sparse state-vector
 * simulator. Nothing here calls into the transpiler, so output checks
 * built on it stay independent of the code under test.
 */

#ifndef PERFBENCH_QSIM_HH
#define PERFBENCH_QSIM_HH

#include <array>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Cx = std::complex<double>;
using M2 = std::array<Cx, 4>;   // row-major 2x2
using M4 = std::array<Cx, 16>;  // row-major 4x4, first operand = MSB

/** One operation on 1, 2 or 3 qubits with its matrix (3q: see kind). */
struct Op
{
    std::string name;
    std::vector<int> q;
    std::vector<double> p;
    M2 m2{};
    M4 m4{};
};

struct QasmCircuit
{
    int qubits = 0;
    std::vector<Op> ops;
};

/** Matrix of a named standard gate; throws std::invalid_argument. */
M2 gate1(const std::string &name, const std::vector<double> &p);
M4 gate2(const std::string &name, const std::vector<double> &p);
/** Build an Op (matrix filled) for a named gate. */
Op makeOp(const std::string &name, std::vector<int> q,
          std::vector<double> p = {});

/** Parse OpenQASM 2 text (qelib1 gates, one or more qregs). */
QasmCircuit parseQasm(const std::string &text);

/**
 * Sparse state over up to 64 qubits: basis index -> amplitude. Qubit i
 * is bit i of the index. Amplitudes below 1e-12 in magnitude are dropped.
 */
class SparseState
{
  public:
    SparseState() { amp_[0] = 1.0; }
    /** Product state: qubit i = cos(t_i)|0> + e^{i f_i} sin(t_i)|1>. */
    static SparseState product(const std::vector<std::pair<double, double>>
                                   &angles);

    /** A state with exactly these amplitudes. */
    static SparseState fromAmplitudes(std::unordered_map<uint64_t, Cx> amp)
    {
        SparseState s;
        s.amp_ = std::move(amp);
        return s;
    }

    /** Apply `op`; its qubit q acts on bit slot[q] (slot empty = q). */
    void apply(const Op &op, const std::vector<int> &slot);
    const std::unordered_map<uint64_t, Cx> &amplitudes() const
    {
        return amp_;
    }
    size_t support() const { return amp_.size(); }

  private:
    void apply1(const M2 &m, int a);
    void apply2(const M4 &m, int a, int b);
    void apply3(const std::string &name, int a, int b, int c);
    std::unordered_map<uint64_t, Cx> amp_;
};

/** |<x|y>| over two sparse states. */
double overlap(const SparseState &x, const SparseState &y);

/**
 * Compact the qubits `ops` touch (plus `extra`) into 0..k-1; returns the
 * map physical -> slot (-1 = untouched). Throws if more than 64.
 */
std::vector<int> compactSlots(int qubits, const std::vector<Op> &ops,
                              const std::vector<int> &extra = {});

/** Run `ops` from |0...0> over the compacted slots. */
SparseState runFromZero(int qubits, const std::vector<Op> &ops,
                        std::vector<int> *slots_out = nullptr);

} // namespace perfbench

#endif // PERFBENCH_QSIM_HH
