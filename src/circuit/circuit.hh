/**
 * @file
 * Circuit container: an ordered list of gates on n qubits, with builder
 * helpers for the common gate set and simple structural metrics.
 */

#ifndef MIRAGE_CIRCUIT_CIRCUIT_HH
#define MIRAGE_CIRCUIT_CIRCUIT_HH

#include <string>
#include <vector>

#include "circuit/gate.hh"

namespace mirage::circuit {

/** An ordered quantum circuit. */
class Circuit
{
  public:
    Circuit() = default;
    explicit Circuit(int num_qubits, std::string name = "circuit")
        : numQubits_(num_qubits), name_(std::move(name))
    {}

    int numQubits() const { return numQubits_; }
    const std::string &name() const { return name_; }

    const std::vector<Gate> &gates() const { return gates_; }
    std::vector<Gate> &gates() { return gates_; }
    size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    /** Append any gate (operand bounds are checked). */
    void append(Gate g);

    // Builder helpers ------------------------------------------------------
    void h(int q) { append(makeGate1(GateKind::H, q)); }
    void x(int q) { append(makeGate1(GateKind::X, q)); }
    void y(int q) { append(makeGate1(GateKind::Y, q)); }
    void z(int q) { append(makeGate1(GateKind::Z, q)); }
    void s(int q) { append(makeGate1(GateKind::S, q)); }
    void sdg(int q) { append(makeGate1(GateKind::Sdg, q)); }
    void t(int q) { append(makeGate1(GateKind::T, q)); }
    void tdg(int q) { append(makeGate1(GateKind::Tdg, q)); }
    void sx(int q) { append(makeGate1(GateKind::SX, q)); }
    void rx(double th, int q) { append(makeGate1(GateKind::RX, q, {th})); }
    void ry(double th, int q) { append(makeGate1(GateKind::RY, q, {th})); }
    void rz(double th, int q) { append(makeGate1(GateKind::RZ, q, {th})); }
    void u3(double th, double ph, double la, int q)
    {
        append(makeGate1(GateKind::U3, q, {th, ph, la}));
    }
    void cx(int c, int t) { append(makeGate2(GateKind::CX, c, t)); }
    void cz(int a, int b) { append(makeGate2(GateKind::CZ, a, b)); }
    void cp(double phi, int a, int b)
    {
        append(makeGate2(GateKind::CP, a, b, {phi}));
    }
    void crx(double th, int c, int t)
    {
        append(makeGate2(GateKind::CRX, c, t, {th}));
    }
    void cry(double th, int c, int t)
    {
        append(makeGate2(GateKind::CRY, c, t, {th}));
    }
    void crz(double th, int c, int t)
    {
        append(makeGate2(GateKind::CRZ, c, t, {th}));
    }
    void swap(int a, int b) { append(makeGate2(GateKind::SWAP, a, b)); }
    void iswap(int a, int b) { append(makeGate2(GateKind::ISWAP, a, b)); }
    void riswap(int n, int a, int b)
    {
        append(makeGate2(GateKind::RootISWAP, a, b, {double(n)}));
    }
    void rxx(double th, int a, int b)
    {
        append(makeGate2(GateKind::RXX, a, b, {th}));
    }
    void rzz(double th, int a, int b)
    {
        append(makeGate2(GateKind::RZZ, a, b, {th}));
    }
    void unitary(int a, int b, const Mat4 &m)
    {
        append(makeUnitary2(a, b, m));
    }
    void ccx(int c0, int c1, int t)
    {
        Gate g;
        g.kind = GateKind::CCX;
        g.qubits = {c0, c1, t};
        append(g);
    }
    void cswap(int c, int a, int b)
    {
        Gate g;
        g.kind = GateKind::CSWAP;
        g.qubits = {c, a, b};
        append(g);
    }
    void barrier() {}

    // Metrics --------------------------------------------------------------

    /** Number of gates acting on >= 2 qubits. */
    int twoQubitGateCount() const;
    /** Number of non-barrier gates. */
    int gateCount() const;
    /** Unit-weight circuit depth (each gate = 1 layer). */
    int depth() const;
    /** Count of gates of a specific kind. */
    int countKind(GateKind kind) const;

    /**
     * Circuit with all gates reversed and each replaced by its inverse is
     * not needed; routing's backward pass only needs the mirror-image gate
     * ORDER (SABRE routes the reversed DAG). This returns the gate list in
     * reverse order.
     */
    Circuit reversed() const;

    /** Human-readable one-line-per-gate dump. */
    std::string toString() const;

    /**
     * Bit-exact structural equality: same wire count and gate list,
     * with every numeric field (params, matrices, coords) compared
     * with == rather than a tolerance. This is the comparison behind
     * the thread-count-determinism guarantee of the parallel trial
     * engine; tests and benches share it so the field list cannot
     * silently drift.
     */
    static bool bitIdentical(const Circuit &a, const Circuit &b);

  private:
    int numQubits_ = 0;
    std::string name_ = "circuit";
    std::vector<Gate> gates_;
};

} // namespace mirage::circuit

#endif // MIRAGE_CIRCUIT_CIRCUIT_HH
