/**
 * @file
 * Independent output checks (see checks.hh).
 */

#include "checks.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <random>

#include "monodromy/cost_model.hh"
#include "weyl/coordinates.hh"

namespace perfbench {

using mirage::circuit::GateKind;

std::vector<Op>
opsOf(const mirage::circuit::Circuit &c)
{
    std::vector<Op> ops;
    ops.reserve(c.size());
    for (const auto &g : c.gates()) {
        const std::vector<int> &q = g.qubits;
        const std::vector<double> &p = g.params;
        switch (g.kind) {
          case GateKind::Barrier: continue;
          case GateKind::I: ops.push_back(makeOp("id", q)); break;
          case GateKind::X: ops.push_back(makeOp("x", q)); break;
          case GateKind::Y: ops.push_back(makeOp("y", q)); break;
          case GateKind::Z: ops.push_back(makeOp("z", q)); break;
          case GateKind::H: ops.push_back(makeOp("h", q)); break;
          case GateKind::S: ops.push_back(makeOp("s", q)); break;
          case GateKind::Sdg: ops.push_back(makeOp("sdg", q)); break;
          case GateKind::T: ops.push_back(makeOp("t", q)); break;
          case GateKind::Tdg: ops.push_back(makeOp("tdg", q)); break;
          case GateKind::SX: ops.push_back(makeOp("sx", q)); break;
          case GateKind::RX: ops.push_back(makeOp("rx", q, p)); break;
          case GateKind::RY: ops.push_back(makeOp("ry", q, p)); break;
          case GateKind::RZ: ops.push_back(makeOp("rz", q, p)); break;
          case GateKind::U3: ops.push_back(makeOp("u3", q, p)); break;
          case GateKind::CX: ops.push_back(makeOp("cx", q)); break;
          case GateKind::CZ: ops.push_back(makeOp("cz", q)); break;
          case GateKind::CP: ops.push_back(makeOp("cp", q, p)); break;
          case GateKind::CRX: ops.push_back(makeOp("crx", q, p)); break;
          case GateKind::CRY: ops.push_back(makeOp("cry", q, p)); break;
          case GateKind::CRZ: ops.push_back(makeOp("crz", q, p)); break;
          case GateKind::SWAP: ops.push_back(makeOp("swap", q)); break;
          case GateKind::ISWAP: ops.push_back(makeOp("iswap", q)); break;
          case GateKind::RootISWAP:
            ops.push_back(makeOp("riswap", q, p));
            break;
          case GateKind::RXX: ops.push_back(makeOp("rxx", q, p)); break;
          case GateKind::RYY: ops.push_back(makeOp("ryy", q, p)); break;
          case GateKind::RZZ: ops.push_back(makeOp("rzz", q, p)); break;
          case GateKind::CCX: ops.push_back(makeOp("ccx", q)); break;
          case GateKind::CSWAP: ops.push_back(makeOp("cswap", q)); break;
          case GateKind::Unitary1Q: {
            Op op;
            op.name = "unitary1";
            op.q = q;
            for (int i = 0; i < 4; ++i)
                op.m2[size_t(i)] = g.mat2->a[size_t(i)];
            ops.push_back(std::move(op));
            break;
          }
          case GateKind::Unitary2Q: {
            Op op;
            op.name = "unitary2";
            op.q = q;
            for (int i = 0; i < 16; ++i)
                op.m4[size_t(i)] = g.mat4->a[size_t(i)];
            ops.push_back(std::move(op));
            break;
          }
        }
    }
    return ops;
}

EdgeSet
edgeSet(const std::vector<std::pair<int, int>> &edges)
{
    EdgeSet s;
    for (auto [a, b] : edges) {
        s.insert({a, b});
        s.insert({b, a});
    }
    return s;
}

int
edgeViolations(const std::vector<Op> &ops, const EdgeSet &edges)
{
    int bad = 0;
    for (const Op &op : ops) {
        if (op.q.size() > 2)
            ++bad;
        else if (op.q.size() == 2 && !edges.count({op.q[0], op.q[1]}))
            ++bad;
    }
    return bad;
}

namespace {

std::vector<std::pair<double, double>>
randomAngles(size_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<std::pair<double, double>> a(n);
    for (auto &x : a)
        x = {0.2 + 1.1 * u(rng), 6.283185307179586 * u(rng)};
    return a;
}

} // namespace

double
layoutFidelity(const std::vector<Op> &input, int n,
               const std::vector<Op> &routed, int physical,
               const std::vector<int> &initial, const std::vector<int> &final,
               uint64_t seed)
{
    if (n > 62)
        throw std::runtime_error("too many logical qubits to simulate");
    const auto angles = randomAngles(size_t(n), seed);

    SparseState logical = SparseState::product(angles);
    for (const Op &op : input)
        logical.apply(op, {});

    // Physical slots: the initial and final homes of every logical qubit
    // plus everything the routed circuit touches.
    std::vector<int> homes;
    for (int q = 0; q < n; ++q) {
        homes.push_back(initial.at(size_t(q)));
        homes.push_back(final.at(size_t(q)));
    }
    std::vector<int> slot = compactSlots(physical, routed, homes);

    std::vector<std::pair<double, double>> placed(64, {0.0, 0.0});
    for (int q = 0; q < n; ++q)
        placed[size_t(slot[size_t(initial[size_t(q)])])] = angles[size_t(q)];
    SparseState actual = SparseState::product(placed);
    for (const Op &op : routed)
        actual.apply(op, slot);

    // Expected physical state: logical bit q lands on slot(final[q]).
    std::unordered_map<uint64_t, Cx> moved;
    for (const auto &[idx, v] : logical.amplitudes()) {
        uint64_t to = 0;
        for (int q = 0; q < n; ++q)
            if (idx >> q & 1)
                to |= uint64_t(1) << slot[size_t(final[size_t(q)])];
        moved[to] += v;
    }
    const SparseState expected = SparseState::fromAmplitudes(std::move(moved));
    return overlap(expected, actual);
}

double
sameQubitFidelity(const std::vector<Op> &a, const std::vector<Op> &b,
                  int physical, uint64_t seed)
{
    std::vector<Op> both = a;
    both.insert(both.end(), b.begin(), b.end());
    std::vector<int> slot = compactSlots(physical, both);
    const int used = int(std::count_if(slot.begin(), slot.end(),
                                       [](int s) { return s >= 0; }));
    const auto angles = randomAngles(size_t(used), seed);
    SparseState x = SparseState::product(angles);
    SparseState y = x;
    for (const Op &op : a)
        x.apply(op, slot);
    for (const Op &op : b)
        y.apply(op, slot);
    return overlap(x, y);
}

BasisOutcome
basisOutcome(int qubits, const std::vector<Op> &ops)
{
    SparseState s = runFromZero(qubits, ops);
    BasisOutcome best;
    for (const auto &[idx, v] : s.amplitudes()) {
        const double p = std::norm(v);
        if (p > best.probability) {
            best.probability = p;
            best.weight = std::popcount(idx);
        }
    }
    return best;
}

Pulses
countPulses(int qubits, const std::vector<Op> &ops)
{
    Pulses out;
    std::vector<int> ready(size_t(qubits), 0);
    for (const Op &op : ops) {
        if (op.q.size() != 2)
            continue;
        ++out.total;
        int &a = ready.at(size_t(op.q[0]));
        int &b = ready.at(size_t(op.q[1]));
        a = b = std::max(a, b) + 1;
        out.depth = std::max(out.depth, a);
    }
    return out;
}

std::string
checkCostModelK()
{
    const auto cm = mirage::monodromy::makeRootIswapCostModel(2);
    auto coordsOf = [](const M4 &m) {
        mirage::linalg::Mat4 u;
        for (int i = 0; i < 16; ++i)
            u.a[size_t(i)] = m[size_t(i)];
        return mirage::weyl::weylCoordinates(u);
    };
    const struct
    {
        const char *name;
        M4 m;
        int k;
    } known[] = {
        {"swap", gate2("swap", {}), 3},
        {"cx", gate2("cx", {}), 2},
        {"iswap", gate2("iswap", {}), 2},
        {"sqrt-iswap", gate2("riswap", {2}), 1},
        {"identity", gate2("rzz", {0}), 0},
    };
    for (const auto &g : known) {
        const int k = cm.kFor(coordsOf(g.m));
        if (k != g.k)
            return std::string("k(") + g.name + ") = " + std::to_string(k) +
                   ", expected " + std::to_string(g.k);
    }
    const double mirror_swap =
        cm.mirrorCostOf(coordsOf(gate2("swap", {}))) / cm.basisDuration();
    if (std::lround(mirror_swap) != 0)
        return "k(mirror of swap) = " + std::to_string(mirror_swap) +
               ", expected 0";
    return "";
}

} // namespace perfbench
