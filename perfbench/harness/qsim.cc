/**
 * @file
 * Gate matrices, QASM reader and sparse simulator (see qsim.hh).
 */

#include "qsim.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>

namespace perfbench {

namespace {

constexpr double kPi = 3.14159265358979323846;
const Cx I1(0.0, 1.0);

M2
u3(double t, double f, double l)
{
    const double c = std::cos(t / 2), s = std::sin(t / 2);
    return {Cx(c), -std::exp(I1 * l) * s, std::exp(I1 * f) * s,
            std::exp(I1 * (f + l)) * c};
}

M4
controlled(const M2 &u)
{
    M4 m{};
    m[0] = m[5] = 1.0;
    m[10] = u[0];
    m[11] = u[1];
    m[14] = u[2];
    m[15] = u[3];
    return m;
}

/** exp(-i t/2 P(x)P) for P in {X, Y, Z}. */
M4
pauliRotation(char p, double t)
{
    const double c = std::cos(t / 2), s = std::sin(t / 2);
    M4 m{};
    for (int i = 0; i < 4; ++i)
        m[size_t(5 * i)] = c;
    if (p == 'z') {
        m[0] = m[15] = std::exp(-I1 * (t / 2));
        m[5] = m[10] = std::exp(I1 * (t / 2));
        return m;
    }
    // XX maps |ab> -> |~a~b> with sign +1; YY with sign -1 on |00>,|11>.
    const double yy = p == 'y' ? -1.0 : 1.0;
    m[3] = m[12] = -I1 * s * yy;
    m[6] = m[9] = -I1 * s;
    return m;
}

} // namespace

M2
gate1(const std::string &n, const std::vector<double> &p)
{
    auto need = [&](size_t k) {
        if (p.size() != k)
            throw std::invalid_argument("gate " + n + " takes " +
                                        std::to_string(k) + " parameters");
    };
    const double r = 1 / std::sqrt(2.0);
    if (n == "id") return {1.0, 0.0, 0.0, 1.0};
    if (n == "x") return {0.0, 1.0, 1.0, 0.0};
    if (n == "y") return {0.0, -I1, I1, 0.0};
    if (n == "z") return {1.0, 0.0, 0.0, -1.0};
    if (n == "h") return {r, r, r, -r};
    if (n == "s") return {1.0, 0.0, 0.0, I1};
    if (n == "sdg") return {1.0, 0.0, 0.0, -I1};
    if (n == "t") return {1.0, 0.0, 0.0, std::exp(I1 * (kPi / 4))};
    if (n == "tdg") return {1.0, 0.0, 0.0, std::exp(-I1 * (kPi / 4))};
    if (n == "sx")
        return {Cx(0.5, 0.5), Cx(0.5, -0.5), Cx(0.5, -0.5), Cx(0.5, 0.5)};
    if (n == "rx") {
        need(1);
        const double c = std::cos(p[0] / 2), s = std::sin(p[0] / 2);
        return {Cx(c), -I1 * s, -I1 * s, Cx(c)};
    }
    if (n == "ry") {
        need(1);
        const double c = std::cos(p[0] / 2), s = std::sin(p[0] / 2);
        return {Cx(c), Cx(-s), Cx(s), Cx(c)};
    }
    if (n == "rz") {
        need(1);
        return {std::exp(-I1 * (p[0] / 2)), 0.0, 0.0,
                std::exp(I1 * (p[0] / 2))};
    }
    if (n == "u1" || n == "p") {
        need(1);
        return u3(0, 0, p[0]);
    }
    if (n == "u2") {
        need(2);
        return u3(kPi / 2, p[0], p[1]);
    }
    if (n == "u3" || n == "u") {
        need(3);
        return u3(p[0], p[1], p[2]);
    }
    throw std::invalid_argument("unknown 1-qubit gate '" + n + "'");
}

M4
gate2(const std::string &n, const std::vector<double> &p)
{
    auto need = [&](size_t k) {
        if (p.size() != k)
            throw std::invalid_argument("gate " + n + " takes " +
                                        std::to_string(k) + " parameters");
    };
    M4 m{};
    if (n == "cx") return controlled(gate1("x", {}));
    if (n == "cz") return controlled(gate1("z", {}));
    if (n == "cp" || n == "cu1") {
        need(1);
        return controlled(u3(0, 0, p[0]));
    }
    if (n == "crx" || n == "cry" || n == "crz") {
        need(1);
        return controlled(gate1(n.substr(1), p));
    }
    if (n == "swap") {
        m[0] = m[6] = m[9] = m[15] = 1.0;
        return m;
    }
    if (n == "iswap") {
        m[0] = m[15] = 1.0;
        m[6] = m[9] = I1;
        return m;
    }
    if (n == "rxx" || n == "ryy" || n == "rzz") {
        need(1);
        return pauliRotation(n[1], p[0]);
    }
    if (n == "riswap") {
        // iSWAP^(1/k): cos/sin(pi/(2k)) rotation inside span{|01>,|10>}.
        need(1);
        const double t = kPi / (2 * p[0]);
        m[0] = m[15] = 1.0;
        m[5] = m[10] = std::cos(t);
        m[6] = m[9] = I1 * std::sin(t);
        return m;
    }
    throw std::invalid_argument("unknown 2-qubit gate '" + n + "'");
}

Op
makeOp(const std::string &name, std::vector<int> q, std::vector<double> p)
{
    Op op;
    op.name = name;
    op.q = std::move(q);
    op.p = std::move(p);
    if (op.q.size() == 1)
        op.m2 = gate1(name, op.p);
    else if (op.q.size() == 2)
        op.m4 = gate2(name, op.p);
    else if (!(op.q.size() == 3 && (name == "ccx" || name == "cswap")))
        throw std::invalid_argument("unsupported gate '" + name + "'");
    return op;
}

// --- QASM reader -------------------------------------------------------

namespace {

class Reader
{
  public:
    explicit Reader(const std::string &s) : s_(s) {}

    QasmCircuit
    run()
    {
        QasmCircuit out;
        std::map<std::string, std::pair<int, int>> regs; // name -> off,len
        while (true) {
            skip();
            if (pos_ >= s_.size())
                break;
            std::string word = ident();
            if (word == "OPENQASM" || word == "include") {
                untilSemicolon();
                continue;
            }
            if (word == "qreg" || word == "creg") {
                std::string name = ident();
                expect('[');
                int len = int(number());
                expect(']');
                expect(';');
                if (word == "qreg") {
                    regs[name] = {out.qubits, len};
                    out.qubits += len;
                }
                continue;
            }
            if (word == "barrier" || word == "measure" || word == "reset") {
                untilSemicolon();
                continue;
            }
            std::vector<double> params;
            skip();
            if (peek() == '(') {
                ++pos_;
                while (true) {
                    params.push_back(expr());
                    skip();
                    if (peek() == ',') {
                        ++pos_;
                        continue;
                    }
                    expect(')');
                    break;
                }
            }
            std::vector<int> qs;
            while (true) {
                std::string reg = ident();
                auto it = regs.find(reg);
                if (it == regs.end())
                    fail("unknown register '" + reg + "'");
                expect('[');
                int idx = int(number());
                expect(']');
                if (idx < 0 || idx >= it->second.second)
                    fail("qubit index out of range");
                qs.push_back(it->second.first + idx);
                skip();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(';');
                break;
            }
            try {
                out.ops.push_back(makeOp(word, std::move(qs), params));
            } catch (const std::invalid_argument &e) {
                fail(e.what());
            }
        }
        return out;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg)
    {
        throw std::runtime_error("qasm offset " + std::to_string(pos_) +
                                 ": " + msg);
    }
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void
    skip()
    {
        while (pos_ < s_.size()) {
            if (std::isspace(static_cast<unsigned char>(s_[pos_]))) {
                ++pos_;
            } else if (s_.compare(pos_, 2, "//") == 0) {
                while (pos_ < s_.size() && s_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }
    void
    expect(char c)
    {
        skip();
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }
    void
    untilSemicolon()
    {
        while (pos_ < s_.size() && s_[pos_] != ';')
            ++pos_;
        expect(';');
    }
    std::string
    ident()
    {
        skip();
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '_'))
            ++pos_;
        if (start == pos_)
            fail("expected identifier");
        return s_.substr(start, pos_ - start);
    }
    double
    number()
    {
        skip();
        const char *begin = s_.c_str() + pos_;
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            fail("expected number");
        pos_ += size_t(end - begin);
        return v;
    }
    double
    expr()
    {
        double v = term();
        while (true) {
            skip();
            if (peek() == '+') {
                ++pos_;
                v += term();
            } else if (peek() == '-') {
                ++pos_;
                v -= term();
            } else {
                return v;
            }
        }
    }
    double
    term()
    {
        double v = factor();
        while (true) {
            skip();
            if (peek() == '*') {
                ++pos_;
                v *= factor();
            } else if (peek() == '/') {
                ++pos_;
                v /= factor();
            } else {
                return v;
            }
        }
    }
    double
    factor()
    {
        skip();
        if (peek() == '-') {
            ++pos_;
            return -factor();
        }
        if (peek() == '+') {
            ++pos_;
            return factor();
        }
        if (peek() == '(') {
            ++pos_;
            double v = expr();
            expect(')');
            return v;
        }
        if (std::isalpha(static_cast<unsigned char>(peek()))) {
            if (ident() != "pi")
                fail("unknown constant");
            return kPi;
        }
        return number();
    }

    const std::string &s_;
    size_t pos_ = 0;
};

} // namespace

QasmCircuit
parseQasm(const std::string &text)
{
    return Reader(text).run();
}

// --- sparse simulator --------------------------------------------------

namespace {
constexpr double kDrop = 1e-12;
} // namespace

SparseState
SparseState::product(const std::vector<std::pair<double, double>> &angles)
{
    SparseState s;
    for (size_t i = 0; i < angles.size(); ++i) {
        const double t = angles[i].first, f = angles[i].second;
        // |0> -> cos t|0> + e^{if} sin t|1>: the first column of this.
        M2 m = {Cx(std::cos(t)), Cx(-std::sin(t)),
                std::exp(I1 * f) * std::sin(t),
                std::exp(I1 * f) * std::cos(t)};
        s.apply1(m, int(i));
    }
    return s;
}

void
SparseState::apply1(const M2 &m, int a)
{
    const uint64_t ba = uint64_t(1) << a;
    std::unordered_map<uint64_t, Cx> out;
    out.reserve(amp_.size() * 2);
    for (const auto &[idx, v] : amp_) {
        const int bit = (idx & ba) ? 1 : 0;
        const uint64_t base = idx & ~ba;
        out[base] += m[size_t(2 * 0 + bit)] * v;
        out[base | ba] += m[size_t(2 * 1 + bit)] * v;
    }
    for (auto it = out.begin(); it != out.end();)
        it = std::abs(it->second) < kDrop ? out.erase(it) : std::next(it);
    amp_.swap(out);
}

void
SparseState::apply2(const M4 &m, int a, int b)
{
    const uint64_t ba = uint64_t(1) << a, bb = uint64_t(1) << b;
    std::unordered_map<uint64_t, Cx> out;
    out.reserve(amp_.size() * 2);
    for (const auto &[idx, v] : amp_) {
        const int col = ((idx & ba) ? 2 : 0) | ((idx & bb) ? 1 : 0);
        const uint64_t base = idx & ~ba & ~bb;
        for (int row = 0; row < 4; ++row) {
            const Cx e = m[size_t(4 * row + col)];
            if (e == Cx(0.0))
                continue;
            const uint64_t to =
                base | ((row & 2) ? ba : 0) | ((row & 1) ? bb : 0);
            out[to] += e * v;
        }
    }
    for (auto it = out.begin(); it != out.end();)
        it = std::abs(it->second) < kDrop ? out.erase(it) : std::next(it);
    amp_.swap(out);
}

void
SparseState::apply3(const std::string &name, int a, int b, int c)
{
    const uint64_t ba = uint64_t(1) << a, bb = uint64_t(1) << b,
                   bc = uint64_t(1) << c;
    std::unordered_map<uint64_t, Cx> out;
    out.reserve(amp_.size());
    for (const auto &[idx, v] : amp_) {
        uint64_t to = idx;
        if (name == "ccx" && (idx & ba) && (idx & bb)) {
            to = idx ^ bc;
        } else if (name == "cswap" && (idx & ba) &&
                   bool(idx & bb) != bool(idx & bc)) {
            to = idx ^ bb ^ bc;
        }
        out[to] += v;
    }
    amp_.swap(out);
}

void
SparseState::apply(const Op &op, const std::vector<int> &slot)
{
    auto s = [&](int q) {
        const int v = slot.empty() ? q : slot[size_t(q)];
        if (v < 0 || v >= 64)
            throw std::runtime_error("qubit outside the simulated slots");
        return v;
    };
    if (op.q.size() == 1)
        apply1(op.m2, s(op.q[0]));
    else if (op.q.size() == 2)
        apply2(op.m4, s(op.q[0]), s(op.q[1]));
    else
        apply3(op.name, s(op.q[0]), s(op.q[1]), s(op.q[2]));
}

double
overlap(const SparseState &x, const SparseState &y)
{
    Cx acc = 0;
    const auto &small = x.support() < y.support() ? x.amplitudes()
                                                  : y.amplitudes();
    const auto &big = x.support() < y.support() ? y.amplitudes()
                                                : x.amplitudes();
    const bool small_is_x = x.support() < y.support();
    for (const auto &[idx, v] : small) {
        auto it = big.find(idx);
        if (it == big.end())
            continue;
        acc += small_is_x ? std::conj(v) * it->second
                          : std::conj(it->second) * v;
    }
    return std::abs(acc);
}

std::vector<int>
compactSlots(int qubits, const std::vector<Op> &ops,
             const std::vector<int> &extra)
{
    std::vector<int> slot(size_t(qubits), -1);
    int next = 0;
    auto take = [&](int q) {
        if (q < 0 || q >= qubits)
            throw std::runtime_error("qubit index out of range");
        if (slot[size_t(q)] < 0)
            slot[size_t(q)] = next++;
    };
    for (int q : extra)
        take(q);
    for (const Op &op : ops)
        for (int q : op.q)
            take(q);
    if (next > 64)
        throw std::runtime_error("more than 64 active qubits");
    return slot;
}

SparseState
runFromZero(int qubits, const std::vector<Op> &ops, std::vector<int> *slots_out)
{
    std::vector<int> slot = compactSlots(qubits, ops);
    SparseState s;
    for (const Op &op : ops)
        s.apply(op, slot);
    if (slots_out)
        *slots_out = std::move(slot);
    return s;
}

} // namespace perfbench
