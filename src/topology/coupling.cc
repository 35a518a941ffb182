/**
 * @file
 * Coupling map construction (line, ring, grid, heavy-hex, all-to-all),
 * CSR adjacency, connected components and the all-pairs BFS distance
 * table.
 */

#include "topology/coupling.hh"

#include <algorithm>
#include <charconv>

namespace mirage::topology {

namespace {

std::string
edgeStr(int a, int b)
{
    return "(" + std::to_string(a) + "," + std::to_string(b) + ")";
}

/** Edges of a line of n qubits. */
std::vector<std::pair<int, int>>
lineEdges(int n)
{
    std::vector<std::pair<int, int>> e;
    for (int i = 0; i + 1 < n; ++i)
        e.emplace_back(i, i + 1);
    return e;
}

/**
 * Append the edges of CouplingMap::heavyHex(rows, row_width) to e and
 * return its qubit count. The named heavy-hex devices extend this edge
 * list instead of building the base map, whose distance table would be
 * thrown away.
 */
int
heavyHexEdges(int rows, int row_width, std::vector<std::pair<int, int>> &e)
{
    // Row qubits 0 .. rows*row_width-1 laid out row-major and connected in
    // lines; bridge qubits between consecutive rows at columns congruent
    // to 0 (even gaps) or 2 (odd gaps) mod 4, which tiles the plane with
    // heavy hexagons and keeps every degree <= 3.
    auto id = [row_width](int r, int c) { return r * row_width + c; };
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c + 1 < row_width; ++c)
            e.emplace_back(id(r, c), id(r, c + 1));

    int next = rows * row_width;
    for (int gap = 0; gap + 1 < rows; ++gap) {
        int offset = (gap % 2 == 0) ? 0 : 2;
        for (int c = offset; c < row_width; c += 4) {
            int bridge = next++;
            e.emplace_back(id(gap, c), bridge);
            e.emplace_back(bridge, id(gap + 1, c));
        }
    }
    return next;
}

} // namespace

CouplingMap::CouplingMap(int num_qubits,
                         std::vector<std::pair<int, int>> edges,
                         std::string name)
    : numQubits_(num_qubits), name_(std::move(name)), edges_(std::move(edges))
{
    if (numQubits_ < 0)
        throw TopologyError("coupling map '" + name_ +
                            "': negative qubit count " +
                            std::to_string(numQubits_));
    if (numQubits_ > kMaxSpecQubits)
        throw TopologyError("coupling map '" + name_ + "': " +
                            std::to_string(numQubits_) +
                            " qubits is more than " +
                            std::to_string(kMaxSpecQubits));
    for (auto &[a, b] : edges_) {
        if (a < 0 || a >= numQubits_ || b < 0 || b >= numQubits_)
            throw TopologyError("coupling map '" + name_ + "': edge " +
                                edgeStr(a, b) + " out of range [0, " +
                                std::to_string(numQubits_) + ")");
        if (a == b)
            throw TopologyError("coupling map '" + name_ +
                                "': self-loop edge on qubit " +
                                std::to_string(a));
        if (a > b)
            std::swap(a, b);
    }
    std::sort(edges_.begin(), edges_.end());
    auto dup = std::adjacent_find(edges_.begin(), edges_.end());
    if (dup != edges_.end())
        throw TopologyError("coupling map '" + name_ + "': duplicate edge " +
                            edgeStr(dup->first, dup->second));

    // CSR adjacency. Edges are sorted and unique; rows come out sorted
    // because we fill ascending-neighbor per endpoint, then sort each
    // row (the b->a direction arrives out of order).
    const size_t n = size_t(numQubits_);
    csrOffsets_.assign(n + 1, 0);
    for (const auto &[a, b] : edges_) {
        ++csrOffsets_[size_t(a) + 1];
        ++csrOffsets_[size_t(b) + 1];
    }
    for (size_t q = 0; q < n; ++q)
        csrOffsets_[q + 1] += csrOffsets_[q];
    csrNeighbors_.assign(2 * edges_.size(), 0);
    std::vector<int> cursor(csrOffsets_.begin(), csrOffsets_.end() - 1);
    for (const auto &[a, b] : edges_) {
        csrNeighbors_[size_t(cursor[size_t(a)]++)] = b;
        csrNeighbors_[size_t(cursor[size_t(b)]++)] = a;
    }
    for (size_t q = 0; q < n; ++q)
        std::sort(csrNeighbors_.begin() + csrOffsets_[q],
                  csrNeighbors_.begin() + csrOffsets_[q + 1]);

    // Connected components, O(n + m): the route-entry fail-fast and the
    // shortestPath disconnected check key off these ids in O(1).
    component_.assign(n, -1);
    std::vector<size_t> componentSize;
    std::vector<int> queue;
    queue.reserve(n);
    for (int root = 0; root < numQubits_; ++root) {
        if (component_[size_t(root)] >= 0)
            continue;
        const int comp = numComponents_++;
        component_[size_t(root)] = comp;
        queue.assign(1, root);
        for (size_t head = 0; head < queue.size(); ++head) {
            for (int v : neighbors(queue[head])) {
                if (component_[size_t(v)] < 0) {
                    component_[size_t(v)] = comp;
                    queue.push_back(v);
                }
            }
        }
        componentSize.push_back(queue.size());
    }

    // All-pairs distances, one BFS per source. Each BFS stops once it
    // has reached the whole component: on dense graphs (all-to-all) the
    // last neighbor lists would find nothing new. n <= kMaxSpecQubits
    // keeps every hop count below 1121, well inside int16_t.
    dist_.assign(n * n, -1);
    queue.resize(n);
    for (int src = 0; src < numQubits_; ++src) {
        int16_t *row = dist_.data() + size_t(src) * n;
        const size_t reach = componentSize[size_t(componentOf(src))];
        row[src] = 0;
        queue[0] = src;
        for (size_t head = 0, tail = 1; tail < reach; ++head) {
            const int u = queue[head];
            const int16_t next = int16_t(row[u] + 1);
            for (int v : neighbors(u)) {
                if (row[v] < 0) {
                    row[v] = next;
                    queue[tail++] = v;
                }
            }
        }
    }
}

int
CouplingMap::maxDegree() const
{
    int best = 0;
    for (int q = 0; q < numQubits_; ++q)
        best = std::max(best, int(neighbors(q).size()));
    return best;
}

std::vector<int>
CouplingMap::shortestPath(int a, int b) const
{
    if (a < 0 || a >= numQubits_ || b < 0 || b >= numQubits_)
        throw TopologyError("shortestPath(" + std::to_string(a) + ", " +
                            std::to_string(b) + ") out of range on '" +
                            name_ + "' (" + std::to_string(numQubits_) +
                            " qubits)");
    if (!sameComponent(a, b))
        throw TopologyError(
            "no path between qubits " + std::to_string(a) + " and " +
            std::to_string(b) + " on '" + name_ +
            "': they are in different connected components (" +
            std::to_string(componentOf(a)) + " vs " +
            std::to_string(componentOf(b)) + ")");
    // Walk b -> a through any neighbor one hop closer to a.
    const int16_t *row = distanceRow(a);
    std::vector<int> path = {b};
    int cur = b;
    while (cur != a) {
        for (int nb : neighbors(cur)) {
            if (row[nb] == row[cur] - 1) {
                cur = nb;
                path.push_back(cur);
                break;
            }
        }
    }
    std::reverse(path.begin(), path.end());
    return path;
}

CouplingMap
CouplingMap::line(int n)
{
    if (n <= 0)
        throw TopologyError("line(" + std::to_string(n) +
                            "): qubit count must be positive");
    return CouplingMap(n, lineEdges(n), "line-" + std::to_string(n));
}

CouplingMap
CouplingMap::ring(int n)
{
    if (n <= 0)
        throw TopologyError("ring(" + std::to_string(n) +
                            "): qubit count must be positive");
    auto e = lineEdges(n);
    if (n > 2)
        e.emplace_back(0, n - 1);
    return CouplingMap(n, std::move(e), "ring-" + std::to_string(n));
}

CouplingMap
CouplingMap::grid(int rows, int cols)
{
    if (rows <= 0 || cols <= 0)
        throw TopologyError("grid(" + std::to_string(rows) + ", " +
                            std::to_string(cols) +
                            "): dimensions must be positive");
    std::vector<std::pair<int, int>> e;
    auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                e.emplace_back(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                e.emplace_back(id(r, c), id(r + 1, c));
        }
    }
    return CouplingMap(rows * cols, std::move(e),
                       "grid-" + std::to_string(rows) + "x" +
                           std::to_string(cols));
}

CouplingMap
CouplingMap::allToAll(int n)
{
    if (n <= 0)
        throw TopologyError("allToAll(" + std::to_string(n) +
                            "): qubit count must be positive");
    std::vector<std::pair<int, int>> e;
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            e.emplace_back(i, j);
    return CouplingMap(n, std::move(e), "a2a-" + std::to_string(n));
}

CouplingMap
CouplingMap::heavyHex(int rows, int row_width)
{
    if (rows <= 0 || row_width <= 0)
        throw TopologyError("heavyHex(" + std::to_string(rows) + ", " +
                            std::to_string(row_width) +
                            "): dimensions must be positive");
    std::vector<std::pair<int, int>> e;
    const int n = heavyHexEdges(rows, row_width, e);
    return CouplingMap(n, std::move(e), "heavyhex-" + std::to_string(n));
}

CouplingMap
CouplingMap::heavyHex57()
{
    // 5 rows x 9 row qubits = 45 plus 10 bridges = 55; two boundary flag
    // qubits (as on IBM devices) bring the lattice to 57 while keeping the
    // maximum degree at 3.
    std::vector<std::pair<int, int>> e;
    const int n = heavyHexEdges(5, 9, e);
    // Dangling boundary qubits attached to degree-2 corner-row sites
    // (columns without a bridge in the adjacent gap).
    e.emplace_back(2, n);             // above row 0, column 2
    e.emplace_back(4 * 9 + 4, n + 1); // below row 4, column 4
    return CouplingMap(n + 2, std::move(e), "heavyhex-57");
}

CouplingMap
CouplingMap::heavyHex433()
{
    // IBM Osprey scale: 15 rows x 23 row qubits = 345 plus 14 gaps x 6
    // bridges = 84 -> 429; four boundary flag qubits on degree-2 sites
    // (row 0 and row 14 at odd columns, which never host a bridge) bring
    // it to 433 with max degree still 3.
    std::vector<std::pair<int, int>> e;
    const int n = heavyHexEdges(15, 23, e);
    e.emplace_back(1, n);               // above row 0, column 1
    e.emplace_back(3, n + 1);           // above row 0, column 3
    e.emplace_back(14 * 23 + 1, n + 2); // below row 14, column 1
    e.emplace_back(14 * 23 + 3, n + 3); // below row 14, column 3
    return CouplingMap(n + 4, std::move(e), "heavyhex-433");
}

CouplingMap
CouplingMap::heavyHex1121()
{
    // IBM Condor scale: 25 rows x 36 row qubits = 900 plus 24 gaps x 9
    // bridges = 216 -> 1116; five boundary flag qubits on degree-2 sites
    // bring it to 1121 with max degree still 3.
    std::vector<std::pair<int, int>> e;
    const int n = heavyHexEdges(25, 36, e);
    e.emplace_back(1, n);               // above row 0, column 1
    e.emplace_back(3, n + 1);           // above row 0, column 3
    e.emplace_back(5, n + 2);           // above row 0, column 5
    e.emplace_back(24 * 36 + 1, n + 3); // below row 24, column 1
    e.emplace_back(24 * 36 + 3, n + 4); // below row 24, column 3
    return CouplingMap(n + 5, std::move(e), "heavyhex-1121");
}

std::string
CouplingMap::specForms()
{
    return "grid<R>x<C>, line<N>, ring<N>, heavyhex57, heavyhex433, "
           "heavyhex1121, alltoall<N>, or auto; at most " +
           std::to_string(kMaxSpecQubits) + " qubits";
}

std::string
CouplingMap::concreteSpec(const std::string &spec, int min_qubits)
{
    if (spec != "auto")
        return spec;
    // Bound the declared width first: the loop below squares `side` in
    // int, which a width near INT_MAX would spin on.
    if (min_qubits > kMaxSpecQubits)
        throw std::invalid_argument(
            "topology 'auto' has more than " +
            std::to_string(kMaxSpecQubits) + " qubits: the circuit declares " +
            std::to_string(min_qubits));
    int side = 1;
    while (side * side < min_qubits)
        ++side;
    return "grid" + std::to_string(side) + "x" + std::to_string(side);
}

CouplingMap
CouplingMap::parseSpec(const std::string &spec, int min_qubits)
{
    // A size is a positive decimal count. Any size above the ceiling,
    // however many digits it has, reads as ceiling + 1, so none wraps.
    auto size = [](const std::string &digits, int64_t *value) {
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            return false;
        uint64_t v = 0;
        const char *end = digits.data() + digits.size();
        if (std::from_chars(digits.data(), end, v).ec != std::errc())
            v = kMaxSpecQubits + 1; // more than 64 bits of digits
        *value = int64_t(std::min<uint64_t>(v, kMaxSpecQubits + 1));
        return v > 0;
    };
    auto bounded = [&spec](int64_t qubits) {
        if (qubits > kMaxSpecQubits)
            throw std::invalid_argument("topology '" + spec +
                                        "' has more than " +
                                        std::to_string(kMaxSpecQubits) +
                                        " qubits");
        return int(qubits);
    };

    if (spec == "auto")
        return parseSpec(concreteSpec(spec, min_qubits), min_qubits);
    if (spec == "heavyhex57")
        return heavyHex57();
    if (spec == "heavyhex433")
        return heavyHex433();
    if (spec == "heavyhex1121")
        return heavyHex1121();
    int64_t r = 0, c = 0, n = 0;
    if (spec.rfind("grid", 0) == 0) {
        size_t x = spec.find('x', 4);
        if (x != std::string::npos && size(spec.substr(4, x - 4), &r) &&
            size(spec.substr(x + 1), &c)) {
            bounded(r * c);
            return grid(int(r), int(c));
        }
    }
    if (spec.rfind("line", 0) == 0 && size(spec.substr(4), &n))
        return line(bounded(n));
    if (spec.rfind("ring", 0) == 0 && size(spec.substr(4), &n))
        return ring(bounded(n));
    if (spec.rfind("alltoall", 0) == 0 && size(spec.substr(8), &n))
        return allToAll(bounded(n));
    throw std::invalid_argument("unknown topology '" + spec +
                                "' (expected " + specForms() + ")");
}

} // namespace mirage::topology
