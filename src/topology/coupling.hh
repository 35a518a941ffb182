/**
 * @file
 * Hardware coupling maps (qubit connectivity graphs).
 *
 * Provides the topologies evaluated in the paper: line, ring, square
 * lattice (6x6, 8x8), a 57-qubit heavy-hex lattice, and all-to-all, plus
 * the large-device instances (heavy-hex 433/1121 a la IBM Osprey/Condor).
 *
 * Every map has one storage: CSR adjacency, connected-component ids and
 * a row-major n x n table of BFS hop distances. The constructor refuses
 * more than kMaxSpecQubits qubits, so the table holds at most 1121^2
 * int16_t entries (2.5 MB); it is built once and shared read-only by
 * every routing thread. `distance` and `isEdge` are single loads, and
 * `distanceRow` is a pointer into the table for the routing hot path.
 */

#ifndef MIRAGE_TOPOLOGY_COUPLING_HH
#define MIRAGE_TOPOLOGY_COUPLING_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mirage::topology {

/**
 * Invalid topology construction or query: bad generator sizes,
 * out-of-range / self-loop / duplicate edges, or a path request across
 * disconnected components. Thrown (rather than abort()) so the CLI can
 * surface a clean `mirage: ...` diagnostic and tests can EXPECT_THROW.
 */
class TopologyError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Undirected qubit connectivity graph. */
class CouplingMap
{
  public:
    /**
     * Lightweight view over one CSR adjacency row. Iterates like
     * `const std::vector<int> &` did; valid as long as the CouplingMap
     * it came from.
     */
    class NeighborSpan
    {
      public:
        NeighborSpan(const int *begin, const int *end)
            : begin_(begin), end_(end)
        {
        }
        const int *begin() const { return begin_; }
        const int *end() const { return end_; }
        size_t size() const { return size_t(end_ - begin_); }
        bool empty() const { return begin_ == end_; }
        int operator[](size_t i) const { return begin_[i]; }

      private:
        const int *begin_;
        const int *end_;
    };

    /** Largest device, heavyhex1121's qubit count. The constructor and
     * parseSpec() refuse anything bigger, which bounds every distance
     * table at 2.5 MB. */
    static constexpr int kMaxSpecQubits = 1121;

    CouplingMap() = default;
    /** Throws TopologyError on a negative qubit count, more than
     * kMaxSpecQubits qubits, or out-of-range, self-loop, or duplicate
     * edges. */
    CouplingMap(int num_qubits, std::vector<std::pair<int, int>> edges,
                std::string name = "custom");

    int numQubits() const { return numQubits_; }
    const std::string &name() const { return name_; }
    const std::vector<std::pair<int, int>> &edges() const { return edges_; }
    /** Sorted neighbor list of q (CSR row view). */
    NeighborSpan neighbors(int q) const
    {
        return NeighborSpan(csrNeighbors_.data() + csrOffsets_[size_t(q)],
                            csrNeighbors_.data() + csrOffsets_[size_t(q) + 1]);
    }

    /** Adjacency probe (the routing flush loop's executability test). */
    bool isEdge(int a, int b) const { return distance(a, b) == 1; }
    /** Shortest-path distance (hops); -1 if disconnected. */
    int distance(int a, int b) const
    {
        return dist_[size_t(a) * size_t(numQubits_) + size_t(b)];
    }
    /**
     * Row `a` of the all-pairs distance table: `distanceRow(a)[b] ==
     * distance(a, b)`. A pointer into the flat table, valid for the
     * map's lifetime, so the routing hot path can hoist one pointer per
     * swap candidate.
     */
    const int16_t *distanceRow(int a) const
    {
        return dist_.data() + size_t(a) * size_t(numQubits_);
    }

    bool isConnected() const
    {
        return numQubits_ > 0 && numComponents_ == 1;
    }
    /** Number of connected components (0 for the empty map). */
    int numComponents() const { return numComponents_; }
    /** Component id of qubit q (ids are dense, 0-based). */
    int componentOf(int q) const { return component_[size_t(q)]; }
    bool sameComponent(int a, int b) const
    {
        return component_[size_t(a)] == component_[size_t(b)];
    }
    int maxDegree() const;

    /**
     * A shortest path from a to b (inclusive of endpoints). Throws
     * TopologyError if a and b are in different components (previously
     * this spun forever walking -1 distances).
     */
    std::vector<int> shortestPath(int a, int b) const;

    /** Row-cache statistics. Distance rows are no longer cached, so
     * `misses` is always 0; kept for the perfbench harness. */
    struct RowCacheStats
    {
        uint64_t misses = 0;
    };
    static RowCacheStats rowCacheStats() { return {}; }
    /** No-op (there is no row cache); kept for the perfbench harness. */
    static void clearRowCache() {}

    // Generators -------------------------------------------------------
    static CouplingMap line(int n);
    static CouplingMap ring(int n);
    static CouplingMap grid(int rows, int cols);
    static CouplingMap allToAll(int n);
    /**
     * IBM-style heavy-hex lattice: rows of linearly connected qubits with
     * bridge qubits between rows at alternating columns (period 4). Row
     * count and width control the size; degree never exceeds 3.
     */
    static CouplingMap heavyHex(int rows, int row_width);
    /** The 57-qubit heavy-hex instance used in the paper's evaluation. */
    static CouplingMap heavyHex57();
    /** 433-qubit heavy-hex (IBM Osprey scale). */
    static CouplingMap heavyHex433();
    /** 1121-qubit heavy-hex (IBM Condor scale). */
    static CouplingMap heavyHex1121();

    /**
     * Parse a device spec string shared by the CLI and the serve
     * request schema: grid<R>x<C>, line<N>, ring<N>, heavyhex57,
     * heavyhex433, heavyhex1121, alltoall<N>, or "auto" (the smallest
     * square grid with at least `min_qubits` sites). Throws
     * std::invalid_argument (listing the accepted forms) on anything
     * else, and on a device above kMaxSpecQubits; callers map that to
     * their own usage-error type.
     */
    static CouplingMap parseSpec(const std::string &spec, int min_qubits);
    /**
     * `spec` with "auto" replaced by the grid spec it stands for,
     * "grid<s>x<s>" with the smallest s such that s*s >= min_qubits;
     * any other spec is returned unchanged.
     */
    static std::string concreteSpec(const std::string &spec, int min_qubits);
    /** The accepted parseSpec() forms, for help text and errors. */
    static std::string specForms();

  private:
    int numQubits_ = 0;
    std::string name_;
    std::vector<std::pair<int, int>> edges_;

    // CSR adjacency: neighbors of q are
    // csrNeighbors_[csrOffsets_[q] .. csrOffsets_[q+1]), sorted.
    std::vector<int> csrOffsets_;
    std::vector<int> csrNeighbors_;
    /** Connected-component id per qubit. */
    std::vector<int> component_;
    int numComponents_ = 0;
    /** Row-major numQubits_ x numQubits_ all-pairs BFS distances. */
    std::vector<int16_t> dist_;
};

} // namespace mirage::topology

#endif // MIRAGE_TOPOLOGY_COUPLING_HH
