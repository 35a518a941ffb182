/**
 * @file
 * Two-qubit block consolidation: merges maximal same-pair gate runs
 * into Unitary2Q blocks, annotates Weyl coordinates, and memoizes
 * coordinates of identical interior unitaries in a quantized LRU cache.
 */

#include "circuit/consolidate.hh"

#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include <mutex>

#include "common/lru_cache.hh"
#include "weyl/coordinates.hh"

namespace mirage::circuit {

namespace {

/** Quantized-matrix key for the coordinate cache. */
struct MatKey
{
    std::array<int64_t, 32> q;

    bool operator==(const MatKey &o) const { return q == o.q; }
};

struct MatKeyHash
{
    size_t
    operator()(const MatKey &k) const
    {
        uint64_t h = 0xcbf29ce484222325ULL;
        for (int64_t v : k.q) {
            h ^= uint64_t(v);
            h *= 0x100000001b3ULL;
        }
        return size_t(h);
    }
};

MatKey
quantize(const Mat4 &m)
{
    MatKey k;
    for (int i = 0; i < 16; ++i) {
        k.q[size_t(2 * i)] = int64_t(std::llround(m.a[size_t(i)].real() * 1e9));
        k.q[size_t(2 * i + 1)] =
            int64_t(std::llround(m.a[size_t(i)].imag() * 1e9));
    }
    return k;
}

LruCache<MatKey, weyl::Coord, MatKeyHash> &
coordCache()
{
    static LruCache<MatKey, weyl::Coord, MatKeyHash> cache(1 << 16);
    return cache;
}

std::mutex &
coordCacheMutex()
{
    static std::mutex m;
    return m;
}

/** An open 2Q block being accumulated. */
struct OpenBlock
{
    int qa = -1; ///< most-significant operand of the block matrix
    int qb = -1;
    Mat4 matrix = Mat4::identity();
    int absorbed = 0;
};

} // namespace

void
clearCoordinateCache()
{
    std::lock_guard<std::mutex> lock(coordCacheMutex());
    coordCache().clear();
}

Circuit
consolidateBlocks(const Circuit &input, const ConsolidateOptions &opts,
                  ConsolidateStats *stats)
{
    const int n = input.numQubits();
    Circuit out(n, input.name());

    // Per-wire state: either an open block index, or a pending 1Q matrix.
    std::vector<int> open_of_wire(size_t(n), -1);
    std::vector<Mat2> pending(size_t(n), Mat2::identity());
    std::vector<bool> has_pending(size_t(n), false);
    std::vector<OpenBlock> blocks;
    std::vector<bool> sealed;

    ConsolidateStats local;

    auto annotate = [&](Gate &g) {
        if (opts.useCoordinateCache) {
            // The cache is process-wide shared state: callers running
            // transpile() concurrently from their own threads would
            // otherwise race here.
            MatKey key = quantize(*g.mat4);
            {
                std::lock_guard<std::mutex> lock(coordCacheMutex());
                if (auto hit = coordCache().get(key)) {
                    ++local.coordCacheHits;
                    g.coords = *hit;
                    return;
                }
            }
            ++local.coordCacheMisses;
            g.coords = weyl::weylCoordinates(*g.mat4);
            std::lock_guard<std::mutex> lock(coordCacheMutex());
            coordCache().put(key, *g.coords);
        } else {
            ++local.coordCacheMisses;
            g.coords = weyl::weylCoordinates(*g.mat4);
        }
    };

    auto seal = [&](int blk_id) {
        if (blk_id < 0 || sealed[size_t(blk_id)])
            return;
        OpenBlock &blk = blocks[size_t(blk_id)];
        Gate g = makeUnitary2(blk.qa, blk.qb, blk.matrix);
        annotate(g);
        out.append(std::move(g));
        ++local.blocksEmitted;
        local.gatesAbsorbed += blk.absorbed;
        sealed[size_t(blk_id)] = true;
        open_of_wire[size_t(blk.qa)] = -1;
        open_of_wire[size_t(blk.qb)] = -1;
    };

    auto flushPending = [&](int q) {
        if (!has_pending[size_t(q)])
            return;
        out.append(makeUnitary1(q, pending[size_t(q)]));
        pending[size_t(q)] = Mat2::identity();
        has_pending[size_t(q)] = false;
    };

    auto mulLeft1q = [&](OpenBlock &blk, int q, const Mat2 &m) {
        // Apply the 1Q matrix after the block so far: matrix = (m on wire q)
        // * matrix.
        Mat4 lift = (q == blk.qa) ? linalg::kron(m, Mat2::identity())
                                  : linalg::kron(Mat2::identity(), m);
        blk.matrix = lift * blk.matrix;
        ++blk.absorbed;
    };

    for (const auto &g : input.gates()) {
        if (g.isBarrier()) {
            for (auto &blk_id : open_of_wire)
                seal(blk_id);
            continue;
        }
        MIRAGE_ASSERT(!g.isThreeQubit(),
                      "consolidate requires 3Q gates to be unrolled first");

        if (g.isOneQubit()) {
            int q = g.qubits[0];
            int blk_id = open_of_wire[size_t(q)];
            if (blk_id >= 0) {
                mulLeft1q(blocks[size_t(blk_id)], q, g.matrix2());
            } else {
                pending[size_t(q)] = g.matrix2() * pending[size_t(q)];
                has_pending[size_t(q)] = true;
            }
            continue;
        }

        // Two-qubit gate.
        int a = g.qubits[0];
        int b = g.qubits[1];
        int blk_a = open_of_wire[size_t(a)];
        int blk_b = open_of_wire[size_t(b)];

        if (blk_a >= 0 && blk_a == blk_b) {
            // Same open pair: multiply in (respecting operand order).
            OpenBlock &blk = blocks[size_t(blk_a)];
            Mat4 m = g.matrix4();
            if (a != blk.qa) {
                // The gate lists operands in the swapped order relative to
                // the block; conjugate by SWAP-reindexing.
                Mat4 r;
                static const int swap_idx[4] = {0, 2, 1, 3};
                for (int i = 0; i < 4; ++i)
                    for (int j = 0; j < 4; ++j)
                        r(swap_idx[i], swap_idx[j]) = m(i, j);
                m = r;
            }
            blk.matrix = m * blk.matrix;
            ++blk.absorbed;
            continue;
        }

        // Conflicting blocks on either wire get sealed.
        seal(blk_a);
        seal(blk_b);

        // Open a new block, folding in any pending 1Q gates.
        OpenBlock blk;
        blk.qa = a;
        blk.qb = b;
        blk.matrix = g.matrix4();
        if (has_pending[size_t(a)]) {
            blk.matrix =
                blk.matrix * linalg::kron(pending[size_t(a)], Mat2::identity());
            pending[size_t(a)] = Mat2::identity();
            has_pending[size_t(a)] = false;
            ++blk.absorbed;
        }
        if (has_pending[size_t(b)]) {
            blk.matrix =
                blk.matrix * linalg::kron(Mat2::identity(), pending[size_t(b)]);
            pending[size_t(b)] = Mat2::identity();
            has_pending[size_t(b)] = false;
            ++blk.absorbed;
        }
        blocks.push_back(blk);
        sealed.push_back(false);
        open_of_wire[size_t(a)] = int(blocks.size()) - 1;
        open_of_wire[size_t(b)] = int(blocks.size()) - 1;
    }

    // Seal everything left open, then flush dangling 1Q gates.
    for (int q = 0; q < n; ++q)
        seal(open_of_wire[size_t(q)]);
    for (int q = 0; q < n; ++q)
        flushPending(q);

    if (stats)
        *stats = local;
    return out;
}

} // namespace mirage::circuit
