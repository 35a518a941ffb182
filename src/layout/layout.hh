/**
 * @file
 * Qubit layouts: bijections between logical circuit qubits and physical
 * device qubits. Logical count may be smaller than physical count; the
 * layout is stored as a full bijection on physical wires with logical
 * qubits occupying the first indices of the logical side.
 */

#ifndef MIRAGE_LAYOUT_LAYOUT_HH
#define MIRAGE_LAYOUT_LAYOUT_HH

#include <vector>

#include "common/rng.hh"

namespace mirage::layout {

/** A logical <-> physical qubit bijection. */
class Layout
{
  public:
    Layout() = default;
    /** Identity layout on n wires. */
    explicit Layout(int n);
    /** From an explicit logical -> physical map (must be a bijection). */
    explicit Layout(std::vector<int> logical_to_physical);

    int size() const { return int(l2p_.size()); }
    int toPhysical(int logical) const { return l2p_[size_t(logical)]; }
    int toLogical(int physical) const { return p2l_[size_t(physical)]; }
    const std::vector<int> &logicalToPhysical() const { return l2p_; }

    /** Swap the logical qubits residing on two physical wires. */
    void swapPhysical(int pa, int pb);

    /** Uniformly random layout on n wires. */
    static Layout random(int n, Rng &rng);

    bool operator==(const Layout &o) const { return l2p_ == o.l2p_; }

  private:
    std::vector<int> l2p_;
    std::vector<int> p2l_;
};

/**
 * RAII hypothetical swap: applies swapPhysical(pa, pb) to a live layout
 * on construction and undoes it on destruction (a swap is its own
 * inverse). Lets callers score "what if these wires were swapped"
 * questions against the real layout without copying it -- the routing
 * reference scorer uses this instead of the O(n) Layout copy the old
 * hot path paid per candidate.
 */
class ScopedSwap
{
  public:
    ScopedSwap(Layout &layout, int pa, int pb)
        : layout_(layout), pa_(pa), pb_(pb)
    {
        layout_.swapPhysical(pa_, pb_);
    }
    ~ScopedSwap() { layout_.swapPhysical(pa_, pb_); }
    ScopedSwap(const ScopedSwap &) = delete;
    ScopedSwap &operator=(const ScopedSwap &) = delete;

  private:
    Layout &layout_;
    int pa_, pb_;
};

} // namespace mirage::layout

#endif // MIRAGE_LAYOUT_LAYOUT_HH
