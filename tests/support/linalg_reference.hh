/**
 * @file
 * Scalar reference implementations of the linalg kernels.
 *
 * The production kernels in matrix.cc/expm.cc/eigen.cc are hand-unrolled
 * over raw doubles so the compiler can vectorize them; this namespace
 * keeps the original std::complex scalar implementations alive as the
 * ground truth for the differential kernel tests
 * (tests/test_linalg_kernels.cc). The contract the tests pin down:
 *
 *  - Every optimized kernel preserves the reference accumulation ORDER
 *    and uses the same naive complex-product formula, so for finite
 *    inputs the results are bit-identical (operator== on every entry),
 *    not merely close. This is what keeps fitted decompositions, golden
 *    lowered-QASM snapshots, and the committed FIT_CATALOG.bin stable
 *    across the rewrite.
 *  - Kernels that are NOT reorder-free (none today) would be held to a
 *    <= 1e-14 Frobenius tolerance instead; the tests distinguish the
 *    two classes explicitly.
 *
 * Nothing here is used on the production path -- only
 * test_linalg_kernels builds this file -- so the implementations favour
 * obvious correctness over speed.
 */

#ifndef MIRAGE_TESTS_SUPPORT_LINALG_REFERENCE_HH
#define MIRAGE_TESTS_SUPPORT_LINALG_REFERENCE_HH

#include <array>

#include "linalg/eigen.hh"
#include "linalg/matrix.hh"

namespace mirage::linalg::reference {

/** Scalar 2x2 product (the original Mat2::operator*). */
Mat2 matmul2(const Mat2 &a, const Mat2 &b);

/**
 * Scalar 4x4 product with the zero-row skip (the original
 * Mat4::operator*): terms whose left factor is exactly zero are not
 * accumulated, and the k-loop runs ascending per output entry.
 */
Mat4 matmul4(const Mat4 &a, const Mat4 &b);

/** Conjugate transposes. */
Mat2 dagger2(const Mat2 &m);
Mat4 dagger4(const Mat4 &m);

/** Entrywise conjugates. */
Mat2 conj2(const Mat2 &m);
Mat4 conj4(const Mat4 &m);

/** Scalar products. */
Mat2 scale2(const Mat2 &m, Complex s);
Mat4 scale4(const Mat4 &m, Complex s);

/** Kronecker product of two 2x2 matrices. */
Mat4 kron(const Mat2 &a, const Mat2 &b);

/** |tr(A^dagger B)|^2 / 16 via the scalar product chain. */
double processFidelity(const Mat4 &a, const Mat4 &b);

/** Scaling-and-squaring Taylor expm built on the scalar product. */
Mat4 expm(const Mat4 &m);

/** Faddeev-LeVerrier characteristic polynomial (scalar products). */
std::array<Complex, 4> characteristicPolynomial(const Mat4 &m);

/** Durand-Kerner eigenvalues on the scalar characteristic polynomial. */
std::array<Complex, 4> eigenvalues4(const Mat4 &m);

/** Cyclic Jacobi eigensolver for real symmetric 4x4 matrices. */
SymEig4 jacobiEigen4(const Sym4 &m);

/** Simultaneous diagonalization of a commuting symmetric pair. */
Sym4 simultaneousDiagonalize(const Sym4 &a, const Sym4 &b,
                             double degeneracy_tol = 1e-9);

} // namespace mirage::linalg::reference

#endif // MIRAGE_TESTS_SUPPORT_LINALG_REFERENCE_HH
