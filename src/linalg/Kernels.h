//===- linalg/Kernels.h - SIMD kernels for the GP/Newton hot path -*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The portable SIMD kernel layer for the barrier-Newton inner loops:
/// blocked dot/sum/axpy, the fused exp-and-accumulate used by log-sum-exp
/// value/gradient/Hessian assembly, lower-triangle Hessian updates,
/// and a blocked dense Cholesky factor/solve plus a lane-batched variant
/// that factors four same-size SPD systems at once (one SIMD lane per
/// system — the regularization-ladder rungs of a Newton step share one
/// kernel invocation).
///
/// Determinism rule (docs/PERF.md): every kernel uses a *fixed* blocking
/// and association order — reductions accumulate four partial sums over
/// blocks of four elements, combine them as `(l0 + l1) + (l2 + l3)`, and
/// fold the tail sequentially — independent of the instruction set
/// selected by `THISTLE_SIMD`. Element-wise kernels (axpy, triangle updates)
/// perform exactly one mul and one add per element, never an FMA. The
/// result of every kernel is therefore bit-identical across
/// `THISTLE_SIMD=off/scalar/native`, which keeps full solver trajectories
/// (Newton counts, incidents, winners) invariant under the backend. The
/// lane-batched Cholesky performs, per lane, the same operation sequence
/// as the single-system kernel, so batching is bit-invisible too.
///
/// These functions are the only code compiled with native vector flags;
/// callers (solver/GpSolver.cpp, linalg/Matrix.cpp) stay instruction-set
/// agnostic.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_LINALG_KERNELS_H
#define THISTLE_LINALG_KERNELS_H

#include <cstddef>

namespace thistle {
namespace kernels {

/// Name of the instruction set the kernels were compiled for
/// ("avx2", "sse2", "neon", or "scalar").
const char *backendName();

/// Logical register width in doubles (always 4; see support/Simd.h).
std::size_t packWidth();

/// Blocked dot product sum_i A[i]*B[i] in the fixed association order.
double dot(const double *A, const double *B, std::size_t N);

/// Blocked sum of A[0..N) in the fixed association order.
double sum(const double *A, std::size_t N);

/// Y[i] += Alpha * X[i] (element-wise; bit-identical to the scalar loop).
void axpy(double *Y, double Alpha, const double *X, std::size_t N);

/// Out[i] = A[i] + Alpha * B[i] (element-wise).
void axpby(double *Out, const double *A, double Alpha, const double *B,
           std::size_t N);

/// Fused exp-and-accumulate for log-sum-exp assembly: replaces
/// E[k] with exp(E[k] - Max) and returns the blocked sum of the results.
/// The exponential itself is always the scalar libm call, lane by lane,
/// so the per-element values match the naive loop bit for bit; only the
/// final accumulation uses the fixed blocked order.
double expAccum(double *E, std::size_t N, double Max);

/// The three symmetric-matrix updates below touch only the lower
/// triangle (j <= i) of a row-major N x N matrix: Cholesky reads nothing
/// else, so the solver assembles its Hessians as lower triangles. Each
/// is one kernel call for the whole triangle, and each element gets
/// exactly the operations of the naive loop.

/// Weighted Gram accumulation H += W * Row * Row^T for one row:
/// H[i*N + j] += (W * Row[i]) * Row[j] for j <= i.
void gramAccumLower(double *H, const double *Row, double W, std::size_t N);

/// Rank-one subtraction H[i*N + j] -= G[i] * G[j] for j <= i.
void rank1SubLower(double *H, const double *G, std::size_t N);

/// Scaled add of the lower triangle of an N x N block with row strides
/// \p LdY and \p LdX: Y[i*LdY + j] += Alpha * X[i*LdX + j] for j <= i.
void axpyLower(double *Y, std::size_t LdY, double Alpha, const double *X,
               std::size_t LdX, std::size_t N);

/// Sparse-row twins of dot, axpy and gramAccumLower. A row is passed
/// densely together with the ascending list \p Nz of its nonzero
/// columns, and must be zero elsewhere. Each kernel skips exactly the
/// terms that have one of those zeros as a factor and otherwise keeps
/// the operation order of its dense twin, lane partials included. Its
/// result is therefore the dense kernel's, bit for bit, whenever every
/// skipped product is +-0 (its other factor finite) and no accumulator
/// holds -0.0: adding +-0 leaves every other value unchanged. A sum that
/// starts at +0.0 never becomes -0.0, which is how the solver meets the
/// second condition.

/// Row dots of a K x N row-major matrix \p A plus offsets:
/// Out[k] = dot(A + k*N, X, N) + B[k], where row k is zero outside the
/// columns NzCols[NzBegin[k], NzBegin[k+1]).
void rowDotsSparse(double *Out, const double *A, std::size_t N,
                   const unsigned *NzCols, const unsigned *NzBegin,
                   std::size_t K, const double *X, const double *B);

/// axpy(Y, Alpha, X, N) for X zero outside \p Nz.
void axpySparse(double *Y, double Alpha, const double *X, const unsigned *Nz,
                std::size_t NumNz);

/// gramAccumLower(H, Row, W, N) for Row zero outside \p Nz.
void gramAccumLowerSparse(double *H, const double *Row, const unsigned *Nz,
                          std::size_t NumNz, double W, std::size_t N);

/// In-place lower-triangular Cholesky factorization of the row-major
/// N x N matrix \p A, with blocked inner dot products. Returns false if
/// a pivot is non-positive or non-finite (A not numerically SPD); \p A
/// is left partially overwritten in that case.
bool choleskyFactor(double *A, std::size_t N);

/// Solves L * L^T * X = B given the factor produced by choleskyFactor.
/// \p Scratch must hold at least N*N doubles (used to transpose L so the
/// back substitution runs on contiguous rows).
void choleskySubstitute(const double *L, std::size_t N, const double *B,
                        double *X, double *Scratch);

/// Factor-and-solve of one SPD system: A is overwritten with its factor.
/// \p Scratch must hold at least N*N doubles.
bool choleskySolveInPlace(double *A, std::size_t N, const double *B,
                          double *X, double *Scratch);

/// Lane-batched Cholesky: factors and solves four same-size SPD systems
/// at once, one SIMD lane per system. All arrays are lane-interleaved
/// SoA: entry (i, j) of system s lives at [(i*N + j)*4 + s]. \p A4 is
/// overwritten; \p Scratch4 must hold at least N*N*4 doubles. Ok[s] is
/// true iff system s factored (every pivot positive and finite); the
/// X4 lanes of failed systems are garbage and must be ignored.
///
/// Each lane performs exactly the operation sequence of choleskyFactor /
/// choleskySubstitute, so a lane's solution is bit-identical to solving
/// that system alone.
struct CholeskyBatch4Ok {
  bool Ok[4];
};
CholeskyBatch4Ok choleskySolveBatch4(double *A4, const double *B4,
                                     double *X4, std::size_t N,
                                     double *Scratch4);

} // namespace kernels
} // namespace thistle

#endif // THISTLE_LINALG_KERNELS_H
