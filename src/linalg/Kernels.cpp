//===- linalg/Kernels.cpp - SIMD kernels for the GP/Newton hot path -------===//
//
// The only translation unit compiled with native vector flags (and with
// -ffp-contract=off, so the scalar backend cannot be silently fused into
// FMA). Every kernel follows the fixed blocking/association order
// documented in Kernels.h; see the bit-identity tests in
// tests/SimdKernelsTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "linalg/Kernels.h"

#include "support/Simd.h"

#include <cmath>

using namespace thistle;
using simd::Pack4;

const char *kernels::backendName() { return simd::backendName(); }

std::size_t kernels::packWidth() { return simd::PackWidth; }

double kernels::dot(const double *A, const double *B, std::size_t N) {
  Pack4 Acc = simd::zero();
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    Acc = simd::add(Acc, simd::mul(simd::load(A + I), simd::load(B + I)));
  double S = simd::hsum(Acc);
  for (; I < N; ++I)
    S += A[I] * B[I];
  return S;
}

double kernels::sum(const double *A, std::size_t N) {
  Pack4 Acc = simd::zero();
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    Acc = simd::add(Acc, simd::load(A + I));
  double S = simd::hsum(Acc);
  for (; I < N; ++I)
    S += A[I];
  return S;
}

namespace {

/// The body of kernels::axpy, inlined into the triangle kernels so a
/// whole triangle is one call.
inline void axpyRow(double *Y, double Alpha, const double *X, std::size_t N) {
  const Pack4 VA = simd::set1(Alpha);
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    simd::store(Y + I,
                simd::add(simd::load(Y + I),
                          simd::mul(VA, simd::load(X + I))));
  for (; I < N; ++I)
    Y[I] += Alpha * X[I];
}

} // namespace

void kernels::axpy(double *Y, double Alpha, const double *X, std::size_t N) {
  axpyRow(Y, Alpha, X, N);
}

void kernels::axpby(double *Out, const double *A, double Alpha,
                    const double *B, std::size_t N) {
  const Pack4 VA = simd::set1(Alpha);
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4)
    simd::store(Out + I,
                simd::add(simd::load(A + I),
                          simd::mul(VA, simd::load(B + I))));
  for (; I < N; ++I)
    Out[I] = A[I] + Alpha * B[I];
}

double kernels::expAccum(double *E, std::size_t N, double Max) {
  Pack4 Acc = simd::zero();
  std::size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    // The exponential stays the scalar libm call in every backend, so
    // per-element values never depend on THISTLE_SIMD.
    E[I] = std::exp(E[I] - Max);
    E[I + 1] = std::exp(E[I + 1] - Max);
    E[I + 2] = std::exp(E[I + 2] - Max);
    E[I + 3] = std::exp(E[I + 3] - Max);
    Acc = simd::add(Acc, simd::load(E + I));
  }
  double S = simd::hsum(Acc);
  for (; I < N; ++I) {
    E[I] = std::exp(E[I] - Max);
    S += E[I];
  }
  return S;
}

void kernels::gramAccumLower(double *H, const double *Row, double W,
                             std::size_t N) {
  for (std::size_t I = 0; I < N; ++I)
    axpyRow(H + I * N, W * Row[I], Row, I + 1);
}

void kernels::rank1SubLower(double *H, const double *G, std::size_t N) {
  for (std::size_t I = 0; I < N; ++I) {
    double *Hr = H + I * N;
    const Pack4 Gi = simd::set1(G[I]);
    std::size_t J = 0;
    for (; J + 4 <= I + 1; J += 4)
      simd::store(Hr + J, simd::sub(simd::load(Hr + J),
                                    simd::mul(Gi, simd::load(G + J))));
    for (; J <= I; ++J)
      Hr[J] -= G[I] * G[J];
  }
}

void kernels::axpyLower(double *Y, std::size_t LdY, double Alpha,
                        const double *X, std::size_t LdX, std::size_t N) {
  for (std::size_t I = 0; I < N; ++I)
    axpyRow(Y + I * LdY, Alpha, X + I * LdX, I + 1);
}

void kernels::rowDotsSparse(double *Out, const double *A, std::size_t N,
                            const unsigned *NzCols, const unsigned *NzBegin,
                            std::size_t K, const double *X, const double *B) {
  // Columns below N4 belong to lane (column mod 4) of dot's blocked
  // loop; the rest to its sequential tail.
  const std::size_t N4 = N & ~std::size_t(3);
  for (std::size_t R = 0; R < K; ++R) {
    const double *Row = A + R * N;
    const unsigned *Nz = NzCols + NzBegin[R], *End = NzCols + NzBegin[R + 1];
    double L[4] = {0.0, 0.0, 0.0, 0.0};
    for (; Nz != End && *Nz < N4; ++Nz)
      L[*Nz & 3] += Row[*Nz] * X[*Nz];
    double S = (L[0] + L[1]) + (L[2] + L[3]);
    for (; Nz != End; ++Nz)
      S += Row[*Nz] * X[*Nz];
    Out[R] = S + B[R];
  }
}

void kernels::axpySparse(double *Y, double Alpha, const double *X,
                         const unsigned *Nz, std::size_t NumNz) {
  for (std::size_t K = 0; K < NumNz; ++K)
    Y[Nz[K]] += Alpha * X[Nz[K]];
}

void kernels::gramAccumLowerSparse(double *H, const double *Row,
                                   const unsigned *Nz, std::size_t NumNz,
                                   double W, std::size_t N) {
  for (std::size_t P = 0; P < NumNz; ++P) {
    double *Hi = H + Nz[P] * N;
    const double Wi = W * Row[Nz[P]];
    for (std::size_t Q = 0; Q <= P; ++Q)
      Hi[Nz[Q]] += Wi * Row[Nz[Q]];
  }
}

bool kernels::choleskyFactor(double *A, std::size_t N) {
  for (std::size_t J = 0; J < N; ++J) {
    double *RowJ = A + J * N;
    double Diag = RowJ[J] - dot(RowJ, RowJ, J);
    if (!(Diag > 0.0) || !std::isfinite(Diag))
      return false;
    double L = std::sqrt(Diag);
    RowJ[J] = L;
    for (std::size_t I = J + 1; I < N; ++I) {
      double *RowI = A + I * N;
      RowI[J] = (RowI[J] - dot(RowI, RowJ, J)) / L;
    }
  }
  return true;
}

void kernels::choleskySubstitute(const double *L, std::size_t N,
                                 const double *B, double *X,
                                 double *Scratch) {
  // Forward substitution L * Y = B; Y lives in X.
  for (std::size_t I = 0; I < N; ++I)
    X[I] = (B[I] - dot(L + I * N, X, I)) / L[I * N + I];
  // Transpose the factor so back substitution reads contiguous rows.
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I; J < N; ++J)
      Scratch[I * N + J] = L[J * N + I];
  // Back substitution L^T * X = Y.
  for (std::size_t II = N; II > 0; --II) {
    std::size_t I = II - 1;
    X[I] = (X[I] - dot(Scratch + I * N + I + 1, X + I + 1, N - I - 1)) /
           Scratch[I * N + I];
  }
}

bool kernels::choleskySolveInPlace(double *A, std::size_t N,
                                   const double *B, double *X,
                                   double *Scratch) {
  if (!choleskyFactor(A, N))
    return false;
  choleskySubstitute(A, N, B, X, Scratch);
  return true;
}

namespace {

/// Lane-batched dot over lane-interleaved rows: per lane, exactly the
/// blocked association order of kernels::dot (four partials over blocks
/// of four, combined (l0+l1)+(l2+l3), sequential tail).
Pack4 batchDot(const double *A4, const double *B4, std::size_t N) {
  Pack4 Acc0 = simd::zero(), Acc1 = simd::zero();
  Pack4 Acc2 = simd::zero(), Acc3 = simd::zero();
  std::size_t K = 0;
  for (; K + 4 <= N; K += 4) {
    Acc0 = simd::add(Acc0, simd::mul(simd::load(A4 + (K + 0) * 4),
                                     simd::load(B4 + (K + 0) * 4)));
    Acc1 = simd::add(Acc1, simd::mul(simd::load(A4 + (K + 1) * 4),
                                     simd::load(B4 + (K + 1) * 4)));
    Acc2 = simd::add(Acc2, simd::mul(simd::load(A4 + (K + 2) * 4),
                                     simd::load(B4 + (K + 2) * 4)));
    Acc3 = simd::add(Acc3, simd::mul(simd::load(A4 + (K + 3) * 4),
                                     simd::load(B4 + (K + 3) * 4)));
  }
  Pack4 S = simd::add(simd::add(Acc0, Acc1), simd::add(Acc2, Acc3));
  for (; K < N; ++K)
    S = simd::add(S, simd::mul(simd::load(A4 + K * 4),
                               simd::load(B4 + K * 4)));
  return S;
}

} // namespace

kernels::CholeskyBatch4Ok
kernels::choleskySolveBatch4(double *A4, const double *B4, double *X4,
                             std::size_t N, double *Scratch4) {
  CholeskyBatch4Ok R{{true, true, true, true}};

  // Factorization: per lane the same sequence as choleskyFactor. Lanes
  // that hit a bad pivot are flagged and keep running on garbage (NaN
  // stays confined to its lane); their X4 lanes are ignored by callers.
  for (std::size_t J = 0; J < N; ++J) {
    double *RowJ = A4 + J * N * 4;
    Pack4 Diag = simd::sub(simd::load(RowJ + J * 4), batchDot(RowJ, RowJ, J));
    double DiagLanes[4];
    simd::store(DiagLanes, Diag);
    for (int S = 0; S < 4; ++S)
      if (!(DiagLanes[S] > 0.0) || !std::isfinite(DiagLanes[S]))
        R.Ok[S] = false;
    Pack4 L = simd::sqrt(Diag);
    simd::store(RowJ + J * 4, L);
    for (std::size_t I = J + 1; I < N; ++I) {
      double *RowI = A4 + I * N * 4;
      Pack4 V = simd::sub(simd::load(RowI + J * 4), batchDot(RowI, RowJ, J));
      simd::store(RowI + J * 4, simd::div(V, L));
    }
  }

  // Forward substitution L * Y = B; Y lives in X4.
  for (std::size_t I = 0; I < N; ++I) {
    Pack4 V = simd::sub(simd::load(B4 + I * 4),
                        batchDot(A4 + I * N * 4, X4, I));
    simd::store(X4 + I * 4, simd::div(V, simd::load(A4 + (I * N + I) * 4)));
  }
  // Transposed factor, then back substitution L^T * X = Y.
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = I; J < N; ++J)
      simd::store(Scratch4 + (I * N + J) * 4,
                  simd::load(A4 + (J * N + I) * 4));
  for (std::size_t II = N; II > 0; --II) {
    std::size_t I = II - 1;
    Pack4 V = simd::sub(simd::load(X4 + I * 4),
                        batchDot(Scratch4 + (I * N + I + 1) * 4,
                                 X4 + (I + 1) * 4, N - I - 1));
    simd::store(X4 + I * 4,
                simd::div(V, simd::load(Scratch4 + (I * N + I) * 4)));
  }
  return R;
}
