//===- bench/bench_simd_kernels.cpp - Kernel-layer SIMD throughput --------===//
//
// Single-thread micro-benchmarks of the linalg kernel layer against the
// naive scalar loops the solver used before the layer existed: blocked
// dot, axpy, the fused exp-and-accumulate of log-sum-exp assembly, and
// the dense Cholesky factor+solve. Timings are min-of-N over many inner
// iterations; the headline speedups are written to BENCH_parallel.json
// as its "simd" section (replacing an earlier one) so the perf trajectory
// is tracked from change to change.
//
// The naive references live in this translation unit, which is built
// with the project's default flags — exactly how the pre-kernel solver
// code was compiled — while the kernels come from the Kernels.cpp TU
// built under THISTLE_SIMD. The comparison is therefore the real
// before/after of the kernel layer, not a strawman.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "linalg/Kernels.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace thistle;
using namespace thistle::bench;

namespace {

constexpr unsigned Reps = 5;

/// xorshift-style deterministic fill in (0.1, 1.1) — safely away from
/// zero so Cholesky pivots stay positive.
void fill(std::vector<double> &V, std::uint64_t Seed) {
  std::uint64_t S = Seed * 2654435761u + 1;
  for (double &X : V) {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    X = 0.1 + static_cast<double>(S % 1000003) / 1000003.0;
  }
}

// ---- Naive references (the seed's scalar loops). -----------------------

double naiveDot(const double *A, const double *B, std::size_t N) {
  double S = 0.0;
  for (std::size_t I = 0; I < N; ++I)
    S += A[I] * B[I];
  return S;
}

void naiveAxpy(double *Y, double Alpha, const double *X, std::size_t N) {
  for (std::size_t I = 0; I < N; ++I)
    Y[I] += Alpha * X[I];
}

double naiveExpAccum(double *E, std::size_t N, double Max) {
  double S = 0.0;
  for (std::size_t I = 0; I < N; ++I) {
    E[I] = std::exp(E[I] - Max);
    S += E[I];
  }
  return S;
}

bool naiveCholeskySolve(double *A, std::size_t N, const double *B,
                        double *X) {
  for (std::size_t J = 0; J < N; ++J) {
    double Diag = A[J * N + J] - naiveDot(A + J * N, A + J * N, J);
    if (!(Diag > 0.0) || !std::isfinite(Diag))
      return false;
    double L = std::sqrt(Diag);
    A[J * N + J] = L;
    for (std::size_t I = J + 1; I < N; ++I)
      A[I * N + J] = (A[I * N + J] - naiveDot(A + I * N, A + J * N, J)) / L;
  }
  for (std::size_t I = 0; I < N; ++I)
    X[I] = (B[I] - naiveDot(A + I * N, X, I)) / A[I * N + I];
  for (std::size_t II = N; II > 0; --II) {
    std::size_t I = II - 1;
    double S = 0.0;
    for (std::size_t J = I + 1; J < N; ++J)
      S += A[J * N + I] * X[J]; // Column access: the pre-kernel layout.
    X[I] = (X[I] - S) / A[I * N + I];
  }
  return true;
}

// ---- Timing. -----------------------------------------------------------

struct KernelTiming {
  const char *Name;
  double NaiveSeconds;
  double KernelSeconds;
  double speedup() const { return NaiveSeconds / KernelSeconds; }
};

volatile double Sink; // Defeats dead-code elimination of timed loops.

KernelTiming timeDot(std::size_t N, unsigned Iters) {
  std::vector<double> A(N), B(N);
  fill(A, 1);
  fill(B, 2);
  KernelTiming T{"dot", 0.0, 0.0};
  T.NaiveSeconds = minSecondsOfN(Reps, [&] {
    double S = 0.0;
    for (unsigned I = 0; I < Iters; ++I)
      S += naiveDot(A.data(), B.data(), N);
    Sink = S;
  });
  T.KernelSeconds = minSecondsOfN(Reps, [&] {
    double S = 0.0;
    for (unsigned I = 0; I < Iters; ++I)
      S += kernels::dot(A.data(), B.data(), N);
    Sink = S;
  });
  return T;
}

KernelTiming timeAxpy(std::size_t N, unsigned Iters) {
  std::vector<double> Y(N), X(N);
  fill(X, 3);
  KernelTiming T{"axpy", 0.0, 0.0};
  T.NaiveSeconds = minSecondsOfN(Reps, [&] {
    std::fill(Y.begin(), Y.end(), 0.0);
    for (unsigned I = 0; I < Iters; ++I)
      naiveAxpy(Y.data(), 1e-6, X.data(), N);
    Sink = Y[0];
  });
  T.KernelSeconds = minSecondsOfN(Reps, [&] {
    std::fill(Y.begin(), Y.end(), 0.0);
    for (unsigned I = 0; I < Iters; ++I)
      kernels::axpy(Y.data(), 1e-6, X.data(), N);
    Sink = Y[0];
  });
  return T;
}

KernelTiming timeExpAccum(std::size_t N, unsigned Iters) {
  std::vector<double> E0(N), E(N);
  fill(E0, 4);
  KernelTiming T{"exp_accum", 0.0, 0.0};
  T.NaiveSeconds = minSecondsOfN(Reps, [&] {
    double S = 0.0;
    for (unsigned I = 0; I < Iters; ++I) {
      E = E0;
      S += naiveExpAccum(E.data(), N, 1.1);
    }
    Sink = S;
  });
  T.KernelSeconds = minSecondsOfN(Reps, [&] {
    double S = 0.0;
    for (unsigned I = 0; I < Iters; ++I) {
      E = E0;
      S += kernels::expAccum(E.data(), N, 1.1);
    }
    Sink = S;
  });
  return T;
}

KernelTiming timeCholesky(std::size_t N, unsigned Iters) {
  // SPD system: G^T G + N * I, built once; each iteration re-factors a
  // fresh copy (factorization is in-place).
  std::vector<double> G(N * N), SPD(N * N, 0.0), B(N), A(N * N), X(N),
      Scratch(N * N);
  fill(G, 5);
  fill(B, 6);
  for (std::size_t I = 0; I < N; ++I)
    for (std::size_t J = 0; J < N; ++J) {
      double S = 0.0;
      for (std::size_t K = 0; K < N; ++K)
        S += G[K * N + I] * G[K * N + J];
      SPD[I * N + J] = S + (I == J ? static_cast<double>(N) : 0.0);
    }
  KernelTiming T{"cholesky", 0.0, 0.0};
  T.NaiveSeconds = minSecondsOfN(Reps, [&] {
    double S = 0.0;
    for (unsigned I = 0; I < Iters; ++I) {
      std::memcpy(A.data(), SPD.data(), N * N * sizeof(double));
      std::fill(X.begin(), X.end(), 0.0);
      naiveCholeskySolve(A.data(), N, B.data(), X.data());
      S += X[0];
    }
    Sink = S;
  });
  T.KernelSeconds = minSecondsOfN(Reps, [&] {
    double S = 0.0;
    for (unsigned I = 0; I < Iters; ++I) {
      std::memcpy(A.data(), SPD.data(), N * N * sizeof(double));
      std::fill(X.begin(), X.end(), 0.0);
      kernels::choleskySolveInPlace(A.data(), N, B.data(), X.data(),
                                    Scratch.data());
      S += X[0];
    }
    Sink = S;
  });
  return T;
}

} // namespace

int main() {
  printHeader("SIMD kernel throughput",
              "Single-thread kernel-layer timings against the naive "
              "scalar loops the\nsolver used before the kernel layer "
              "(min-of-N, many inner iterations).\nAll kernels are "
              "bit-identical to their references across every\n"
              "THISTLE_SIMD setting; only the speed differs.");

  std::printf("backend: %s (pack width %zu)\n\n", kernels::backendName(),
              kernels::packWidth());

  // Sizes chosen to match the solver's regime: LSE rows and Newton
  // systems are tens of variables, Hessian sweeps touch hundreds of
  // contiguous doubles.
  KernelTiming Timings[] = {
      timeDot(256, 200000),
      timeAxpy(256, 200000),
      timeExpAccum(128, 100000),
      timeCholesky(48, 4000),
  };

  double MinSpeedup = Timings[0].speedup();
  std::string Section = "{\n    \"backend\": \"" +
                        std::string(kernels::backendName()) + "\",\n";
  for (const KernelTiming &T : Timings) {
    std::printf("%-10s naive %8.4fs   kernels %8.4fs   speedup %.2fx\n",
                T.Name, T.NaiveSeconds, T.KernelSeconds, T.speedup());
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "    \"%s_speedup\": %.3f,\n", T.Name,
                  T.speedup());
    Section += Buf;
    MinSpeedup = std::min(MinSpeedup, T.speedup());
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "    \"min_speedup\": %.3f\n  }",
                MinSpeedup);
  Section += Buf;

  writeJsonMember("BENCH_parallel.json", "simd", Section);
  std::printf("\nwrote the simd section of BENCH_parallel.json\n");
  return 0;
}
