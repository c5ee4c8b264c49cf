//===- solver/GpSolver.cpp - Interior-point GP solver ---------------------===//
//
// The barrier-Newton inner loops (log-sum-exp value/gradient/Hessian
// assembly, the regularized Newton solve, the backtracking line search)
// run on the SIMD kernel layer (linalg/Kernels.h): LSE exponent rows are
// stored as one contiguous matrix, per-iteration buffers live in a
// SolverScratch that is reused across the whole solve, and the Newton
// regularization ladder factors four lambda rungs per lane-batched
// Cholesky call. Results are bit-identical across every THISTLE_SIMD
// setting (see docs/PERF.md).
//
// The barrier is assembled from the program's structure, with every
// floating-point result that of the plain dense log-sum-exp assembly:
// a single-term (affine) constraint skips the exp/log and the Hessian
// passes that sum to exactly zero, exponent rows visit only their
// nonzero columns, Hessians are built as lower triangles (all Cholesky
// reads), and the line search tests feasibility before it takes a log
// (docs/SOLVER.md, "Affine constraints and the lower triangle").
//
//===----------------------------------------------------------------------===//

#include "solver/GpSolver.h"

#include "linalg/Kernels.h"
#include "linalg/Matrix.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

using namespace thistle;

namespace {

/// True when every entry is finite (guards Newton against NaN/inf
/// leaking out of an ill-conditioned derivative evaluation).
bool allFinite(const Vector &V) {
  for (double X : V)
    if (!std::isfinite(X))
      return false;
  return true;
}

/// Exponent rows a_k over the reduced variables z with offsets b_k, as
/// one contiguous K x Reduced matrix so the kernels stream them without
/// pointer chasing. The rows are sparse (a variable bound touches one or
/// two reduced variables, an objective term four or five), so each keeps
/// the list of its nonzero columns and runs on the sparse-row kernels.
/// Those equal the dense kernels bit for bit here: every point z the
/// solver evaluates is finite, every softmax weight of a step whose
/// gradient is finite lies in [0, 1], and every accumulator starts at
/// +0.0 (see kernels::rowDotsSparse).
struct SparseRows {
  Matrix Rows;
  Vector Offsets;
  /// Nonzero columns of row k, ascending: NzCols[NzBegin[k], NzBegin[k+1]).
  std::vector<unsigned> NzCols, NzBegin;
  /// max(1, largest |a_ki|): |W * a_ki| <= |W| * RowBound for every
  /// entry, and for the -1 slack entry of a phase-one gradient.
  double RowBound = 1.0;

  std::size_t size() const { return Rows.rows(); }
  const unsigned *nz(std::size_t K) const {
    return NzCols.data() + NzBegin[K];
  }
  std::size_t numNz(std::size_t K) const {
    return NzBegin[K + 1] - NzBegin[K];
  }

  /// True when row K's exponents and offset are all finite.
  bool finite(std::size_t K) const {
    const double *Row = Rows.row(K);
    return std::isfinite(Offsets[K]) &&
           std::all_of(Row, Row + Rows.cols(),
                       [](double X) { return std::isfinite(X); });
  }
  bool finite() const {
    for (std::size_t K = 0; K < size(); ++K)
      if (!finite(K))
        return false;
    return true;
  }

  /// Out[k] = a_k . z + b_k for every row.
  void values(const Vector &Z, double *Out) const {
    assert(Z.size() == Rows.cols() && "rows evaluated at the wrong dimension");
    kernels::rowDotsSparse(Out, Rows.data(), Rows.cols(), NzCols.data(),
                           NzBegin.data(), size(), Z.data(), Offsets.data());
  }
};

/// The terms of \p Posy, which must be a posynomial.
std::vector<const Monomial *> termsOf(const Posynomial &Posy) {
  assert(Posy.isPosynomial() && "log transform requires a posynomial");
  std::vector<const Monomial *> Terms;
  for (const Monomial &M : Posy.monomials())
    Terms.push_back(&M);
  return Terms;
}

/// Compiles \p Monomials over the affine substitution y = Y0 + Z z: the
/// reduced row a' = Z^T a and offset b' = ln c + a . y0 of each.
SparseRows compileRows(const std::vector<const Monomial *> &Monomials,
                       const VarTable &Vars, const Vector &Y0,
                       const Matrix &Z) {
  const std::size_t Reduced = Z.cols();
  SparseRows R;
  R.Rows = Matrix(Monomials.size(), Reduced);
  R.Offsets.assign(Monomials.size(), 0.0);
  R.NzBegin.push_back(0);
  Vector A(Vars.size(), 0.0);
  for (std::size_t K = 0; K < Monomials.size(); ++K) {
    const Monomial &M = *Monomials[K];
    // Full-space exponent vector a over y.
    std::fill(A.begin(), A.end(), 0.0);
    for (const Monomial::Term &T : M.terms())
      A[T.Var] = T.Exp;
    double *Row = R.Rows.row(K);
    for (std::size_t I = 0; I < Vars.size(); ++I)
      if (A[I] != 0.0)
        kernels::axpy(Row, A[I], Z.row(I), Reduced);
    R.Offsets[K] = std::log(M.coefficient()) + dot(A, Y0);
    for (std::size_t J = 0; J < Reduced; ++J)
      if (Row[J] != 0.0) {
        R.NzCols.push_back(static_cast<unsigned>(J));
        R.RowBound = std::max(R.RowBound, std::fabs(Row[J]));
      }
    R.NzBegin.push_back(static_cast<unsigned>(R.NzCols.size()));
  }
  return R;
}

/// What the log-sum-exp of one term, Max + log(exp(0)), returns for
/// the exponent \p V: V itself, and NaN unless V is finite. (It gave
/// +0.0 for a -0.0; every caller tests G < 0 or subtracts a non-zero
/// slack, so the sign of a zero is moot.)
double affineValue(double V) {
  return std::isfinite(V) ? V : std::numeric_limits<double>::quiet_NaN();
}

/// A log-sum-exp function over the reduced variables z:
///   F(z) = log sum_k exp(A_k . z + B_k),
/// precompiled from a posynomial of two or more terms.
struct LseFunction {
  SparseRows Terms;

  /// Value only. \p E is exponent scratch, resized to the term count.
  double value(const Vector &Z, Vector &E) const {
    double Max = exponents(Z, E);
    double Sum = kernels::expAccum(E.data(), E.size(), Max);
    return Max + std::log(Sum);
  }

  /// Value, gradient, and the lower triangle of the Hessian (its strict
  /// upper triangle is left zero). The Hessian of a log-sum-exp is
  /// sum_k w_k a_k a_k^T - g g^T with softmax weights w. \p E is
  /// exponent scratch; \p Grad / \p Hess are overwritten.
  double valueGradHess(const Vector &Z, Vector &Grad, Matrix &Hess,
                       Vector &E) const {
    const std::size_t K = Terms.size(), N = Z.size();
    double Max = exponents(Z, E);
    double Sum = kernels::expAccum(E.data(), K, Max);
    Grad.assign(N, 0.0);
    for (std::size_t T = 0; T < K; ++T)
      kernels::axpySparse(Grad.data(), E[T] / Sum, Terms.Rows.row(T),
                          Terms.nz(T), Terms.numNz(T));
    Hess.reset(N, N);
    for (std::size_t T = 0; T < K; ++T)
      kernels::gramAccumLowerSparse(Hess.data(), Terms.Rows.row(T),
                                    Terms.nz(T), Terms.numNz(T), E[T] / Sum,
                                    N);
    kernels::rank1SubLower(Hess.data(), Grad.data(), N);
    return Max + std::log(Sum);
  }

private:
  /// Fills \p E with every exponent A_k . z + B_k; returns their maximum.
  double exponents(const Vector &Z, Vector &E) const {
    E.resize(Terms.size());
    Terms.values(Z, E.data());
    double Max = -std::numeric_limits<double>::infinity();
    for (double X : E)
      Max = std::max(Max, X);
    return Max;
  }
};

/// Per-solve scratch: every buffer the barrier-Newton loops need, sized
/// once and reused so the hot path performs no per-iteration heap
/// allocation. A4/B4/X4/S4 are the lane-interleaved SoA buffers of the
/// batched Cholesky (kernels::choleskySolveBatch4).
struct SolverScratch {
  Vector E;              ///< LSE exponent buffer.
  Vector AffineG;        ///< Affine constraint values, one per row.
  Vector CurvedG;        ///< Multi-term constraint values.
  Vector Gz;             ///< Objective/constraint gradient.
  Matrix Hz;             ///< Objective/constraint Hessian.
  Vector Gw;             ///< Phase-one gradient with the slack lane.
  std::vector<unsigned> GwNz; ///< Nonzero columns of an affine Gw.
  Vector Zs;             ///< Phase-one slice of W (drops the slack).
  Vector Grad;           ///< Barrier gradient.
  Matrix Hess;           ///< Barrier Hessian (lower triangle).
  Vector NegGrad;        ///< Newton right-hand side.
  Vector Step;           ///< Newton direction.
  Vector Trial;          ///< Line-search trial point.
  Vector A4, B4, X4, S4; ///< Batched-Cholesky lane-interleaved buffers.
};

/// Barrier-method state shared by the two phases. The constraints G_i
/// are split by structure: a single-term one is affine in z, G = a.z + b,
/// with a zero Hessian, and all of them share one SparseRows block.
struct BarrierContext {
  LseFunction Objective;
  SparseRows Affine;               ///< One row per single-term constraint.
  std::vector<LseFunction> Curved; ///< The multi-term constraints.
  /// Constraint i in program order: row Index of Affine, or
  /// Curved[Index].
  struct Ref {
    bool IsAffine;
    std::size_t Index;
  };
  std::vector<Ref> Order;
};

/// One centering step: minimizes T * f(W) + Phi(W) where f is the phase
/// objective and Phi the log barrier of the phase constraints, starting
/// from the strictly feasible \p W. \p PhaseOne switches the objective to
/// the slack variable (last coordinate of W) and offsets every constraint
/// by -s. Returns false on numerical failure.
///
/// In phase one, W = (z, s) and constraints are G_i(z) - s <= 0.
/// In phase two, W = z and constraints are G_i(z) <= 0.
class CenteringProblem {
public:
  CenteringProblem(const BarrierContext &Ctx, bool PhaseOne)
      : Ctx(Ctx), PhaseOne(PhaseOne) {}

  /// Fills S.AffineG and S.CurvedG with every constraint value G_i(W)
  /// (including the -s offset in phase one), the affine ones first, and
  /// returns false at the first one that is not strictly negative (NaN
  /// included). A non-finite W is outside the domain, which keeps every
  /// point the sparse kernels see finite.
  bool strictlyFeasible(const Vector &W, SolverScratch &S) const {
    if (!allFinite(W))
      return false;
    const Vector &Z = sliceW(W, S);
    S.AffineG.resize(Ctx.Affine.size());
    Ctx.Affine.values(Z, S.AffineG.data());
    for (double &G : S.AffineG) {
      G = affineValue(G);
      if (PhaseOne)
        G -= W.back();
      if (!(G < 0.0))
        return false;
    }
    S.CurvedG.resize(Ctx.Curved.size());
    for (std::size_t I = 0; I < Ctx.Curved.size(); ++I) {
      double G = Ctx.Curved[I].value(Z, S.E);
      if (PhaseOne)
        G -= W.back();
      if (!(G < 0.0))
        return false;
      S.CurvedG[I] = G;
    }
    return true;
  }

  /// Phase objective value (no barrier).
  double objectiveValue(const Vector &W, SolverScratch &S) const {
    if (PhaseOne)
      return W.back();
    return Ctx.Objective.value(W, S.E);
  }

  /// Full barrier objective T*f + Phi; +inf outside the domain, found
  /// before any log is taken. Phi sums in program order.
  double barrierValue(double T, const Vector &W, SolverScratch &S) const {
    if (!strictlyFeasible(W, S))
      return std::numeric_limits<double>::infinity();
    double Phi = 0.0;
    for (const BarrierContext::Ref &C : Ctx.Order)
      Phi -= std::log(-(C.IsAffine ? S.AffineG[C.Index]
                                   : S.CurvedG[C.Index]));
    return T * objectiveValue(W, S) + Phi;
  }

  /// Gradient and Hessian (lower triangle) of the barrier objective at
  /// strictly feasible W. \p Grad / \p Hess are overwritten; the
  /// remaining scratch buffers of \p S (E, AffineG, Gz, Hz, Gw, GwNz, Zs)
  /// are clobbered.
  void barrierDerivatives(double T, const Vector &W, Vector &Grad,
                          Matrix &Hess, SolverScratch &S) const {
    const std::size_t N = W.size();
    Grad.assign(N, 0.0);
    Hess.reset(N, N);

    // Objective part.
    if (PhaseOne) {
      Grad[N - 1] += T;
    } else {
      Ctx.Objective.valueGradHess(W, S.Gz, S.Hz, S.E);
      kernels::axpy(Grad.data(), T, S.Gz.data(), N);
      kernels::axpyLower(Hess.data(), N, T, S.Hz.data(), N, N);
    }

    // Barrier part: -sum log(-G_i), in program order.
    const Vector &Z = sliceW(W, S);
    const std::size_t Nz = Z.size();
    S.AffineG.resize(Ctx.Affine.size());
    Ctx.Affine.values(Z, S.AffineG.data());
    for (const BarrierContext::Ref &C : Ctx.Order) {
      // An affine constraint's gradient is its (sparse) row, and its
      // Hessian is zero: the curvature term below would add exactly +0.0.
      double Gv;
      const double *Gw;
      const unsigned *GwNz = nullptr;
      std::size_t GwNumNz = 0;
      if (C.IsAffine) {
        Gv = affineValue(S.AffineG[C.Index]);
        Gw = Ctx.Affine.Rows.row(C.Index);
        GwNz = Ctx.Affine.nz(C.Index);
        GwNumNz = Ctx.Affine.numNz(C.Index);
      } else {
        Gv = Ctx.Curved[C.Index].valueGradHess(Z, S.Gz, S.Hz, S.E);
        Gw = S.Gz.data();
      }
      // Extend the gradient with the slack coordinate in phase one.
      if (PhaseOne) {
        Gv -= W.back();
        S.Gw.resize(N);
        std::copy(Gw, Gw + Nz, S.Gw.begin());
        S.Gw[N - 1] = -1.0;
        Gw = S.Gw.data();
        if (GwNz) {
          S.GwNz.assign(GwNz, GwNz + GwNumNz);
          S.GwNz.push_back(static_cast<unsigned>(N - 1));
          GwNz = S.GwNz.data();
          ++GwNumNz;
        }
      }
      assert(Gv < 0.0 && "barrier derivative requested outside the domain");
      double Inv = -1.0 / Gv; // 1 / (-G) > 0.
      double InvSq = Inv * Inv;
      // The sparse kernels skip products with a zero factor, which are
      // +-0 only while InvSq * Gw[i] is finite for every i.
      if (GwNz && std::isfinite(InvSq * Ctx.Affine.RowBound)) {
        kernels::axpySparse(Grad.data(), Inv, Gw, GwNz, GwNumNz);
        kernels::gramAccumLowerSparse(Hess.data(), Gw, GwNz, GwNumNz, InvSq,
                                      N);
      } else {
        kernels::axpy(Grad.data(), Inv, Gw, N);
        kernels::gramAccumLower(Hess.data(), Gw, InvSq, N);
      }
      // Constraint curvature: (1/-G) * Hess(G); slack has no curvature.
      if (!C.IsAffine)
        kernels::axpyLower(Hess.data(), N, Inv, S.Hz.data(), Nz, Nz);
    }
  }

private:
  /// The constraint-space point: W itself in phase two, W minus the
  /// trailing slack in phase one (copied into the S.Zs scratch).
  const Vector &sliceW(const Vector &W, SolverScratch &S) const {
    if (!PhaseOne)
      return W;
    S.Zs.assign(W.begin(), W.end() - 1);
    return S.Zs;
  }

  const BarrierContext &Ctx;
  bool PhaseOne;
};

/// Per-solve tallies of the centerings, reported once per solve.
struct CenteringCounts {
  /// Barrier evaluations of the line searches.
  unsigned LineSearchEvals = 0;
  /// Centerings ended because the Armijo test accepted a step that does
  /// not lower the barrier value (see centerNewton).
  unsigned Stalls = 0;
};

/// Damped-Newton minimization of the barrier objective at fixed T.
/// Returns false on numerical breakdown. \p EarlyExit, when non-null,
/// stops as soon as it returns true (used by phase one once s < -1e-7).
/// \p Centred is set only when the loop stopped on its Newton-decrement
/// test; an early exit, a stalled line search or the iteration cap
/// leave it false.
///
/// The centering also ends, uncentred, when the Armijo test accepts a
/// trial point whose barrier value is not strictly below the current
/// one. At high T the decrement can sit just above its threshold while
/// the predicted decrease 1e-4 * alpha * decrement is below the rounding
/// unit of the barrier value, so the test passes on a point that is no
/// better in double precision; every further step would repeat that at
/// the cost of a full line search (Boyd & Vandenberghe 9.5, 11.3).
///
/// The regularization ladder (12 rungs lambda = 1e-10 * 100^r) runs four
/// rungs per lane-batched Cholesky call: the Hessian is broadcast into
/// the four SIMD lanes with a different diagonal shift each, and the
/// lowest-lambda lane that factors wins — exactly the rung the
/// sequential ladder would have picked, at a quarter of the kernel
/// invocations (and with the typical all-rungs-fail-until-late Hessian
/// resolved in one or two calls instead of up to twelve). Only the lower
/// triangle is broadcast: it is all the factorization reads.
bool centerNewton(const CenteringProblem &Prob, double T, Vector &W,
                  unsigned MaxIters, unsigned &IterCounter,
                  CenteringCounts &Counts, bool (*EarlyExit)(const Vector &),
                  SolverScratch &S, bool &Centred) {
  Centred = false;
  // Barrier value at W, evaluated in the first line search and then
  // carried over from each accepted trial point, which becomes W.
  double Base = std::numeric_limits<double>::quiet_NaN();
  for (unsigned Iter = 0; Iter < MaxIters; ++Iter) {
    if (EarlyExit && EarlyExit(W))
      return true;
    Prob.barrierDerivatives(T, W, S.Grad, S.Hess, S);
    ++IterCounter;
    if (fault::shouldFail("solver.nan-grad"))
      S.Grad[0] = std::numeric_limits<double>::quiet_NaN();
    if (!allFinite(S.Grad))
      return false;

    const std::size_t N = W.size();
    S.NegGrad.resize(N);
    for (std::size_t I = 0; I < N; ++I)
      S.NegGrad[I] = -S.Grad[I];

    // Regularized Newton direction via the batched ladder.
    S.A4.resize(N * N * 4);
    S.B4.resize(N * 4);
    S.X4.resize(N * 4);
    S.S4.resize(N * N * 4);
    S.Step.resize(N);
    bool Solved = false;
    double BatchLambda = 1e-10;
    for (int Batch = 0; Batch < 3 && !Solved; ++Batch) {
      for (std::size_t I = 0; I < N; ++I) {
        const double *H = S.Hess.row(I);
        for (std::size_t J = 0; J <= I; ++J) {
          double *Slot = &S.A4[(I * N + J) * 4];
          Slot[0] = Slot[1] = Slot[2] = Slot[3] = H[J];
        }
        double *Diag = &S.A4[(I * N + I) * 4];
        double Lambda = BatchLambda;
        for (int R = 0; R < 4; ++R) {
          Diag[R] += Lambda;
          Lambda *= 100.0;
        }
        double *Rhs = &S.B4[I * 4];
        Rhs[0] = Rhs[1] = Rhs[2] = Rhs[3] = S.NegGrad[I];
      }
      kernels::CholeskyBatch4Ok Ok = kernels::choleskySolveBatch4(
          S.A4.data(), S.B4.data(), S.X4.data(), N, S.S4.data());
      for (int R = 0; R < 4 && !Solved; ++R) {
        if (!Ok.Ok[R])
          continue;
        for (std::size_t I = 0; I < N; ++I)
          S.Step[I] = S.X4[I * 4 + R];
        Solved = true;
      }
      BatchLambda *= 1e8; // 100^4: the next four rungs.
    }
    if (!Solved)
      return false;

    // Newton decrement as a stopping test.
    double Decrement = -kernels::dot(S.Grad.data(), S.Step.data(), N);
    if (!std::isfinite(Decrement))
      return false;
    if (Decrement < 0.0)
      Decrement = 0.0;
    if (Decrement * 0.5 < 1e-10) {
      Centred = true;
      return true;
    }

    // Backtracking line search with domain (feasibility) check.
    if (Iter == 0) {
      Base = Prob.barrierValue(T, W, S);
      ++Counts.LineSearchEvals;
    }
    double Alpha = 1.0;
    bool Accepted = false;
    S.Trial.resize(N);
    for (int LsIter = 0; LsIter < 60; ++LsIter) {
      kernels::axpby(S.Trial.data(), W.data(), Alpha, S.Step.data(), N);
      double Val = Prob.barrierValue(T, S.Trial, S);
      ++Counts.LineSearchEvals;
      if (Val <= Base - 1e-4 * Alpha * Decrement) {
        if (!(Val < Base)) {
          ++Counts.Stalls;
          return true; // Stalled: no representable decrease at this T.
        }
        W.swap(S.Trial);
        Base = Val;
        Accepted = true;
        break;
      }
      Alpha *= 0.5;
    }
    if (!Accepted)
      return true; // No further progress at this T.
  }
  return true;
}

/// The uninstrumented solve (the body of the public solveGp); the
/// wrapper below records the per-solve outcome metrics in one place.
/// \p Counts tallies the centerings' line searches and stalls.
GpSolution solveGpImpl(const GpProblem &Problem,
                       const GpSolverOptions &Options,
                       CenteringCounts &Counts) {
  GpSolution Solution;
  const VarTable &Vars = Problem.variables();
  const std::size_t N = Vars.size();
  assert(!Problem.objective().isZero() && "GP objective must be set");

  if (fault::shouldFail("solver.infeasible")) {
    Solution.Failure = "injected: no strictly feasible point (phase I)";
    Solution.Outcome = SolveOutcome::Infeasible;
    return Solution;
  }
  // Consumed once per solve: every phase-II convergence test of this
  // call is suppressed, so one armed hit fails exactly one solve.
  const bool ForceNonConverge = fault::shouldFail("solver.nonconverge");

  // ---- Eliminate monomial equalities: rows a . y = -ln c.
  const auto &Equalities = Problem.equalities();
  Matrix A(Equalities.size(), N);
  Vector B(Equalities.size(), 0.0);
  for (std::size_t E = 0; E < Equalities.size(); ++E) {
    const Monomial &G = Equalities[E].Lhs;
    for (const Monomial::Term &T : G.terms())
      A.at(E, T.Var) = T.Exp;
    B[E] = -std::log(G.coefficient());
  }
  Vector Y0;
  if (!solveParticular(A, B, Y0)) {
    Solution.Failure = "inconsistent monomial equality constraints";
    Solution.Outcome = SolveOutcome::Infeasible;
    return Solution;
  }
  Matrix Z = Equalities.empty() ? Matrix::identity(N) : nullSpaceOf(A);

  // ---- Compile objective and constraints into reduced log-sum-exp form.
  BarrierContext Ctx;
  Ctx.Objective.Terms = compileRows(termsOf(Problem.objective()), Vars, Y0, Z);
  if (Options.ObjectiveScale > 0.0 && Options.ObjectiveScale != 1.0) {
    // Minimize f/scale instead of f: same argmin, offsets recentred
    // near zero so exp() stays in range for huge coefficient spreads.
    const double LogScale = std::log(Options.ObjectiveScale);
    for (double &Offset : Ctx.Objective.Terms.Offsets)
      Offset -= LogScale;
  }
  std::vector<const Monomial *> AffineTerms;
  for (const GpProblem::Constraint &C : Problem.constraints()) {
    std::vector<const Monomial *> Terms = termsOf(C.Lhs);
    if (Terms.size() == 1) {
      Ctx.Order.push_back({true, AffineTerms.size()});
      AffineTerms.push_back(Terms.front());
    } else {
      Ctx.Order.push_back({false, Ctx.Curved.size()});
      Ctx.Curved.push_back({compileRows(Terms, Vars, Y0, Z)});
    }
  }
  Ctx.Affine = compileRows(AffineTerms, Vars, Y0, Z);

  // A coefficient that overflows on its way into log space (a bound of
  // 1e-320 scales its posynomial by inf) makes every value it touches
  // NaN. Refuse it here instead of letting it reach the barrier.
  auto NonFinite = [&](const std::string &Where) {
    Solution.Failure = "non-finite coefficient or exponent in " + Where +
                       " after the log transform";
    Solution.Outcome = SolveOutcome::NumericalBreakdown;
    return Solution;
  };
  if (!Ctx.Objective.Terms.finite())
    return NonFinite("the objective");
  for (std::size_t I = 0; I < Ctx.Order.size(); ++I) {
    const BarrierContext::Ref &C = Ctx.Order[I];
    if (C.IsAffine ? !Ctx.Affine.finite(C.Index)
                   : !Ctx.Curved[C.Index].Terms.finite())
      return NonFinite("constraint '" + Problem.constraints()[I].Label +
                       "'");
  }

  const std::size_t Reduced = Z.cols();
  Vector ZVec(Reduced, 0.0);
  if (Options.StartPerturbation != 0.0)
    // Deterministic start offset (stays on the equality subspace): the
    // retry ladder's way out of a pathological phase-I trajectory.
    for (std::size_t I = 0; I < Reduced; ++I)
      ZVec[I] += Options.StartPerturbation *
                 std::sin(static_cast<double>(I + 1));
  if (!allFinite(ZVec)) {
    Solution.Failure = "non-finite start point";
    Solution.Outcome = SolveOutcome::NumericalBreakdown;
    return Solution;
  }

  auto recoverX = [&](const Vector &ZV) {
    Assignment X(N);
    Vector Y = axpy(Y0, 1.0, Z.apply(ZV));
    for (std::size_t I = 0; I < N; ++I)
      X[I] = std::exp(Y[I]);
    return X;
  };

  // ---- Phase I: find a strictly feasible point if needed.
  SolverScratch Scratch;
  CenteringProblem PhaseTwo(Ctx, /*PhaseOne=*/false);
  if (!Ctx.Order.empty() && !PhaseTwo.strictlyFeasible(ZVec, Scratch)) {
    telemetry::TraceScope PhaseSpan("solver.phase1");
    telemetry::count("solver.phase1.runs");
    CenteringProblem PhaseOne(Ctx, /*PhaseOne=*/true);
    double MaxG = -std::numeric_limits<double>::infinity();
    Scratch.AffineG.resize(Ctx.Affine.size());
    Ctx.Affine.values(ZVec, Scratch.AffineG.data());
    for (const BarrierContext::Ref &C : Ctx.Order)
      MaxG = std::max(MaxG, C.IsAffine
                                ? affineValue(Scratch.AffineG[C.Index])
                                : Ctx.Curved[C.Index].value(ZVec, Scratch.E));
    Vector W = ZVec;
    W.push_back(MaxG + 1.0); // Strictly feasible for G_i - s < 0.

    auto FoundInterior = [](const Vector &W) { return W.back() < -1e-7; };
    // Infeasibility certificate (Boyd & Vandenberghe 11.4): at a point
    // centred for weight T, phase I's duality gap is m/T, so the optimal
    // slack is at least s - m/T; above zero, no strictly feasible point
    // exists.
    const double NumConstraints =
        static_cast<double>(Ctx.Order.size());
    unsigned OuterIters = 0;
    double T = Options.TInitial;
    for (unsigned Outer = 0; Outer < Options.MaxOuterIters; ++Outer) {
      ++OuterIters;
      bool Centred = false;
      if (!centerNewton(PhaseOne, T, W, Options.MaxNewtonIters,
                        Solution.NewtonIterations, Counts,
                        +FoundInterior, Scratch, Centred)) {
        Solution.Failure = "numerical breakdown in phase I";
        Solution.Outcome = SolveOutcome::NumericalBreakdown;
        return Solution;
      }
      if (FoundInterior(W))
        break;
      if (Centred && W.back() - NumConstraints / T > 0.0) {
        telemetry::count("solver.phase1.certified");
        break;
      }
      T *= Options.TMultiplier;
    }
    telemetry::observe("solver.phase1.outer_iters",
                       static_cast<double>(OuterIters));
    if (!FoundInterior(W)) {
      Solution.Failure = "no strictly feasible point found (phase I)";
      Solution.Outcome = SolveOutcome::Infeasible;
      return Solution;
    }
    ZVec.assign(W.begin(), W.end() - 1);
    // The phase-I point satisfies G_i < s < 0, hence strictly feasible.
    assert(PhaseTwo.strictlyFeasible(ZVec, Scratch) &&
           "phase I postcondition");
  }
  Solution.Feasible = true;

  // ---- Phase II: follow the central path.
  telemetry::TraceScope PhaseSpan("solver.phase2");
  double T = Options.TInitial;
  unsigned OuterIters = 0;
  const double NumConstraints =
      std::max<std::size_t>(Ctx.Order.size(), 1);
  for (unsigned Outer = 0; Outer < Options.MaxOuterIters; ++Outer) {
    ++OuterIters;
    bool Centred = false;
    if (!centerNewton(PhaseTwo, T, ZVec, Options.MaxNewtonIters,
                      Solution.NewtonIterations, Counts, nullptr,
                      Scratch, Centred)) {
      Solution.Failure = "numerical breakdown in phase II";
      Solution.Outcome = SolveOutcome::NumericalBreakdown;
      Solution.Values = recoverX(ZVec);
      Solution.Objective = Problem.objective().evaluate(Solution.Values);
      return Solution;
    }
    if (NumConstraints / T < Options.Tolerance && !ForceNonConverge) {
      Solution.Converged = true;
      break;
    }
    T *= Options.TMultiplier;
  }
  if (telemetry::metricsEnabled()) {
    // Barrier-stage telemetry: how many centering steps phase II took
    // and the duality-gap bound m/t it stopped at (the residual).
    telemetry::observe("solver.phase2.outer_iters",
                       static_cast<double>(OuterIters));
    telemetry::observe("solver.phase2.barrier_gap", NumConstraints / T);
  }

  Solution.Values = recoverX(ZVec);
  Solution.Objective = Problem.objective().evaluate(Solution.Values);
  if (!allFinite(Solution.Values) || !std::isfinite(Solution.Objective)) {
    // A non-finite iterate must never reach extraction/rounding; strip
    // the convergence claim so callers discard rather than consume it.
    Solution.Converged = false;
    Solution.Outcome = SolveOutcome::NonFinite;
    Solution.Failure = "non-finite iterate or objective";
  } else if (Solution.Converged) {
    Solution.Outcome = SolveOutcome::Converged;
  } else {
    Solution.Outcome = SolveOutcome::NotConverged;
    Solution.Failure = ForceNonConverge
                           ? "injected: barrier loop never converged"
                           : "barrier loop hit MaxOuterIters before "
                             "reaching tolerance";
  }
  return Solution;
}

} // namespace

GpSolution thistle::solveGp(const GpProblem &Problem,
                            const GpSolverOptions &Options) {
  CenteringCounts Counts;
  GpSolution Solution = solveGpImpl(Problem, Options, Counts);
  if (telemetry::metricsEnabled()) {
    telemetry::count("solver.solves");
    telemetry::count("solver.newton_iters", Solution.NewtonIterations);
    telemetry::count("solver.line_search.evals", Counts.LineSearchEvals);
    telemetry::count("solver.center.stalls", Counts.Stalls);
    telemetry::observe("solver.newton_per_solve",
                       static_cast<double>(Solution.NewtonIterations));
    telemetry::count((std::string("solver.outcome.") +
                      solveOutcomeName(Solution.Outcome))
                         .c_str());
  }
  return Solution;
}

const char *thistle::solveOutcomeName(SolveOutcome Outcome) {
  switch (Outcome) {
  case SolveOutcome::Converged:
    return "converged";
  case SolveOutcome::NotConverged:
    return "not-converged";
  case SolveOutcome::Infeasible:
    return "infeasible";
  case SolveOutcome::NumericalBreakdown:
    return "numerical-breakdown";
  case SolveOutcome::NonFinite:
    return "non-finite";
  }
  return "unknown";
}

namespace {

/// Usability rank of an attempt's outcome for the ladder's final pick.
/// Breakdown-with-a-feasible-iterate still carries a usable point (the
/// pre-breakdown central-path iterate), so it outranks infeasibility.
int outcomeRank(const GpSolution &S) {
  switch (S.Outcome) {
  case SolveOutcome::Converged:
    return 4;
  case SolveOutcome::NotConverged:
    return 3;
  case SolveOutcome::NumericalBreakdown:
    return S.Feasible ? 2 : 1;
  case SolveOutcome::Infeasible:
    return 1;
  case SolveOutcome::NonFinite:
    return 0;
  }
  return 0;
}

/// Largest objective coefficient, for the rescaling rung.
double objectiveScaleFor(const GpProblem &Problem) {
  double Max = 0.0;
  for (const Monomial &M : Problem.objective().monomials())
    Max = std::max(Max, M.coefficient());
  return std::isfinite(Max) && Max > 0.0 ? Max : 1.0;
}

} // namespace

GpSolution thistle::solveGpWithRetry(const GpProblem &Problem,
                                     const GpSolverOptions &Options,
                                     GpSolveReport *Report) {
  const unsigned MaxAttempts = std::max(1u, Options.MaxSolveAttempts);
  GpSolution Best;
  unsigned BestAttempt = 0;
  unsigned TotalNewton = 0;

  for (unsigned Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
    GpSolverOptions Rung = Options;
    if (Attempt == 1) {
      // Perturbed start, gentler initial barrier weight.
      Rung.StartPerturbation = 1e-3;
      Rung.TInitial = Options.TInitial * 0.1;
    } else if (Attempt >= 2) {
      // Stronger perturbation, slow barrier growth, rescaled objective.
      Rung.StartPerturbation = 1e-2 * static_cast<double>(Attempt - 1);
      Rung.TInitial = Options.TInitial * 0.01;
      Rung.TMultiplier = std::max(4.0, Options.TMultiplier * 0.5);
      Rung.ObjectiveScale = objectiveScaleFor(Problem);
    }

    telemetry::TraceScope AttemptSpan("solver.attempt");
    GpSolution S = solveGp(Problem, Rung);
    if (telemetry::traceEnabled())
      AttemptSpan.setDetail(std::string(solveOutcomeName(S.Outcome)) +
                            " newton=" +
                            std::to_string(S.NewtonIterations));
    if (Attempt > 0)
      telemetry::count("solver.retry.attempts");
    TotalNewton += S.NewtonIterations;
    if (Report)
      Report->Attempts.push_back({S.Outcome, Rung.StartPerturbation,
                                  Rung.TInitial, Rung.TMultiplier,
                                  Rung.ObjectiveScale, S.NewtonIterations,
                                  S.Failure});

    // Strictly-better outcomes displace the incumbent; ties keep the
    // earliest attempt so a clean first solve is bit-identical to
    // solveGp with the caller's options.
    if (Attempt == 0 || outcomeRank(S) > outcomeRank(Best)) {
      Best = std::move(S);
      BestAttempt = Attempt;
    }
    if (Best.Outcome == SolveOutcome::Converged)
      break;
    // Infeasibility is a property of the problem, not of the numerics:
    // retrying cannot cure it, so stop the ladder early.
    if (Best.Outcome == SolveOutcome::Infeasible &&
        Best.Failure.find("injected") == std::string::npos)
      break;
  }

  Best.NewtonIterations = TotalNewton;
  if (BestAttempt > 0 && Best.Outcome == SolveOutcome::Converged)
    telemetry::count("solver.retry.recovered");
  if (Report)
    Report->Recovered =
        BestAttempt > 0 && Best.Outcome == SolveOutcome::Converged;
  return Best;
}
