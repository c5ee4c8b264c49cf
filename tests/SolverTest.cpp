//===- tests/SolverTest.cpp - solver/ unit tests --------------------------===//
//
// Validates the interior-point GP solver against problems with known
// closed-form optima.
//
//===----------------------------------------------------------------------===//

#include "solver/GpProblem.h"
#include "solver/GpSolver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace thistle;

TEST(GpProblem, CanonicalForms) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 10.0, "x <= 10");
  Gp.addEquality(Monomial::variable(X, 2.0), 4.0, "x^2 == 4");
  ASSERT_EQ(Gp.constraints().size(), 1u);
  ASSERT_EQ(Gp.equalities().size(), 1u);
  // x <= 10 stored as x/10 <= 1.
  EXPECT_DOUBLE_EQ(
      Gp.constraints()[0].Lhs.monomials()[0].coefficient(), 0.1);
  // x^2 == 4 stored as x^2/4 == 1.
  EXPECT_DOUBLE_EQ(Gp.equalities()[0].Lhs.coefficient(), 0.25);
  EXPECT_NE(Gp.toString().find("minimize"), std::string::npos);
}

TEST(GpSolver, UnconstrainedMonomialWithLowerBounds) {
  // minimize x*y subject to x >= 1, y >= 1: optimum 1 at (1, 1).
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, 100.0);
  Gp.addVariableBounds(Y, 100.0);
  Gp.setObjective(
      Posynomial(Monomial::variable(X) * Monomial::variable(Y)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_TRUE(S.Converged);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-3);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-3);
  EXPECT_NEAR(S.Objective, 1.0, 1e-2);
}

TEST(GpSolver, ClassicVolumeProblem) {
  // minimize 1/(xyz) (maximize box volume) s.t. 2(xy + yz + xz) <= 6.
  // Optimum: cube with x = y = z = 1, objective 1.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  VarId Z = Gp.addVariable("z");
  Posynomial Surface;
  Surface += Signomial(
      (Monomial::variable(X) * Monomial::variable(Y)).scaled(2.0));
  Surface += Signomial(
      (Monomial::variable(Y) * Monomial::variable(Z)).scaled(2.0));
  Surface += Signomial(
      (Monomial::variable(X) * Monomial::variable(Z)).scaled(2.0));
  Gp.addUpperBound(Surface, 6.0, "surface");
  Gp.setObjective(Posynomial(Monomial::variable(X, -1.0) *
                             Monomial::variable(Y, -1.0) *
                             Monomial::variable(Z, -1.0)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-3);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-3);
  EXPECT_NEAR(S.Values[Z], 1.0, 1e-3);
  EXPECT_NEAR(S.Objective, 1.0, 1e-2);
}

TEST(GpSolver, AmGmEquality) {
  // minimize x + y subject to x*y == 16: optimum x = y = 4, objective 8
  // (AM-GM). Exercises the monomial-equality elimination.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addEquality(Monomial::variable(X) * Monomial::variable(Y), 16.0);
  Gp.setObjective(Posynomial(Monomial::variable(X)) +
                  Posynomial(Monomial::variable(Y)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 4.0, 1e-2);
  EXPECT_NEAR(S.Values[Y], 4.0, 1e-2);
  EXPECT_NEAR(S.Objective, 8.0, 1e-2);
  // The equality must hold exactly (it is eliminated, not penalized).
  EXPECT_NEAR(S.Values[X] * S.Values[Y], 16.0, 1e-6);
}

TEST(GpSolver, FractionalExponents) {
  // minimize x + 4/sqrt(x): optimum at d/dx = 1 - 2 x^-1.5 = 0,
  // x = 2^(2/3) ~ 1.5874, objective ~ 4.7622.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.setObjective(Posynomial(Monomial::variable(X)) +
                  Posynomial(Monomial::variable(X, -0.5, 4.0)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  double XStar = std::pow(2.0, 2.0 / 3.0);
  EXPECT_NEAR(S.Values[X], XStar, 1e-2);
  EXPECT_NEAR(S.Objective, XStar + 4.0 / std::sqrt(XStar), 1e-2);
}

TEST(GpSolver, PhaseOneFindsInterior) {
  // The zero log-point x = 1 violates x >= 2; phase I must recover.
  // minimize x s.t. 2 <= x <= 5: optimum 2.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addUpperBound(Posynomial(Monomial::variable(X, -1.0, 2.0)), 1.0,
                   "x >= 2");
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 5.0, "x <= 5");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 2.0, 1e-2);
}

TEST(GpSolver, DetectsInfeasibility) {
  // x <= 1 and x >= 3 cannot both hold.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 1.0, "x <= 1");
  Gp.addUpperBound(Posynomial(Monomial::variable(X, -1.0, 3.0)), 1.0,
                   "x >= 3");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  EXPECT_FALSE(S.Feasible);
  EXPECT_FALSE(S.Failure.empty());
}

TEST(GpSolver, DetectsInconsistentEqualities) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addEquality(Monomial::variable(X), 2.0);
  Gp.addEquality(Monomial::variable(X), 3.0);
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  EXPECT_FALSE(S.Feasible);
}

TEST(GpSolver, FullyPinnedByEqualities) {
  // All variables fixed: solver must just evaluate.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addEquality(Monomial::variable(X), 3.0);
  Gp.addEquality(Monomial::variable(Y), 5.0);
  Gp.setObjective(Posynomial(Monomial::variable(X) * Monomial::variable(Y)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Objective, 15.0, 1e-6);
}

TEST(GpSolver, TiledVolumeTradeoff) {
  // A miniature dataflow-like GP: minimize N^2/x + N^2/y (data volumes)
  // subject to x*y <= 64 (capacity), 1 <= x, y <= N, N = 32.
  // By symmetry the optimum is x = y = 8, objective 2*1024/8 = 256.
  const double N = 32.0;
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, N);
  Gp.addVariableBounds(Y, N);
  Gp.addUpperBound(Posynomial(Monomial::variable(X) * Monomial::variable(Y)),
                   64.0, "capacity");
  Gp.setObjective(Posynomial(Monomial::variable(X, -1.0, N * N)) +
                  Posynomial(Monomial::variable(Y, -1.0, N * N)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 8.0, 0.05);
  EXPECT_NEAR(S.Values[Y], 8.0, 0.05);
  EXPECT_NEAR(S.Objective, 256.0, 0.5);
}

TEST(GpSolver, ReportsNewtonWork) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addVariableBounds(X, 10.0);
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  ASSERT_TRUE(S.Feasible);
  EXPECT_GT(S.NewtonIterations, 0u);
}

// ---- Outcome classification and the retry ladder --------------------------

#include "support/FaultInjection.h"

namespace {

/// minimize x*y s.t. x >= 1, y >= 1 with coefficient spread \p Scale:
/// objective Scale * x * y. Optimum Scale at (1, 1).
GpProblem scaledCornerGp(VarId &X, VarId &Y, double Scale) {
  GpProblem Gp;
  X = Gp.addVariable("x");
  Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, 100.0);
  Gp.addVariableBounds(Y, 100.0);
  Gp.setObjective(Posynomial(
      (Monomial::variable(X) * Monomial::variable(Y)).scaled(Scale)));
  return Gp;
}

} // namespace

TEST(GpSolver, OutcomeIsConvergedOnSuccess) {
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  GpSolution S = solveGp(Gp);
  EXPECT_EQ(S.Outcome, SolveOutcome::Converged);
  EXPECT_STREQ(solveOutcomeName(S.Outcome), "converged");
}

TEST(GpSolver, OutcomeIsInfeasibleOnEmptyInterior) {
  // x <= 0.5 and x >= 1 cannot both hold.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addVariableBounds(X, 100.0);
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 0.5, "x small");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  EXPECT_FALSE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::Infeasible);
  EXPECT_EQ(S.Failure, "no strictly feasible point found (phase I)");
  // The duality-gap certificate ends phase I after a few centerings;
  // without it the loop runs all MaxOuterIters (thousands of steps).
  EXPECT_LE(S.NewtonIterations, 100u);
}

TEST(GpSolver, BorderlineEmptyInteriorIsInfeasible) {
  // x >= 1 and x <= 1 - 1e-9 miss by a hair: the optimal phase-I slack
  // is about 1e-9, so the gap bound s - m/t turns positive only once t
  // passes about 2e9. The program must still end Infeasible.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addVariableBounds(X, 100.0);
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 1.0 - 1e-9,
                   "x just below 1");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolution S = solveGp(Gp);
  EXPECT_FALSE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::Infeasible);
  EXPECT_EQ(S.Failure, "no strictly feasible point found (phase I)");
}

TEST(GpSolver, CertificateWaitsForACentredPoint) {
  // x >= 1e6 starts phase I far outside. With one Newton step per
  // centering no point is centred, and s - m/t is still positive after
  // the first step; the certificate must not fire from such a point.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addUpperBound(Posynomial(Monomial::variable(X, -1.0, 1e6)), 1.0,
                   "x >= 1e6");
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 1e7, "x <= 1e7");
  Gp.addVariableBounds(Y, 10.0);
  Gp.setObjective(Posynomial(Monomial::variable(X) * Monomial::variable(Y)));
  GpSolverOptions O;
  O.MaxNewtonIters = 1;
  GpSolution S = solveGp(Gp, O);
  EXPECT_TRUE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::Converged);
}

TEST(GpSolver, CertificateNeverRejectsAStrictlyFeasibleProgram) {
  // Random GPs built around a known strictly feasible point x0: box
  // bounds [x0/2, 2 x0] (so the start x = 1 is usually outside and phase
  // I runs) plus random posynomial constraints scaled to a value in
  // [0.5, 0.999) at x0. The certificate must never call one infeasible.
  unsigned PhaseOneRuns = 0;
  for (std::uint64_t Seed = 1; Seed <= 256; ++Seed) {
    Rng R(Seed);
    const unsigned NumVars = 1 + static_cast<unsigned>(R.nextIndex(4));
    GpProblem Gp;
    std::vector<VarId> Vars;
    Assignment X0;
    bool StartOutside = false;
    for (unsigned I = 0; I < NumVars; ++I) {
      Vars.push_back(Gp.addVariable("x" + std::to_string(I)));
      const double LogX0 = 6.0 * R.nextDouble() - 3.0;
      X0.push_back(std::exp(LogX0));
      StartOutside |= std::fabs(LogX0) > std::log(2.0);
      Gp.addUpperBound(Posynomial(Monomial::variable(Vars[I], -1.0)),
                       2.0 / X0[I], "lower");
      Gp.addUpperBound(Posynomial(Monomial::variable(Vars[I])),
                       2.0 * X0[I], "upper");
    }
    PhaseOneRuns += StartOutside;
    const unsigned NumConstraints = 1 + static_cast<unsigned>(R.nextIndex(4));
    for (unsigned C = 0; C < NumConstraints; ++C) {
      Posynomial Lhs;
      const unsigned Terms = 1 + static_cast<unsigned>(R.nextIndex(3));
      for (unsigned K = 0; K < Terms; ++K) {
        Monomial M(0.1 + R.nextDouble());
        for (VarId V : Vars) {
          // Exponents in {-2, -1.5, ..., 2}.
          const double Exp = std::round(8.0 * R.nextDouble()) / 2.0 - 2.0;
          M = M * Monomial::variable(V, Exp);
        }
        Lhs += Signomial(M);
      }
      // Scale so Lhs(x0) = U < 1: x0 is strictly inside.
      const double U = 0.5 + 0.499 * R.nextDouble();
      Gp.addUpperBound(Lhs, Lhs.evaluate(X0) / U, "random");
    }
    Posynomial Objective;
    for (VarId V : Vars)
      Objective += Posynomial(Monomial::variable(V, R.nextDouble() - 0.5));
    Gp.setObjective(Objective);

    GpSolution S = solveGp(Gp);
    EXPECT_NE(S.Outcome, SolveOutcome::Infeasible) << "seed " << Seed;
    EXPECT_TRUE(S.Feasible) << "seed " << Seed;
  }
  // Most programs must actually exercise phase I.
  EXPECT_GT(PhaseOneRuns, 128u);
}

TEST(GpSolver, TinyAndHugeCoefficientSpreads) {
  // The raw solver must survive pathological objective scalings; the
  // retry ladder's rescaling rung normalizes the rest.
  for (double Scale : {1e-18, 1e-9, 1.0, 1e9, 1e18}) {
    VarId X, Y;
    GpProblem Gp = scaledCornerGp(X, Y, Scale);
    GpSolveReport Report;
    GpSolution S = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
    ASSERT_TRUE(S.Feasible) << "scale " << Scale << ": " << S.Failure;
    EXPECT_NEAR(S.Values[X], 1.0, 1e-2) << "scale " << Scale;
    EXPECT_NEAR(S.Values[Y], 1.0, 1e-2) << "scale " << Scale;
    // The reported objective is on the original posynomial.
    EXPECT_NEAR(S.Objective / Scale, 1.0, 1e-2) << "scale " << Scale;
  }
}

TEST(GpSolver, ObjectiveScaleIsArgminPreserving) {
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1e12);
  GpSolverOptions Options;
  Options.ObjectiveScale = 1e12;
  GpSolution S = solveGp(Gp, Options);
  ASSERT_TRUE(S.Feasible);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-3);
  EXPECT_NEAR(S.Objective, 1e12, 1e10);
}

TEST(GpSolver, StartPerturbationStaysCorrect) {
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  GpSolverOptions Options;
  Options.StartPerturbation = 1e-2;
  GpSolution S = solveGp(Gp, Options);
  ASSERT_TRUE(S.Feasible);
  EXPECT_TRUE(S.Converged);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-3);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-3);
}

TEST(GpSolver, WarmStartFromOptimumStaysCorrect) {
  // Re-solving from a previous optimum must land on the same answer;
  // the warm start is an accelerator, never a correctness knob, so the
  // only contract is that the optimum is unchanged.
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  GpSolution Cold = solveGp(Gp);
  ASSERT_TRUE(Cold.Feasible);
  GpSolverOptions Options;
  Options.InitialPoint = Cold.Values;
  GpSolution Warm = solveGp(Gp, Options);
  ASSERT_TRUE(Warm.Feasible);
  EXPECT_TRUE(Warm.Converged);
  EXPECT_NEAR(Warm.Values[X], Cold.Values[X], 1e-3);
  EXPECT_NEAR(Warm.Values[Y], Cold.Values[Y], 1e-3);
  EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-2);
}

TEST(GpSolver, WarmStartProjectsOntoEqualitySubspace) {
  // x*y == 16 eliminates a dimension; the warm start must be projected
  // onto the equality subspace, not taken verbatim. Seed from a point
  // violating the equality and still expect the AM-GM optimum (4, 4).
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, 1000.0);
  Gp.addVariableBounds(Y, 1000.0);
  Posynomial Obj;
  Obj += Signomial(Monomial::variable(X));
  Obj += Signomial(Monomial::variable(Y));
  Gp.setObjective(Obj);
  Gp.addEquality(Monomial::variable(X) * Monomial::variable(Y), 16.0,
                 "x*y == 16");
  GpSolverOptions Options;
  Options.InitialPoint = {2.0, 100.0};
  GpSolution S = solveGp(Gp, Options);
  ASSERT_TRUE(S.Feasible);
  EXPECT_TRUE(S.Converged);
  EXPECT_NEAR(S.Values[X], 4.0, 1e-3);
  EXPECT_NEAR(S.Values[Y], 4.0, 1e-3);
  EXPECT_NEAR(S.Objective, 8.0, 1e-2);
}

TEST(GpSolver, DegenerateWarmStartFallsBackBitIdentically) {
  // Wrong-size, non-positive, or non-finite warm starts are ignored:
  // the solve must be bit-identical to a cold start, which is what lets
  // the GP cache's warm tier degrade gracefully.
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 2.0);
  GpSolution Cold = solveGp(Gp);
  ASSERT_TRUE(Cold.Feasible);
  const std::vector<std::vector<double>> Degenerate = {
      {1.0},                // wrong size
      {1.0, 2.0, 3.0},      // wrong size
      {0.0, 1.0},           // non-positive entry
      {-1.0, 1.0},          // negative entry
      {1.0, std::nan("")},  // non-finite entry
  };
  for (const std::vector<double> &Seed : Degenerate) {
    GpSolverOptions Options;
    Options.InitialPoint = Seed;
    GpSolution S = solveGp(Gp, Options);
    ASSERT_TRUE(S.Feasible);
    EXPECT_EQ(S.Values[X], Cold.Values[X]);
    EXPECT_EQ(S.Values[Y], Cold.Values[Y]);
    EXPECT_EQ(S.Objective, Cold.Objective);
    EXPECT_EQ(S.NewtonIterations, Cold.NewtonIterations);
  }
}

TEST(GpSolver, RetryMatchesPlainSolveWhenFirstAttemptSucceeds) {
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 3.0);
  GpSolution Plain = solveGp(Gp);
  GpSolveReport Report;
  GpSolution Retry = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
  ASSERT_TRUE(Plain.Feasible);
  // Bit-identical: the ladder's first rung is exactly the caller's
  // options, and a converged first attempt short-circuits.
  EXPECT_EQ(Report.attempts(), 1u);
  EXPECT_FALSE(Report.Recovered);
  EXPECT_EQ(Retry.Objective, Plain.Objective);
  EXPECT_EQ(Retry.Values[X], Plain.Values[X]);
  EXPECT_EQ(Retry.Values[Y], Plain.Values[Y]);
  EXPECT_EQ(Retry.NewtonIterations, Plain.NewtonIterations);
}

TEST(GpSolver, RetryStopsOnGenuineInfeasibility) {
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  Gp.addVariableBounds(X, 100.0);
  Gp.addUpperBound(Posynomial(Monomial::variable(X)), 0.5, "x small");
  Gp.setObjective(Posynomial(Monomial::variable(X)));
  GpSolveReport Report;
  GpSolution S = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
  EXPECT_FALSE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::Infeasible);
  // Infeasibility is a model property, not numerics: no retries burned.
  EXPECT_EQ(Report.attempts(), 1u);
}

TEST(GpSolver, NonFiniteCoefficientIsReportedNotAsserted) {
  // x + 1/y <= 1e-320 is stored as (x + 1/y) / 1e-320 <= 1, whose
  // coefficients overflow to inf. The constraint's value is then NaN
  // everywhere; the solve must end with a classified failure instead of
  // treating NaN as feasible and tripping the barrier's domain assert.
  GpProblem Gp;
  VarId X = Gp.addVariable("x");
  VarId Y = Gp.addVariable("y");
  Gp.addVariableBounds(X, 100.0);
  Gp.addVariableBounds(Y, 100.0);
  Posynomial Lhs(Monomial::variable(X));
  Lhs += Signomial(Monomial::variable(Y, -1.0));
  Gp.addUpperBound(Lhs, 1e-320, "tiny");
  Gp.setObjective(Posynomial(Monomial::variable(X) * Monomial::variable(Y)));
  GpSolution S = solveGp(Gp);
  EXPECT_FALSE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::NumericalBreakdown);
  EXPECT_EQ(S.Failure, "non-finite coefficient or exponent in constraint "
                       "'tiny' after the log transform");
  EXPECT_EQ(S.NewtonIterations, 0u);
}

TEST(GpSolver, NonFiniteStartPointIsReportedNotAsserted) {
  // Every point the barrier evaluates must be finite; a start offset of
  // inf is refused before phase I instead of reaching the kernels.
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  GpSolverOptions O;
  O.StartPerturbation = std::numeric_limits<double>::infinity();
  GpSolution S = solveGp(Gp, O);
  EXPECT_FALSE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::NumericalBreakdown);
  EXPECT_EQ(S.Failure, "non-finite start point");
  EXPECT_EQ(S.NewtonIterations, 0u);
}

// ---- Bitwise trajectory pins ----------------------------------------------
//
// The barrier assembly has several exact shortcuts (affine constraints,
// sparse rows, the lower-triangle Hessian, the feasibility-first line
// search). These pins hold each solve's Newton count and a hash of the
// bit patterns of its solution, recorded before the shortcuts existed
// (and again when the centering's stall rule moved them), so any change
// that moves a single bit of a solver trajectory fails here.

#include "ir/Builders.h"
#include "support/Telemetry.h"
#include "thistle/GpBuilder.h"
#include "thistle/Optimizer.h"
#include "thistle/PairSweep.h"
#include "thistle/PermutationSpace.h"
#include "thistle/Rounding.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <cstring>

namespace {

struct TrajectoryPin {
  unsigned Newton;
  std::uint64_t Hash;
};

bool operator==(const TrajectoryPin &A, const TrajectoryPin &B) {
  return A.Newton == B.Newton && A.Hash == B.Hash;
}

std::ostream &operator<<(std::ostream &OS, const TrajectoryPin &P) {
  return OS << "{" << P.Newton << "u, 0x" << std::hex << P.Hash << std::dec
            << "ull}";
}

/// FNV-1a over the eight bytes of \p Word.
void hashWord(std::uint64_t &Hash, std::uint64_t Word) {
  for (int B = 0; B < 8; ++B) {
    Hash ^= (Word >> (8 * B)) & 0xff;
    Hash *= 0x100000001b3ull;
  }
}

void hashSolution(std::uint64_t &Hash, const GpSolution &S) {
  hashWord(Hash, static_cast<std::uint64_t>(S.Outcome));
  for (double V : S.Values) {
    std::uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    hashWord(Hash, Bits);
  }
}

constexpr std::uint64_t FnvBasis = 0xcbf29ce484222325ull;

/// The GP spec of one ResNet-18 layer for its first and last permutation
/// classes on Eyeriss (the representative GP of bench_ablation_solver).
GpBuildSpec resnetLayerSpec(const Problem &P, DesignMode Mode) {
  GpBuildSpec Spec;
  Spec.Mode = Mode;
  for (unsigned I = 0; I < P.numIterators(); ++I) {
    const Iterator &It = P.iterators()[I];
    if (It.Extent > 1 && It.Name != "r" && It.Name != "s")
      Spec.TiledIters.push_back(I);
  }
  std::vector<PermClass> Classes = enumeratePermClasses(P, Spec.TiledIters);
  Spec.PePerm = Classes.front().Representative;
  Spec.DramPerm = Classes.back().Representative;
  Spec.Arch = eyerissArch();
  Spec.AreaBudgetUm2 = eyerissAreaUm2(Spec.Tech);
  return Spec;
}

GpProblem resnetLayerGp(const ConvLayer &L, DesignMode Mode) {
  Problem P = makeConvProblem(L);
  return buildGp(P, resnetLayerSpec(P, Mode)).Gp;
}

std::vector<TrajectoryPin> resnetTrajectories(DesignMode Mode) {
  std::vector<TrajectoryPin> Pins;
  for (const ConvLayer &L : resnet18Layers()) {
    GpSolution S = solveGp(resnetLayerGp(L, Mode));
    std::uint64_t Hash = FnvBasis;
    hashSolution(Hash, S);
    Pins.push_back({S.NewtonIterations, Hash});
  }
  return Pins;
}

} // namespace

TEST(GpSolver, ResnetDataflowTrajectoriesArePinnedBitwise) {
  const std::vector<TrajectoryPin> Expected = {
      {76u, 0xc28713e697e28661ull}, {77u, 0x43b86c9edbf41673ull},
      {76u, 0x829520e066a8bfa1ull}, {78u, 0x2824bcd9af04dac1ull},
      {82u, 0x881729d8b4d75311ull}, {77u, 0x1a1c10b4bf4bfb23ull},
      {79u, 0x87c385cda4119028ull}, {72u, 0xe689245b1a128373ull},
      {81u, 0x55e811aaa40d00dull}, {84u, 0x7c3e33b330897c93ull},
      {76u, 0xbc30d13450b7cc62ull}, {82u, 0xf3cd4866709a5513ull}};
  EXPECT_EQ(resnetTrajectories(DesignMode::DataflowOnly), Expected);
}

TEST(GpSolver, ResnetCodesignTrajectoriesArePinnedBitwise) {
  const std::vector<TrajectoryPin> Expected = {
      {88u, 0x59afa100775c5eceull}, {79u, 0x30aac624300ebbbcull},
      {73u, 0xab5728dbdfddcfbull}, {81u, 0x20eddc54787ca35ull},
      {79u, 0x584dcc353fc71140ull}, {89u, 0x10775d1bdfe1f320ull},
      {82u, 0xbade38801a04c76bull}, {67u, 0xf3c7ab8ae4dfda57ull},
      {81u, 0xdf3df6d5e734c439ull}, {93u, 0x2e50f43bee20a49bull},
      {73u, 0x2c75f6e69c5a9450ull}, {84u, 0x24d37f32109ffe16ull}};
  EXPECT_EQ(resnetTrajectories(DesignMode::CoDesign), Expected);
}

TEST(GpSolver, FixedArchResnet1SweepIsPinnedBitwise) {
  // thistle-opt --resnet 1 --pes 1178 --regs 8 --sram-words 65536: every
  // pair's tight GP is infeasible (the phase-I certificate ends it) and
  // its product-bound fallback is feasible. The solves replay the pair
  // sweep's own sequence, so the total is the sweep's Newton count.
  ThistleOptions Options;
  ArchConfig Arch = eyerissArch();
  Arch.NumPEs = 1178;
  Arch.RegWordsPerPE = 8;
  Arch.SramWords = 65536;
  Problem P = makeConvProblem(resnet18Layers()[0]);
  LayerSweepPlan Plan = planLayerSweep(P, Options);
  unsigned Newton = 0, Infeasible = 0;
  std::uint64_t Hash = FnvBasis;
  for (const PairTask &Task : Plan.Pairs) {
    GpBuildSpec Spec;
    Spec.Mode = Options.Mode;
    Spec.Objective = Options.Objective;
    Spec.PePerm = Plan.Classes[Task.QI].Representative;
    Spec.DramPerm = Plan.Classes[Task.SI].Representative;
    Spec.TiledIters = Plan.TiledIters;
    Spec.SpatialUntiled = Options.SpatialUntiled;
    Spec.Arch = Arch;
    for (HaloBound Halo :
         {HaloBound::DropNegative, HaloBound::ProductOfTerms}) {
      Spec.Halo = Halo;
      GpSolution S = solveGpWithRetry(buildGp(P, Spec).Gp, Options.Solver);
      Newton += S.NewtonIterations;
      hashSolution(Hash, S);
      if (S.Feasible)
        break;
      ++Infeasible;
    }
  }
  EXPECT_EQ(Plan.Pairs.size(), 34u);
  EXPECT_EQ(Infeasible, 34u);
  EXPECT_EQ((TrajectoryPin{Newton, Hash}),
            (TrajectoryPin{4323u, 0x2a208114bd3612eaull}));
}

TEST(GpSolver, StalledCenteringEndsWithoutChangingTheDesign) {
  // resnet-9's representative dataflow GP took 324 Newton steps before
  // the stall rule: 250 of them at t = 6.4e7, each accepting a step whose
  // barrier value equals the base to the last bit. The rule ends that
  // centering; the solve must still converge and round to the design it
  // rounded to before (recorded from the solver without the rule).
  Problem P = makeConvProblem(resnet18Layers()[8]);
  GpBuildSpec Spec = resnetLayerSpec(P, DesignMode::DataflowOnly);
  GpBuild Build = buildGp(P, Spec);
  telemetry::reset();
  telemetry::setLevel(telemetry::Level::Metrics);
  GpSolution S = solveGp(Build.Gp);
  telemetry::Snapshot Snap = telemetry::snapshot();
  telemetry::setLevel(telemetry::Level::Off);
  telemetry::reset();

  ASSERT_EQ(S.Outcome, SolveOutcome::Converged) << S.Failure;
  EXPECT_LT(S.NewtonIterations, 120u);
  if (telemetry::compiledIn()) {
    std::uint64_t Stalls = 0;
    for (const telemetry::CounterValue &C : Snap.Counters)
      if (C.Name == "solver.center.stalls")
        Stalls = C.Value;
    EXPECT_GE(Stalls, 1u);
  }

  RoundedDesign D = roundSolution(P, Spec, extractSolution(P, Build, Spec, S),
                                  RoundingOptions());
  ASSERT_TRUE(D.Found);
  EXPECT_EQ(D.Map.toString(P),
            "  DRAM temporal: k=2 c=16  perm=<k,h,w,c,n,r,s>\n"
            "  spatial      : k=2 c=16\n"
            "  PE temporal  : k=64  perm=<h,w,c,k,n,r,s>\n"
            "  register tile: r=3 s=3 h=14 w=14\n");
  EXPECT_EQ(D.Eval.EnergyPj, 2531409340.4730163);
  EXPECT_EQ(D.Eval.Cycles, 3612672.0);
}

#if THISTLE_FAULT_INJECTION_ENABLED

namespace {

struct SolverFaultGuard {
  ~SolverFaultGuard() { fault::disarmAll(); }
};

} // namespace

TEST(GpSolver, InjectedNonConvergenceIsClassified) {
  SolverFaultGuard G;
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  fault::arm("solver.nonconverge", fault::AnyKey, /*MaxHits=*/1);
  GpSolution S = solveGp(Gp);
  EXPECT_TRUE(S.Feasible);
  EXPECT_FALSE(S.Converged);
  EXPECT_EQ(S.Outcome, SolveOutcome::NotConverged);
}

TEST(GpSolver, RetryLadderRecoversFromNonConvergence) {
  SolverFaultGuard G;
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  // Poison exactly the first attempt; the second must converge.
  fault::arm("solver.nonconverge", fault::AnyKey, /*MaxHits=*/1);
  GpSolveReport Report;
  GpSolution S = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
  ASSERT_TRUE(S.Feasible) << S.Failure;
  EXPECT_TRUE(S.Converged);
  EXPECT_TRUE(Report.Recovered);
  EXPECT_EQ(Report.attempts(), 2u);
  EXPECT_EQ(Report.Attempts[0].Outcome, SolveOutcome::NotConverged);
  EXPECT_EQ(Report.Attempts[1].Outcome, SolveOutcome::Converged);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-2);
  // Total Newton work across both attempts is accounted.
  EXPECT_EQ(S.NewtonIterations, Report.Attempts[0].NewtonIterations +
                                    Report.Attempts[1].NewtonIterations);
}

TEST(GpSolver, RetryLadderRecoversFromNanGradient) {
  SolverFaultGuard G;
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  fault::arm("solver.nan-grad", fault::AnyKey, /*MaxHits=*/1);
  GpSolveReport Report;
  GpSolution S = solveGpWithRetry(Gp, GpSolverOptions(), &Report);
  ASSERT_TRUE(S.Feasible) << S.Failure;
  EXPECT_TRUE(S.Converged);
  EXPECT_TRUE(Report.Recovered);
  EXPECT_GE(Report.attempts(), 2u);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-2);
}

TEST(GpSolver, LadderExhaustsOnPersistentFault) {
  SolverFaultGuard G;
  VarId X, Y;
  GpProblem Gp = scaledCornerGp(X, Y, 1.0);
  fault::arm("solver.nonconverge"); // Unlimited: every attempt fails.
  GpSolverOptions Options;
  GpSolveReport Report;
  GpSolution S = solveGpWithRetry(Gp, Options, &Report);
  EXPECT_EQ(Report.attempts(), Options.MaxSolveAttempts);
  EXPECT_FALSE(Report.Recovered);
  // Best effort: the iterate is still feasible, just not converged.
  EXPECT_TRUE(S.Feasible);
  EXPECT_EQ(S.Outcome, SolveOutcome::NotConverged);
}

#endif // THISTLE_FAULT_INJECTION_ENABLED
