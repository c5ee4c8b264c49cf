//===- tests/GpBuilderTest.cpp - GP generation tests ----------------------===//
//
// Structural checks on the generated geometric programs: Eq. 3's shape in
// dataflow mode, Eq. 5's extra variables/constraints in co-design mode,
// the delay epigraph, the EDP objective, halo-bound variants, and the
// consistency of the extracted real solution.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"

#include <cmath>
#include "support/Rng.h"
#include "thistle/GpBuilder.h"
#include "thistle/PermutationSpace.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

struct GpBuilderFixture : public ::testing::Test {
  ConvLayer Layer;
  Problem Prob = [this] {
    Layer.K = 16;
    Layer.C = 8;
    Layer.Hin = 8;
    Layer.Win = 8;
    Layer.R = 3;
    Layer.S = 3;
    return makeConvProblem(Layer);
  }();

  GpBuildSpec baseSpec(DesignMode Mode, SearchObjective Obj) {
    GpBuildSpec Spec;
    Spec.Mode = Mode;
    Spec.Objective = Obj;
    Spec.TiledIters = {Prob.iteratorIndex("k"), Prob.iteratorIndex("c"),
                       Prob.iteratorIndex("h"), Prob.iteratorIndex("w")};
    Spec.PePerm = Spec.TiledIters;
    Spec.DramPerm = Spec.TiledIters;
    Spec.Arch = eyerissArch();
    Spec.AreaBudgetUm2 = eyerissAreaUm2(Spec.Tech);
    return Spec;
  }

  static bool hasConstraint(const GpProblem &Gp, const std::string &Label) {
    for (const GpProblem::Constraint &C : Gp.constraints())
      if (C.Label == Label)
        return true;
    return false;
  }
};

} // namespace

TEST(GpBuilder, ModeAndObjectiveTokensRoundTrip) {
  for (DesignMode M : {DesignMode::DataflowOnly, DesignMode::CoDesign})
    EXPECT_EQ(parseDesignMode(designModeName(M)).value(), M);
  for (SearchObjective O : {SearchObjective::Energy, SearchObjective::Delay,
                            SearchObjective::EnergyDelayProduct})
    EXPECT_EQ(parseObjective(objectiveName(O)).value(), O);
  EXPECT_STREQ(designModeName(DesignMode::CoDesign), "codesign");
  EXPECT_STREQ(objectiveName(SearchObjective::EnergyDelayProduct), "edp");
  EXPECT_FALSE(parseDesignMode("Codesign").hasValue());
  EXPECT_FALSE(parseObjective("power").hasValue());
}

TEST_F(GpBuilderFixture, DataflowModeStructure) {
  GpBuild B = buildGp(
      Prob, baseSpec(DesignMode::DataflowOnly, SearchObjective::Energy));
  EXPECT_FALSE(B.HasArchVars);
  EXPECT_FALSE(B.HasEpigraph);
  EXPECT_TRUE(hasConstraint(B.Gp, "register capacity"));
  EXPECT_TRUE(hasConstraint(B.Gp, "SRAM capacity"));
  EXPECT_TRUE(hasConstraint(B.Gp, "PE count"));
  EXPECT_FALSE(hasConstraint(B.Gp, "area"));
  EXPECT_TRUE(B.Gp.objective().isPosynomial());
  // One extent equality per tiled iterator; untiled/extent-1 iterators
  // get pinning equalities.
  EXPECT_GE(B.Gp.equalities().size(), 4u);
}

TEST_F(GpBuilderFixture, CoDesignModeStructure) {
  GpBuild B = buildGp(Prob,
                      baseSpec(DesignMode::CoDesign, SearchObjective::Energy));
  EXPECT_TRUE(B.HasArchVars);
  EXPECT_TRUE(hasConstraint(B.Gp, "area"));
  EXPECT_TRUE(B.Gp.variables().contains("R"));
  EXPECT_TRUE(B.Gp.variables().contains("S"));
  EXPECT_TRUE(B.Gp.variables().contains("P"));
}

TEST_F(GpBuilderFixture, DelayEpigraphStructure) {
  GpBuild B = buildGp(
      Prob, baseSpec(DesignMode::DataflowOnly, SearchObjective::Delay));
  EXPECT_TRUE(B.HasEpigraph);
  EXPECT_TRUE(hasConstraint(B.Gp, "compute cycles"));
  EXPECT_TRUE(hasConstraint(B.Gp, "DRAM cycles"));
  EXPECT_TRUE(hasConstraint(B.Gp, "SRAM cycles"));
  // The objective is just T.
  EXPECT_TRUE(B.Gp.objective().isMonomial());
}

TEST_F(GpBuilderFixture, EdpObjectiveIsPosynomialWithEpigraph) {
  GpBuild B = buildGp(
      Prob,
      baseSpec(DesignMode::CoDesign, SearchObjective::EnergyDelayProduct));
  EXPECT_TRUE(B.HasEpigraph);
  EXPECT_TRUE(B.Gp.objective().isPosynomial());
  EXPECT_GT(B.Gp.objective().monomials().size(), 1u);
  // Every objective term carries the epigraph variable T.
  for (const Monomial &M : B.Gp.objective().monomials())
    EXPECT_TRUE(M.mentions(B.EpigraphVar));
}

TEST_F(GpBuilderFixture, AllConstraintsArePosynomials) {
  for (DesignMode Mode : {DesignMode::DataflowOnly, DesignMode::CoDesign})
    for (SearchObjective Obj :
         {SearchObjective::Energy, SearchObjective::Delay,
          SearchObjective::EnergyDelayProduct}) {
      GpBuild B = buildGp(Prob, baseSpec(Mode, Obj));
      for (const GpProblem::Constraint &C : B.Gp.constraints())
        EXPECT_TRUE(C.Lhs.isPosynomial()) << C.Label;
    }
}

TEST_F(GpBuilderFixture, HaloBoundVariantsBothSolve) {
  for (HaloBound Halo :
       {HaloBound::DropNegative, HaloBound::ProductOfTerms}) {
    GpBuildSpec Spec =
        baseSpec(DesignMode::DataflowOnly, SearchObjective::Energy);
    Spec.Halo = Halo;
    GpBuild B = buildGp(Prob, Spec);
    GpSolution S = solveGp(B.Gp);
    EXPECT_TRUE(S.Feasible) << "halo bound " << static_cast<int>(Halo);
  }
}

TEST_F(GpBuilderFixture, SolutionSatisfiesExtentEqualities) {
  GpBuildSpec Spec =
      baseSpec(DesignMode::DataflowOnly, SearchObjective::Energy);
  GpBuild B = buildGp(Prob, Spec);
  GpSolution S = solveGp(B.Gp);
  ASSERT_TRUE(S.Feasible);
  RealSolution Real = extractSolution(Prob, B, Spec, S);
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    double Product = 1.0;
    for (unsigned L = 0; L < NumTileLevels; ++L)
      Product *= Real.Trips[I][L];
    EXPECT_NEAR(Product, static_cast<double>(Prob.iterators()[I].Extent),
                1e-6 * Product)
        << Prob.iterators()[I].Name;
  }
  EXPECT_DOUBLE_EQ(Real.RegWords, 512.0);
  EXPECT_DOUBLE_EQ(Real.NumPEs, 168.0);
}

TEST_F(GpBuilderFixture, CoDesignSolutionRespectsArea) {
  GpBuildSpec Spec = baseSpec(DesignMode::CoDesign, SearchObjective::Energy);
  GpBuild B = buildGp(Prob, Spec);
  GpSolution S = solveGp(B.Gp);
  ASSERT_TRUE(S.Feasible);
  RealSolution Real = extractSolution(Prob, B, Spec, S);
  double Area = (Spec.Tech.AreaRegWordUm2 * Real.RegWords +
                 Spec.Tech.AreaMacUm2) *
                    Real.NumPEs +
                Spec.Tech.AreaSramWordUm2 * Real.SramWords;
  EXPECT_LE(Area, Spec.AreaBudgetUm2 * 1.0001);
}

TEST_F(GpBuilderFixture, GpOptimumIsNoWorseThanRandomFeasiblePoints) {
  // Probabilistic optimality check: sample random feasible integer
  // mappings and evaluate the GP objective expression on them; none may
  // beat the solver's optimum (up to tolerance).
  GpBuildSpec Spec =
      baseSpec(DesignMode::DataflowOnly, SearchObjective::Energy);
  GpBuild B = buildGp(Prob, Spec);
  GpSolution S = solveGp(B.Gp);
  ASSERT_TRUE(S.Feasible);

  Rng R(17);
  const VarTable &Vars = B.Gp.variables();
  unsigned Checked = 0;
  for (int Trial = 0; Trial < 200; ++Trial) {
    Assignment A(Vars.size(), 1.0);
    // Random split of each tiled extent across the four levels.
    for (unsigned I : Spec.TiledIters) {
      std::int64_t Extent = Prob.iterators()[I].Extent;
      double Levels[NumTileLevels];
      double LogRemaining = std::log(static_cast<double>(Extent));
      for (unsigned L = 0; L + 1 < NumTileLevels; ++L) {
        Levels[L] = R.nextDouble() * LogRemaining;
        LogRemaining -= Levels[L];
      }
      Levels[NumTileLevels - 1] = LogRemaining;
      for (unsigned L = 0; L < NumTileLevels; ++L)
        A[B.TripVars[L][I]] = std::exp(Levels[L]);
    }
    // Untiled iterators: whole extent at the register level.
    for (unsigned I = 0; I < Prob.numIterators(); ++I) {
      bool Tiled = std::find(Spec.TiledIters.begin(), Spec.TiledIters.end(),
                             I) != Spec.TiledIters.end();
      if (!Tiled)
        A[B.TripVars[static_cast<unsigned>(TileLevel::Register)][I]] =
            static_cast<double>(Prob.iterators()[I].Extent);
    }
    // Check feasibility against the GP's own constraints.
    bool Feasible = true;
    for (const GpProblem::Constraint &C : B.Gp.constraints())
      if (C.Lhs.evaluate(A) > 1.0) {
        Feasible = false;
        break;
      }
    if (!Feasible)
      continue;
    ++Checked;
    EXPECT_GE(B.Gp.objective().evaluate(A), S.Objective * (1.0 - 1e-4));
  }
  EXPECT_GT(Checked, 0u) << "no random point was feasible; weak test";
}
