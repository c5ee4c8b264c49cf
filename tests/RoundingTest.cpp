//===- tests/RoundingTest.cpp - Integerization stage tests ----------------===//

#include "ir/Builders.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/MaestroModel.h"
#include "thistle/GpBuilder.h"
#include "thistle/PermutationSpace.h"
#include "thistle/Rounding.h"
#include "support/MathUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <utility>

using namespace thistle;

namespace {

struct RoundingFixture : public ::testing::Test {
  Problem Prob = [] {
    ConvLayer L;
    L.K = 32;
    L.C = 16;
    L.Hin = 28;
    L.Win = 28;
    L.R = 3;
    L.S = 3;
    return makeConvProblem(L);
  }();

  GpBuildSpec Spec = [this] {
    GpBuildSpec S;
    S.TiledIters = {Prob.iteratorIndex("k"), Prob.iteratorIndex("c"),
                    Prob.iteratorIndex("h"), Prob.iteratorIndex("w")};
    S.PePerm = S.TiledIters;
    S.DramPerm = S.TiledIters;
    S.Arch = eyerissArch();
    S.AreaBudgetUm2 = eyerissAreaUm2(S.Tech);
    return S;
  }();

  RealSolution solveReal(DesignMode Mode, SearchObjective Obj) {
    Spec.Mode = Mode;
    Spec.Objective = Obj;
    GpBuild B = buildGp(Prob, Spec);
    GpSolution S = solveGp(B.Gp);
    EXPECT_TRUE(S.Feasible);
    return extractSolution(Prob, B, Spec, S);
  }
};

} // namespace

TEST_F(RoundingFixture, ProducesLegalValidatedDesign) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundingOptions Opts;
  RoundedDesign D = roundSolution(Prob, Spec, Real, Opts);
  ASSERT_TRUE(D.Found);
  EXPECT_TRUE(D.Eval.Legal);
  EXPECT_TRUE(D.Map.validate(Prob).empty());
  EXPECT_GT(D.CandidatesTried, 0u);
}

TEST_F(RoundingFixture, RespectsCandidateCap) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundingOptions Opts;
  Opts.MaxMappingCandidates = 50;
  RoundedDesign D = roundSolution(Prob, Spec, Real, Opts);
  EXPECT_LE(D.CandidatesTried, 50u);
  // The closeness-first ordering should still find something legal.
  EXPECT_TRUE(D.Found);
}

TEST_F(RoundingFixture, CoDesignArchIsPowerOfTwoAndWithinArea) {
  RealSolution Real = solveReal(DesignMode::CoDesign,
                                SearchObjective::Energy);
  RoundingOptions Opts;
  RoundedDesign D = roundSolution(Prob, Spec, Real, Opts);
  ASSERT_TRUE(D.Found);
  EXPECT_TRUE(isPowerOfTwo(D.Arch.RegWordsPerPE));
  EXPECT_TRUE(isPowerOfTwo(D.Arch.SramWords));
  EXPECT_LE(D.Arch.areaUm2(Spec.Tech), Spec.AreaBudgetUm2 * 1.0000001);
  // The rounded PE count brackets the real solution.
  EXPECT_GE(D.Arch.NumPEs + 1, static_cast<std::int64_t>(Real.NumPEs));
}

TEST_F(RoundingFixture, TileSizesDivideHierarchically) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundedDesign D = roundSolution(Prob, Spec, Real, RoundingOptions());
  ASSERT_TRUE(D.Found);
  std::vector<std::int64_t> Sram = D.Map.sramTileExtents();
  std::vector<std::int64_t> Pe = D.Map.peTileExtents();
  std::vector<std::int64_t> Reg = D.Map.registerTileExtents();
  for (unsigned I = 0; I < Prob.numIterators(); ++I) {
    EXPECT_EQ(Prob.iterators()[I].Extent % Sram[I], 0);
    EXPECT_EQ(Sram[I] % Pe[I], 0);
    EXPECT_EQ(Pe[I] % Reg[I], 0);
  }
}

TEST_F(RoundingFixture, UtilizationThresholdFilters) {
  RealSolution Real = solveReal(DesignMode::DataflowOnly,
                                SearchObjective::Delay);
  RoundingOptions Strict;
  Strict.UtilizationThreshold = 0.5; // At least half the 168 PEs.
  RoundedDesign D = roundSolution(Prob, Spec, Real, Strict);
  if (D.Found) {
    EXPECT_GE(static_cast<double>(D.Eval.Profile.PEsUsed),
              0.5 * static_cast<double>(Spec.Arch.NumPEs));
  }
}

TEST_F(RoundingFixture, DeterministicAcrossRuns) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundedDesign A = roundSolution(Prob, Spec, Real, RoundingOptions());
  RoundedDesign B = roundSolution(Prob, Spec, Real, RoundingOptions());
  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(B.Found);
  EXPECT_DOUBLE_EQ(A.Eval.EnergyPj, B.Eval.EnergyPj);
  EXPECT_EQ(A.CandidatesTried, B.CandidatesTried);
}

TEST_F(RoundingFixture, WiderWindowNeverLosesUnderSameCap) {
  RealSolution Real =
      solveReal(DesignMode::DataflowOnly, SearchObjective::Energy);
  RoundingOptions N1;
  N1.NumCandidates = 1;
  N1.MaxMappingCandidates = 1000000; // Uncapped for this comparison.
  RoundingOptions N2 = N1;
  N2.NumCandidates = 2;
  RoundedDesign D1 = roundSolution(Prob, Spec, Real, N1);
  RoundedDesign D2 = roundSolution(Prob, Spec, Real, N2);
  // n=1 may fail outright (its single rounded point can violate a
  // capacity); n=2 explores a strict superset and must succeed here and
  // never lose when both succeed.
  ASSERT_TRUE(D2.Found);
  if (D1.Found) {
    EXPECT_LE(D2.Eval.EnergyPj, D1.Eval.EnergyPj);
  }
}

namespace {

std::uint64_t bitsOf(double V) {
  std::uint64_t B;
  std::memcpy(&B, &V, sizeof B);
  return B;
}

/// The full rounded design of one resnet-5 run, pinned bit for bit.
struct PinnedWinner {
  std::size_t CandidatesTried;
  std::int64_t NumPEs, RegWordsPerPE, SramWords;
  /// Per iterator (n k c r s h w): Register, PeTemporal, Spatial,
  /// DramTemporal trip counts.
  std::vector<std::array<std::int64_t, NumTileLevels>> Factors;
  std::uint64_t EnergyBits, CyclesBits;
};

/// resnet-5 (1x1, stride 2) with k, c, h, w tiled under one fixed pair
/// of permutation classes.
struct Resnet5Rounding : public ::testing::Test {
  Problem Prob = makeConvProblem(resnet18Layers()[4]);
  GpBuildSpec Spec = [this] {
    GpBuildSpec S;
    auto It = [this](const char *Name) { return Prob.iteratorIndex(Name); };
    S.TiledIters = {It("k"), It("c"), It("h"), It("w")};
    S.PePerm = {It("c"), It("k"), It("w"), It("h")};
    S.DramPerm = {It("h"), It("w"), It("k"), It("c")};
    S.Arch = eyerissArch();
    S.AreaBudgetUm2 = eyerissAreaUm2(S.Tech);
    return S;
  }();

  RealSolution solveReal(DesignMode Mode) {
    Spec.Mode = Mode;
    GpBuild B = buildGp(Prob, Spec);
    GpSolution S = solveGp(B.Gp);
    EXPECT_TRUE(S.Feasible);
    return extractSolution(Prob, B, Spec, S);
  }

  void expectWinner(const RoundedDesign &D, const PinnedWinner &W) {
    ASSERT_TRUE(D.Found);
    EXPECT_TRUE(D.Eval.Legal);
    EXPECT_EQ(D.CandidatesTried, W.CandidatesTried);
    EXPECT_EQ(D.Arch.NumPEs, W.NumPEs);
    EXPECT_EQ(D.Arch.RegWordsPerPE, W.RegWordsPerPE);
    EXPECT_EQ(D.Arch.SramWords, W.SramWords);
    EXPECT_EQ(D.Map.Factors, W.Factors);
    // fullPermutation appends the untiled iterators n, r, s.
    EXPECT_EQ(D.Map.DramPerm, (std::vector<unsigned>{5, 6, 1, 2, 0, 3, 4}));
    EXPECT_EQ(D.Map.PePerm, (std::vector<unsigned>{2, 1, 6, 5, 0, 3, 4}));
    EXPECT_EQ(bitsOf(D.Eval.EnergyPj), W.EnergyBits);
    EXPECT_EQ(bitsOf(D.Eval.Cycles), W.CyclesBits);
  }
};

const PinnedWinner DataflowWinner = {
    696, 168, 512, 65536,
    {{1, 1, 1, 1}, {1, 8, 1, 16}, {2, 16, 1, 2}, {1, 1, 1, 1},
     {1, 1, 1, 1}, {2, 1, 14, 1}, {2, 1, 2, 7}},
    0x41a71ee76d2445afULL, 0x40e8800000000000ULL}; // 1.9395e8 pJ, 50176.

const PinnedWinner CoDesignWinner = {
    1320, 1215, 8, 65536,
    {{1, 1, 1, 1}, {1, 64, 1, 2}, {2, 16, 1, 2}, {1, 1, 1, 1},
     {1, 1, 1, 1}, {2, 1, 14, 1}, {2, 1, 14, 1}},
    0x4191a0f6a0307716ULL, 0x40d9a40000000000ULL}; // 7.3940e7 pJ, 26256.

} // namespace

TEST_F(Resnet5Rounding, WinnersArePinnedUnderEveryEvaluator) {
  CrossCheckEvaluator CrossCheck(nestCostEvaluator(), maestroCostEvaluator());
  const CostEvaluator *Backends[] = {nullptr, costEvaluator("maestro"),
                                     &CrossCheck};
  const std::pair<DesignMode, const PinnedWinner *> Runs[] = {
      {DesignMode::DataflowOnly, &DataflowWinner},
      {DesignMode::CoDesign, &CoDesignWinner}};
  for (const auto &[Mode, Winner] : Runs) {
    RealSolution Real = solveReal(Mode);
    for (const CostEvaluator *Backend : Backends) {
      SCOPED_TRACE(std::string(Mode == DesignMode::CoDesign ? "codesign "
                                                            : "dataflow ") +
                   (Backend ? Backend->name() : "default"));
      RoundingOptions Opts;
      Opts.Evaluator = Backend;
      expectWinner(roundSolution(Prob, Spec, Real, Opts), *Winner);
    }
  }
  CrossCheckStats Stats = CrossCheck.stats();
  EXPECT_EQ(Stats.Evals, 696u + 1320u);
  EXPECT_EQ(Stats.DivergentEvals, 0u);
}

TEST_F(Resnet5Rounding, CandidateCapBindsExactly) {
  // One architecture: the cap is hit exactly, and the nearest-first order
  // already holds the uncapped winner.
  RoundingOptions Opts;
  Opts.MaxMappingCandidates = 10;
  PinnedWinner Dataflow = DataflowWinner;
  Dataflow.CandidatesTried = 10;
  expectWinner(roundSolution(Prob, Spec, solveReal(DesignMode::DataflowOnly),
                             Opts),
               Dataflow);

  // Several architectures: the cap is checked per mapping, so the last
  // mapping's remaining architectures still count (10 -> 12), and the
  // capped search settles for a worse register tile of c.
  PinnedWinner CoDesign = CoDesignWinner;
  CoDesign.CandidatesTried = 12;
  CoDesign.Factors[2] = {4, 16, 1, 1};
  CoDesign.EnergyBits = 0x419212e247fe5be6ULL; // 7.5807e7 pJ.
  expectWinner(
      roundSolution(Prob, Spec, solveReal(DesignMode::CoDesign), Opts),
      CoDesign);
}
