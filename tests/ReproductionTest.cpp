//===- tests/ReproductionTest.cpp - Headline reproduction guards ----------===//
//
// Executable versions of the paper's headline claims on real Table II
// layers, so a regression in any stage of the pipeline (symbolic model,
// solver, rounding, evaluation) trips a test rather than silently
// degrading the figures. Bands are the measured values of EXPERIMENTS.md
// with margin; they are intentionally loose enough to survive benign
// tuning and tight enough to catch real regressions.
//
//===----------------------------------------------------------------------===//

#include "ir/Builders.h"
#include "nestmodel/Mapper.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

const TechParams Tech = TechParams::cgo45nm();

ThistleResult runDataflow(const ConvLayer &L, SearchObjective Obj) {
  ThistleOptions O;
  O.Objective = Obj;
  Problem P = makeConvProblem(L);
  return optimizeLayer(P, eyerissArch(), Tech, O);
}

ThistleResult runCoDesign(const ConvLayer &L, SearchObjective Obj) {
  ThistleOptions O;
  O.Mode = DesignMode::CoDesign;
  O.Objective = Obj;
  Problem P = makeConvProblem(L);
  return optimizeLayer(P, eyerissArch(), Tech, O, eyerissAreaUm2(Tech));
}

} // namespace

TEST(Reproduction, Fig4EyerissEnergyBand) {
  // Paper: 20-30 pJ/MAC for dataflow optimization on Eyeriss.
  for (const ConvLayer &L :
       {resnet18Layers()[1], resnet18Layers()[8], yolo9000Layers()[6]}) {
    ThistleResult R = runDataflow(L, SearchObjective::Energy);
    ASSERT_TRUE(R.Found) << L.Name;
    EXPECT_GT(R.Eval.EnergyPerMacPj, 20.0) << L.Name;
    EXPECT_LT(R.Eval.EnergyPerMacPj, 24.0) << L.Name;
  }
}

TEST(Reproduction, Fig4ThistleMatchesMapperOnEnergy) {
  // Paper: Thistle and the Mapper achieve similar energy, Thistle
  // slightly better.
  ConvLayer L = yolo9000Layers()[6];
  Problem P = makeConvProblem(L);
  MapperOptions MO;
  MO.MaxTrials = 10000;
  MO.VictoryCondition = 3000;
  MultiMapperResult M = searchMultiMappings(
      P, Hierarchy::classic3Level(eyerissArch(), Tech), MO);
  ThistleResult T = runDataflow(L, SearchObjective::Energy);
  ASSERT_TRUE(M.Found);
  ASSERT_TRUE(T.Found);
  EXPECT_LE(T.Eval.EnergyPj, M.BestEval.EnergyPj * 1.01);
}

TEST(Reproduction, Fig5CoDesignEnergyBand) {
  // Paper: ~5 pJ/MAC for most layers at Eyeriss-equal area, with the
  // co-designed machines using small register files and many PEs.
  for (const ConvLayer &L : {resnet18Layers()[1], yolo9000Layers()[6]}) {
    ThistleResult R = runCoDesign(L, SearchObjective::Energy);
    ASSERT_TRUE(R.Found) << L.Name;
    EXPECT_LT(R.Eval.EnergyPerMacPj, 6.0) << L.Name;
    EXPECT_GT(R.Eval.EnergyPerMacPj, 2.5) << L.Name;
    EXPECT_LE(R.Arch.RegWordsPerPE, 32) << L.Name;
    EXPECT_GT(R.Arch.NumPEs, 400) << L.Name;
    EXPECT_LE(R.Arch.areaUm2(Tech), eyerissAreaUm2(Tech) * 1.0000001);
  }
}

TEST(Reproduction, Fig7EyerissIpcBand) {
  // Paper: delay-optimized dataflows approach the 168-PE ceiling.
  ThistleResult R = runDataflow(resnet18Layers()[1], SearchObjective::Delay);
  ASSERT_TRUE(R.Found);
  EXPECT_GE(R.Eval.MacIpc, 120.0);
  EXPECT_LE(R.Eval.MacIpc, 168.0);
}

TEST(Reproduction, Fig8CoDesignIpcGain) {
  // Paper: delay co-design at equal area gains large factors over the
  // fixed Eyeriss architecture.
  ConvLayer L = resnet18Layers()[1];
  ThistleResult Fixed = runDataflow(L, SearchObjective::Delay);
  ThistleResult Co = runCoDesign(L, SearchObjective::Delay);
  ASSERT_TRUE(Fixed.Found);
  ASSERT_TRUE(Co.Found);
  EXPECT_GT(Co.Eval.MacIpc, Fixed.Eval.MacIpc * 4.0);
}

TEST(Reproduction, EnergyDominatedByRegisterMacFloor) {
  // Paper's mechanism behind Figs. 5/6: on the co-designed machines the
  // (4 eps_R + eps_op) * Nops term dominates total energy.
  ThistleResult R = runCoDesign(resnet18Layers()[8],
                                SearchObjective::Energy);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.Eval.MacEnergyPj, 0.5 * R.Eval.EnergyPj);
}
