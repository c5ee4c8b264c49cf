//===- tests/ExtensionTest.cpp - Extension feature tests ------------------===//
//
// Tests for the paper's mentioned-but-unevaluated features implemented by
// this library: the energy-delay-product objective, convolution dilation,
// spatial unrolling of the stencil dimensions, the halo-bound fallback,
// and the Mapper's search strategies.
//
//===----------------------------------------------------------------------===//

#include "ClassicMachine.h"
#include "ir/Builders.h"
#include "nestmodel/Mapper.h"
#include "support/Rng.h"
#include "support/MathUtil.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

ConvLayer smallConv() {
  ConvLayer L;
  L.Name = "ext-conv";
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  return L;
}

ThistleOptions fastOptions(DesignMode Mode, SearchObjective Obj) {
  ThistleOptions O;
  O.Mode = Mode;
  O.Objective = Obj;
  O.Solver.Tolerance = 1e-5;
  O.MaxPermClassPairs = 10;
  return O;
}

} // namespace

TEST(EdpObjective, EvaluatorReportsProduct) {
  Problem P = makeMatmulProblem(8, 8, 8);
  MultiEvalResult R = evaluateMultiMapping(
      P, Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm()),
      MultiMapping::fromMapping(P, Mapping::untiled(P)));
  EXPECT_DOUBLE_EQ(R.EdpPjCycles, R.EnergyPj * R.Cycles);
  EXPECT_DOUBLE_EQ(objectiveValue(R, SearchObjective::EnergyDelayProduct),
                   R.EdpPjCycles);
  EXPECT_DOUBLE_EQ(objectiveValue(R, SearchObjective::Energy), R.EnergyPj);
  EXPECT_DOUBLE_EQ(objectiveValue(R, SearchObjective::Delay), R.Cycles);
}

TEST(EdpObjective, CoDesignBeatsSingleObjectiveDesignsOnEdp) {
  Problem P = makeConvProblem(smallConv());
  TechParams Tech = TechParams::cgo45nm();
  double Budget = eyerissAreaUm2(Tech);

  ThistleResult Energy = optimizeLayer(
      P, eyerissArch(), Tech,
      fastOptions(DesignMode::CoDesign, SearchObjective::Energy), Budget);
  ThistleResult Delay = optimizeLayer(
      P, eyerissArch(), Tech,
      fastOptions(DesignMode::CoDesign, SearchObjective::Delay), Budget);
  ThistleResult Edp = optimizeLayer(
      P, eyerissArch(), Tech,
      fastOptions(DesignMode::CoDesign, SearchObjective::EnergyDelayProduct),
      Budget);
  ASSERT_TRUE(Energy.Found);
  ASSERT_TRUE(Delay.Found);
  ASSERT_TRUE(Edp.Found);
  // The EDP design need not beat the others on their own objectives, but
  // it must be at least competitive on EDP (small slack for rounding).
  EXPECT_LE(Edp.Eval.EdpPjCycles, Energy.Eval.EdpPjCycles * 1.05);
  EXPECT_LE(Edp.Eval.EdpPjCycles, Delay.Eval.EdpPjCycles * 1.05);
}

TEST(EdpObjective, MapperSupportsEdp) {
  Problem P = makeConvProblem(smallConv());
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions O;
  O.Objective = SearchObjective::EnergyDelayProduct;
  O.MaxTrials = 2000;
  O.VictoryCondition = 500;
  MultiMapperResult R = searchMultiMappings(P, Machine, O);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.BestEval.EdpPjCycles, 0.0);
}

TEST(Dilation, FootprintUsesDilatedKernel) {
  ConvLayer L;
  L.K = 1;
  L.C = 1;
  L.Hin = 16;
  L.Win = 16;
  L.R = 3;
  L.S = 3;
  L.DilationX = 2;
  L.DilationY = 2;
  Problem P = makeConvProblem(L);
  const Tensor &In = P.tensors()[1];
  // A single output point at dilation 2 touches rows 0, 2, 4: the dense
  // box extent is 1*(1-1) + 2*(3-1) + 1 = 5 per spatial dim.
  std::vector<std::int64_t> Tile(7, 1);
  Tile[P.iteratorIndex("r")] = 3;
  Tile[P.iteratorIndex("s")] = 3;
  EXPECT_EQ(In.footprintWords(Tile), 5 * 5);
}

TEST(Dilation, ModelMatchesOracleOnDilatedConv) {
  ConvLayer L;
  L.K = 2;
  L.C = 2;
  L.Hin = 10;
  L.Win = 10;
  L.R = 3;
  L.S = 3;
  L.DilationX = 2;
  L.DilationY = 2;
  Problem P = makeConvProblem(L);
  Rng R(31);
  for (int Trial = 0; Trial < 30; ++Trial) {
    // Random valid mapping by divisor sampling.
    Mapping M;
    M.Factors.resize(P.numIterators());
    for (unsigned I = 0; I < P.numIterators(); ++I) {
      std::int64_t Extent = P.iterators()[I].Extent;
      std::int64_t RegF = R.pick(divisorsOf(Extent));
      std::int64_t Rest = Extent / RegF;
      std::int64_t SpatF = R.pick(divisorsOf(Rest));
      Rest /= SpatF;
      std::int64_t PeF = R.pick(divisorsOf(Rest));
      M.factor(I, TileLevel::Register) = RegF;
      M.factor(I, TileLevel::Spatial) = SpatF;
      M.factor(I, TileLevel::PeTemporal) = PeF;
      M.factor(I, TileLevel::DramTemporal) = Rest / PeF;
    }
    M.DramPerm.resize(P.numIterators());
    for (unsigned I = 0; I < P.numIterators(); ++I)
      M.DramPerm[I] = I;
    M.PePerm = M.DramPerm;
    R.shuffle(M.DramPerm);
    R.shuffle(M.PePerm);
    SCOPED_TRACE("dilated trial " + std::to_string(Trial));
    expectModelMatchesOracle(P, M);
  }
}

TEST(Dilation, OptimizerHandlesDilatedLayer) {
  ConvLayer L = smallConv();
  L.DilationX = L.DilationY = 2;
  Problem P = makeConvProblem(L);
  ThistleResult R = optimizeLayer(
      P, eyerissArch(), TechParams::cgo45nm(),
      fastOptions(DesignMode::DataflowOnly, SearchObjective::Energy));
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
}

TEST(SpatialStencil, DelayBenefitsFromStencilUnrolling) {
  // On a layer whose tiled dims cannot use all PEs, unrolling r/s
  // spatially increases the reachable parallelism.
  ConvLayer L;
  L.K = 17; // Prime extents everywhere but r/s.
  L.C = 13;
  L.Hin = 11;
  L.Win = 11;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  TechParams Tech = TechParams::cgo45nm();

  ThistleOptions With = fastOptions(DesignMode::DataflowOnly,
                                    SearchObjective::Delay);
  ThistleOptions Without = With;
  Without.SpatialUntiled = false;
  ThistleResult RWith = optimizeLayer(P, eyerissArch(), Tech, With);
  ThistleResult RWithout = optimizeLayer(P, eyerissArch(), Tech, Without);
  ASSERT_TRUE(RWith.Found);
  ASSERT_TRUE(RWithout.Found);
  EXPECT_GE(RWith.Eval.MacIpc, RWithout.Eval.MacIpc);
  // 3x3 unrolling should appear: some spatial factor on r or s.
  std::int64_t StencilSpatial =
      RWith.Map.factor(P.iteratorIndex("r"), TileLevel::Spatial) *
      RWith.Map.factor(P.iteratorIndex("s"), TileLevel::Spatial);
  EXPECT_GT(StencilSpatial, 1);
}

TEST(HaloBoundFallback, TinyRegisterFileStaysFeasible) {
  // A 4-word register file per PE: the drop-negative bound alone rejects
  // it, the product-bound fallback must recover a legal design.
  ConvLayer L = smallConv();
  Problem P = makeConvProblem(L);
  ArchConfig Arch = eyerissArch();
  Arch.NumPEs = 1024;
  Arch.RegWordsPerPE = 4;
  Arch.SramWords = 32768;
  ThistleResult R = optimizeLayer(
      P, Arch, TechParams::cgo45nm(),
      fastOptions(DesignMode::DataflowOnly, SearchObjective::Energy));
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
  EXPECT_LE(R.Eval.Profile.Occupancy[0], 4);
}

TEST(MapperStrategies, AllFindLegalMappings) {
  Problem P = makeConvProblem(smallConv());
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  for (MapperStrategy S :
       {MapperStrategy::RandomSampling, MapperStrategy::HillClimb,
        MapperStrategy::Anneal}) {
    MapperOptions O;
    O.Strategy = S;
    O.MaxTrials = 2000;
    O.VictoryCondition = 2000;
    MultiMapperResult R = searchMultiMappings(P, Machine, O);
    ASSERT_TRUE(R.Found) << "strategy " << static_cast<int>(S);
    EXPECT_TRUE(R.BestEval.Legal);
    EXPECT_TRUE(R.Best.validate(P, Machine).empty());
  }
}

TEST(MapperStrategies, GuidedSearchBeatsPureRandom) {
  Problem P = makeConvProblem(smallConv());
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  auto run = [&](MapperStrategy S) {
    MapperOptions O;
    O.Strategy = S;
    O.MaxTrials = 3000;
    O.VictoryCondition = 3000;
    O.Seed = 5;
    return searchMultiMappings(P, Machine, O);
  };
  MultiMapperResult Random = run(MapperStrategy::RandomSampling);
  MultiMapperResult Hill = run(MapperStrategy::HillClimb);
  MultiMapperResult Anneal = run(MapperStrategy::Anneal);
  ASSERT_TRUE(Random.Found);
  ASSERT_TRUE(Hill.Found);
  ASSERT_TRUE(Anneal.Found);
  // The guided strategies should not lose to pure random sampling by
  // more than noise.
  EXPECT_LE(Hill.BestEval.EnergyPj, Random.BestEval.EnergyPj * 1.02);
  EXPECT_LE(Anneal.BestEval.EnergyPj, Random.BestEval.EnergyPj * 1.10);
}

TEST(MapperStrategies, AnnealIsDeterministic) {
  Problem P = makeMatmulProblem(16, 16, 16);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions O;
  O.Strategy = MapperStrategy::Anneal;
  O.MaxTrials = 1000;
  O.Seed = 9;
  MultiMapperResult A = searchMultiMappings(P, Machine, O);
  MultiMapperResult B = searchMultiMappings(P, Machine, O);
  ASSERT_TRUE(A.Found);
  EXPECT_DOUBLE_EQ(A.BestEval.EnergyPj, B.BestEval.EnergyPj);
}
