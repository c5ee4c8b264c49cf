//===- tests/MultilevelTest.cpp - Arbitrary-depth hierarchy tests ---------===//
//
// Validates the multilevel generalization three ways: against its own
// brute-force oracle on random mappings and hierarchies, against the
// fixed 4-level pipeline on the classic machine (they must agree
// exactly), and end-to-end through the multilevel GP optimizer.
//
//===----------------------------------------------------------------------===//

#include "RandomMapping.h"
#include "ir/Builders.h"
#include "multilevel/MultiGp.h"
#include "multilevel/MultiSim.h"
#include "nestmodel/Evaluator.h"
#include "nestmodel/Mapper.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

Problem smallConvProblem() {
  ConvLayer L;
  L.K = 4;
  L.C = 4;
  L.Hin = 6;
  L.Win = 6;
  L.R = 3;
  L.S = 3;
  return makeConvProblem(L);
}

/// A small L-level hierarchy with generous capacities (tests that need
/// legality filtering set their own).
Hierarchy testHierarchy(unsigned NumLevels, unsigned FanoutLevel) {
  Hierarchy H;
  H.NumPEs = 64;
  H.MacEnergyPj = 2.2;
  for (unsigned L = 0; L < NumLevels; ++L)
    H.Levels.push_back({"L" + std::to_string(L), 1 << 20,
                        0.5 * (L + 1), 16.0});
  H.FanoutLevel = FanoutLevel;
  return H;
}

} // namespace

TEST(Hierarchy, ValidationCatchesMistakes) {
  Hierarchy H = testHierarchy(3, 1);
  EXPECT_TRUE(H.validate().empty());
  H.FanoutLevel = 3;
  EXPECT_FALSE(H.validate().empty());
  H.FanoutLevel = 0;
  EXPECT_FALSE(H.validate().empty());
  H = testHierarchy(1, 1);
  EXPECT_FALSE(H.validate().empty());
  H = testHierarchy(3, 1);
  H.NumPEs = 0;
  EXPECT_FALSE(H.validate().empty());
  // A non-outermost level with no storage is a modeling error; the
  // outermost (backing store) level is the only one allowed capacity 0
  // (= unbounded).
  H = testHierarchy(3, 1);
  H.Levels[1].CapacityWords = 0;
  EXPECT_FALSE(H.validate().empty());
  EXPECT_NE(H.validate().find("no capacity"), std::string::npos);
  H = testHierarchy(3, 1);
  H.Levels[2].CapacityWords = 0;
  EXPECT_TRUE(H.validate().empty());
  H = testHierarchy(3, 1);
  H.Levels[0].AccessEnergyPj = -1.0;
  EXPECT_FALSE(H.validate().empty());
  H = testHierarchy(3, 1);
  H.Levels[1].Bandwidth = 0.0;
  EXPECT_FALSE(H.validate().empty());
}

TEST(Hierarchy, ValidationMessagesAreExact) {
  Hierarchy H = testHierarchy(1, 1);
  EXPECT_EQ(H.validate(), "hierarchy needs at least two levels");
  H = testHierarchy(3, 3);
  EXPECT_EQ(H.validate(), "fan-out level 3 out of range [1, 2]");
  H = testHierarchy(3, 0);
  EXPECT_EQ(H.validate(), "fan-out level 0 out of range [1, 2]");
  H = testHierarchy(3, 1);
  H.NumPEs = 0;
  EXPECT_EQ(H.validate(), "hierarchy needs at least one PE");
  H = testHierarchy(3, 1);
  H.Levels[1].CapacityWords = 0;
  EXPECT_EQ(H.validate(), "level L1 has no capacity");
  H = testHierarchy(3, 1);
  H.Levels[2].AccessEnergyPj = -1.0;
  EXPECT_EQ(H.validate(), "negative access energy at level L2");
  H = testHierarchy(3, 1);
  H.Levels[1].Bandwidth = 0.0;
  EXPECT_EQ(H.validate(), "non-positive bandwidth at level L1");
}

TEST(MultiMapping, ValidationMessagesAreExact) {
  Problem P = smallConvProblem(); // n k c r s h w = 1 4 4 3 3 4 4.
  const unsigned K = P.iteratorIndex("k");
  Hierarchy H = testHierarchy(3, 1);
  const MultiMapping Good = MultiMapping::untiled(P, 3);
  ASSERT_EQ(Good.validate(P, H), "");

  MultiMapping M = MultiMapping::untiled(P, 2);
  EXPECT_EQ(M.validate(P, H),
            "temporal factor levels do not match the hierarchy depth");
  M = Good;
  M.SpatialFactors.pop_back();
  EXPECT_EQ(M.validate(P, H), "spatial factor arity mismatch");
  M = Good;
  M.Perms.pop_back();
  EXPECT_EQ(M.validate(P, H),
            "permutation count does not match the hierarchy depth");
  M = Good;
  M.TempFactors[1].push_back(1);
  EXPECT_EQ(M.validate(P, H), "temporal factor arity mismatch");
  M = Good;
  M.SpatialFactors[K] = 0;
  EXPECT_EQ(M.validate(P, H), "spatial factor < 1");
  M = Good;
  M.TempFactors[2][K] = 0;
  EXPECT_EQ(M.validate(P, H), "temporal factor < 1");
  M = Good;
  M.TempFactors[0][K] = 2;
  EXPECT_EQ(M.validate(P, H), "iterator k factors multiply to 2, expected 4");
  M = Good;
  M.Perms[1].pop_back();
  EXPECT_EQ(M.validate(P, H), "permutation arity mismatch");
  M = Good;
  M.Perms[2][0] = M.Perms[2][1]; // A repeated iterator.
  EXPECT_EQ(M.validate(P, H), "not a permutation");
  M = Good;
  M.Perms[1][0] = P.numIterators(); // Out of range.
  EXPECT_EQ(M.validate(P, H), "not a permutation");
  // Good repeats one permutation on every level, so its passing above
  // shows the duplicate check starts afresh on each level.
  EXPECT_EQ(Good.Perms[1], Good.Perms[2]);
}

TEST(MultiEvaluator, IllegalReasonListsEveryViolationInOrder) {
  // Untiled 16^3 matmul with i split 2 (level 0) x 8 (spatial) on a spad4
  // machine: the register file and the scratchpad each hold 320 words,
  // the shared SRAM fits the 768-word tile, and 8 PEs are asked of 4.
  Problem P = makeMatmulProblem(16, 16, 16);
  MultiMapping M = MultiMapping::untiled(P, 4);
  M.TempFactors[0][0] = 2;
  M.SpatialFactors[0] = 8;
  ArchConfig Arch = eyerissArch();
  Arch.NumPEs = 4;
  Arch.RegWordsPerPE = 8;
  const TechParams Tech = TechParams::cgo45nm();
  Hierarchy Small = Hierarchy::withScratchpad(Arch, Tech, /*SpadWords=*/16,
                                              /*SramWords=*/1024);
  MultiEvalResult Bad = evaluateMultiMapping(P, Small, M);
  EXPECT_FALSE(Bad.Legal);
  EXPECT_EQ(Bad.IllegalReason,
            "RegisterFile tile 320 words > capacity 8; "
            "Scratchpad tile 320 words > capacity 16; "
            "uses 8 PEs > available 4; ");

  Arch.NumPEs = 8;
  Arch.RegWordsPerPE = 320;
  Hierarchy Fits = Hierarchy::withScratchpad(Arch, Tech, 320, 768);
  MultiEvalResult Good = evaluateMultiMapping(P, Fits, M);
  EXPECT_TRUE(Good.Legal);
  EXPECT_EQ(Good.IllegalReason, "");
  // Legality is the only thing the capacities decide here.
  EXPECT_EQ(Good.Profile.Occupancy, Bad.Profile.Occupancy);
}

TEST(Hierarchy, AreaPricesPrivateLevelsPerPE) {
  // On a 4-level machine with fan-out at level 2, the register file and
  // the scratchpad are replicated per PE while the SRAM is shared; the
  // DRAM level contributes no on-chip area.
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H;
  H.NumPEs = 64;
  H.MacEnergyPj = 2.2;
  H.FanoutLevel = 2;
  H.Levels = {{"RegisterFile", 512, 0.2, 1e9},
              {"Scratchpad", 2048, 0.8, 4.0},
              {"SRAM", 65536, 6.0, 16.0},
              {"DRAM", 0, 128.0, 4.0}};
  ASSERT_TRUE(H.validate().empty());
  const double PerPE = Tech.AreaMacUm2 + Tech.AreaRegWordUm2 * 512.0 +
                       Tech.AreaSramWordUm2 * 2048.0;
  const double Shared = Tech.AreaSramWordUm2 * 65536.0;
  EXPECT_DOUBLE_EQ(H.areaUm2(Tech), 64.0 * PerPE + Shared);

  // Moving the fan-out boundary up one level turns the scratchpad into a
  // shared structure: the area drops by (NumPEs - 1) copies of it.
  Hierarchy Shared2 = H;
  Shared2.FanoutLevel = 1;
  EXPECT_DOUBLE_EQ(Shared2.areaUm2(Tech),
                   H.areaUm2(Tech) -
                       63.0 * Tech.AreaSramWordUm2 * 2048.0);
}

TEST(Hierarchy, ParseRoundTripsAndRejectsGarbage) {
  const std::string Text = "# four-level scratchpad machine\n"
                           "pes 128\n"
                           "mac-pj 2.2\n"
                           "fanout 2\n"
                           "level RegisterFile 512 0.2 1e9\n"
                           "level Scratchpad 2048 0.8 4\n"
                           "level SRAM 65536 6.0 16\n"
                           "level DRAM - 128.0 4\n";
  Expected<Hierarchy> Parsed = parseHierarchy(Text);
  ASSERT_TRUE(Parsed) << Parsed.status().message();
  const Hierarchy &H = Parsed.value();
  EXPECT_TRUE(H.validate().empty());
  EXPECT_EQ(H.NumPEs, 128);
  EXPECT_EQ(H.FanoutLevel, 2u);
  EXPECT_EQ(H.numLevels(), 4u);
  EXPECT_EQ(H.Levels[1].Name, "Scratchpad");
  EXPECT_EQ(H.Levels[1].CapacityWords, 2048);
  EXPECT_EQ(H.Levels[3].CapacityWords, 0); // "-" = unbounded.
  EXPECT_DOUBLE_EQ(H.MacEnergyPj, 2.2);
  EXPECT_DOUBLE_EQ(H.Levels[0].Bandwidth, 1e9);

  EXPECT_FALSE(parseHierarchy("pes 16\nwibble 3\n"));
  Expected<Hierarchy> Bad = parseHierarchy("pes 16\nlevel OnlyName\n");
  ASSERT_FALSE(Bad);
  EXPECT_FALSE(Bad.status().message().empty());
}

TEST(MultiMapper, FindsLegalMappingOnFourLevelMachine) {
  // The generic mapper must search a 4-level machine directly, and its
  // trajectory must not depend on the thread count (same round/slot RNG
  // scheme as the classic path).
  ConvLayer L;
  L.K = 16;
  L.C = 8;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  Hierarchy H = Hierarchy::withScratchpad(eyerissArch(),
                                          TechParams::cgo45nm(),
                                          /*SpadWords=*/2048,
                                          /*SramWords=*/65536);
  MapperOptions Opts;
  Opts.Seed = 3;
  Opts.MaxTrials = 1024;
  Opts.VictoryCondition = 300;
  Opts.Threads = 1;
  MultiMapperResult Ref = searchMultiMappings(P, H, Opts);
  ASSERT_TRUE(Ref.Found);
  EXPECT_TRUE(Ref.BestEval.Legal);
  EXPECT_TRUE(Ref.Best.validate(P, H).empty());
  ASSERT_EQ(Ref.Best.TempFactors.size(), 4u);
  EXPECT_LE(Ref.BestEval.Profile.Occupancy[1], 2048);

  Opts.Threads = 4;
  MultiMapperResult Par = searchMultiMappings(P, H, Opts);
  EXPECT_EQ(Par.Trials, Ref.Trials);
  EXPECT_EQ(Par.LegalTrials, Ref.LegalTrials);
  ASSERT_TRUE(Par.Found);
  EXPECT_EQ(Par.Best.TempFactors, Ref.Best.TempFactors);
  EXPECT_EQ(Par.Best.SpatialFactors, Ref.Best.SpatialFactors);
  EXPECT_EQ(Par.Best.Perms, Ref.Best.Perms);
  EXPECT_DOUBLE_EQ(Par.BestEval.EnergyPj, Ref.BestEval.EnergyPj);
}

TEST(Hierarchy, ClassicMatchesArchConfig) {
  ArchConfig Arch = eyerissArch();
  Hierarchy H = Hierarchy::classic3Level(Arch, TechParams::cgo45nm());
  ASSERT_TRUE(H.validate().empty());
  EXPECT_EQ(H.numLevels(), 3u);
  EXPECT_EQ(H.FanoutLevel, 1u);
  EXPECT_EQ(H.NumPEs, 168);
  EXPECT_EQ(H.Levels[0].CapacityWords, 512);
  EXPECT_EQ(H.Levels[1].CapacityWords, 65536);
  EnergyModel E(TechParams::cgo45nm());
  EXPECT_NEAR(H.Levels[0].AccessEnergyPj, E.regAccessPj(512), 1e-12);
  EXPECT_NEAR(H.Levels[1].AccessEnergyPj, E.sramAccessPj(65536), 1e-12);
  EXPECT_NEAR(H.Levels[2].AccessEnergyPj, 128.0, 1e-12);
}

TEST(MultiMapping, UntiledAndValidation) {
  Problem P = smallConvProblem();
  Hierarchy H = testHierarchy(4, 2);
  MultiMapping M = MultiMapping::untiled(P, 4);
  EXPECT_TRUE(M.validate(P, H).empty());
  EXPECT_EQ(M.numPEsUsed(), 1);
  M.TempFactors[0][1] = 999; // Break the product invariant.
  EXPECT_FALSE(M.validate(P, H).empty());
}

TEST(MultiMapping, TileExtentsIncludeSpatialAtSharedLevels) {
  Problem P = makeMatmulProblem(8, 8, 8);
  Hierarchy H = testHierarchy(3, 1);
  MultiMapping M = MultiMapping::untiled(P, 3);
  M.TempFactors[0][0] = 2;
  M.SpatialFactors[0] = 2;
  M.TempFactors[1][0] = 2;
  M.TempFactors[2][0] = 1;
  ASSERT_TRUE(M.validate(P, H).empty());
  EXPECT_EQ(M.tileExtents(H, 0)[0], 2);     // Private: t0.
  EXPECT_EQ(M.tileExtents(H, 1)[0], 8);     // Shared: t0*t1*p.
  EXPECT_EQ(M.sliceExtents(H)[0], 4);       // Per-PE slice: t0*t1.
}

TEST(MultiNestAnalysis, MatchesOracleOnRandomHierarchies) {
  Problem P = smallConvProblem();
  Rng R(2026);
  for (unsigned NumLevels : {2u, 3u, 4u}) {
    for (unsigned F = 1; F < NumLevels; ++F) {
      Hierarchy H = testHierarchy(NumLevels, F);
      for (int Trial = 0; Trial < 12; ++Trial) {
        MultiMapping M = randomMultiMapping(P, NumLevels, R);
        ASSERT_TRUE(M.validate(P, H).empty());
        SCOPED_TRACE("L=" + std::to_string(NumLevels) + " F=" +
                     std::to_string(F) + " trial " + std::to_string(Trial));
        MultiProfile Model = analyzeMultiNest(P, H, M);
        MultiSimResult Oracle = simulateMultiNest(P, H, M);
        for (unsigned B = 0; B < H.numBoundaries(); ++B)
          for (std::size_t T = 0; T < P.tensors().size(); ++T)
            EXPECT_EQ(Model.Words[B][T], Oracle.Words[B][T])
                << "boundary " << B << " tensor "
                << P.tensors()[T].Name;
      }
    }
  }
}

TEST(MultiNestAnalysis, MatchesOracleOnMatmul) {
  Problem P = makeMatmulProblem(8, 12, 6);
  Rng R(11);
  Hierarchy H = testHierarchy(4, 2);
  for (int Trial = 0; Trial < 25; ++Trial) {
    MultiMapping M = randomMultiMapping(P, 4, R);
    SCOPED_TRACE("trial " + std::to_string(Trial));
    MultiProfile Model = analyzeMultiNest(P, H, M);
    MultiSimResult Oracle = simulateMultiNest(P, H, M);
    for (unsigned B = 0; B < H.numBoundaries(); ++B)
      for (std::size_t T = 0; T < P.tensors().size(); ++T)
        EXPECT_EQ(Model.Words[B][T], Oracle.Words[B][T]);
  }
}

TEST(MultiNestAnalysis, ClassicHierarchyAgreesWithFixedPipeline) {
  // The 3-level classic machine must reproduce the fixed 4-level
  // pipeline: a lifted Mapping counts exactly what the MultiMapping
  // counts (boundary 0 = SRAM<->registers, boundary 1 = DRAM<->SRAM),
  // and energy and cycles follow the Eq. 3 / section V-B closed forms.
  Problem P = smallConvProblem();
  ArchConfig Arch;
  Arch.NumPEs = 64;
  Arch.RegWordsPerPE = 4096;
  Arch.SramWords = 65536;
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H = Hierarchy::classic3Level(Arch, Tech);
  EnergyModel Energy(Tech);

  Rng R(5);
  for (int Trial = 0; Trial < 25; ++Trial) {
    MultiMapping MM = randomMultiMapping(P, 3, R);
    // Lift to the fixed 4-level Mapping.
    Mapping Map = Mapping::untiled(P);
    for (unsigned I = 0; I < P.numIterators(); ++I) {
      Map.factor(I, TileLevel::Register) = MM.TempFactors[0][I];
      Map.factor(I, TileLevel::PeTemporal) = MM.TempFactors[1][I];
      Map.factor(I, TileLevel::DramTemporal) = MM.TempFactors[2][I];
      Map.factor(I, TileLevel::Spatial) = MM.SpatialFactors[I];
    }
    Map.PePerm = MM.Perms[1];
    Map.DramPerm = MM.Perms[2];
    ASSERT_TRUE(Map.validate(P).empty());

    SCOPED_TRACE("trial " + std::to_string(Trial));
    MultiProfile Multi = analyzeMultiNest(P, H, MM);
    MultiProfile Fixed =
        analyzeMultiNest(P, H, MultiMapping::fromMapping(P, Map));
    EXPECT_EQ(Multi.Words, Fixed.Words);
    EXPECT_EQ(Multi.Occupancy, Fixed.Occupancy);
    EXPECT_EQ(Multi.PEsUsed, Fixed.PEsUsed);

    const double Nops = static_cast<double>(P.numOps());
    const double DvSramReg = static_cast<double>(Multi.boundaryWords(0));
    const double DvDram = static_cast<double>(Multi.boundaryWords(1));
    const double EpsR = Energy.regAccessPj(4096);
    const double EpsS = Energy.sramAccessPj(65536);
    const double Expected = (4.0 * EpsR + Energy.macPj()) * Nops +
                            EpsR * DvSramReg +
                            EpsS * (DvSramReg + DvDram) +
                            Energy.dramAccessPj() * DvDram;
    const double Cycles = std::max(
        {Nops / static_cast<double>(Multi.PEsUsed),
         DvDram / Arch.DramBandwidth,
         (DvSramReg + DvDram) / Arch.SramBandwidth, 1.0});
    MultiEvalResult MEval = evaluateMultiMapping(P, H, MM);
    EXPECT_EQ(MEval.Legal, Multi.Occupancy[0] <= Arch.RegWordsPerPE &&
                               Multi.Occupancy[1] <= Arch.SramWords &&
                               Multi.PEsUsed <= Arch.NumPEs);
    EXPECT_NEAR(MEval.EnergyPj, Expected, 1e-6 * Expected);
    EXPECT_NEAR(MEval.Cycles, Cycles, 1e-9 * Cycles);
  }
}

TEST(MultiGp, ClassicHierarchyTracksFixedOptimizer) {
  // optimizeHierarchy on the classic machine should land near the fixed
  // 4-level optimizer's dataflow result (same model, different search
  // plumbing; spatial stencil unrolling is fixed-pipeline-only, so allow
  // slack).
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();

  MultiOptions MOpts;
  MOpts.MaxPermCombos = 16;
  MultiResult Multi =
      optimizeHierarchy(P, Hierarchy::classic3Level(Arch, Tech), MOpts);
  ASSERT_TRUE(Multi.Found);
  EXPECT_TRUE(Multi.Eval.Legal);

  ThistleOptions TOpts;
  TOpts.MaxPermClassPairs = 16;
  ThistleResult Fixed = optimizeLayer(P, Arch, Tech, TOpts);
  ASSERT_TRUE(Fixed.Found);
  EXPECT_LT(Multi.Eval.EnergyPj, Fixed.Eval.EnergyPj * 1.3);
  EXPECT_GT(Multi.Eval.EnergyPj, Fixed.Eval.EnergyPj * 0.7);
}

TEST(MultiGp, ScratchpadHierarchyProducesLegalDesign) {
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H = Hierarchy::withScratchpad(eyerissArch(), Tech,
                                          /*SpadWords=*/2048,
                                          /*SramWords=*/65536);
  ASSERT_TRUE(H.validate().empty());
  ASSERT_EQ(H.numLevels(), 4u);

  MultiOptions MOpts;
  MOpts.MaxPermCombos = 12;
  MultiResult R = optimizeHierarchy(P, H, MOpts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
  EXPECT_TRUE(R.Map.validate(P, H).empty());
  // The scratchpad must actually hold tiles within its capacity.
  EXPECT_LE(R.Eval.Profile.Occupancy[1], 2048);
}

TEST(MultiGp, DelayObjectiveUsesParallelism) {
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  MultiOptions MOpts;
  MOpts.Objective = SearchObjective::Delay;
  MOpts.MaxPermCombos = 8;
  MultiResult R = optimizeHierarchy(
      P, Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm()), MOpts);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.Eval.MacIpc, 4.0);
}

TEST(MultiGp, DeterministicAcrossRuns) {
  Problem P = smallConvProblem();
  MultiOptions MOpts;
  MOpts.MaxPermCombos = 6;
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MultiResult A = optimizeHierarchy(P, H, MOpts);
  MultiResult B = optimizeHierarchy(P, H, MOpts);
  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(B.Found);
  EXPECT_DOUBLE_EQ(A.Eval.EnergyPj, B.Eval.EnergyPj);
}

TEST(MultiCoDesign, RespectsAreaBudgetAndBeatsEyeriss) {
  // Capacity co-design of the 3-level machine at the Eyeriss area must
  // find a design at least as good as the fixed Eyeriss hierarchy (it
  // can rediscover it), and every reported capacity must be a power of
  // two within the budget.
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  TechParams Tech = TechParams::cgo45nm();
  ArchConfig Arch = eyerissArch();
  Hierarchy H = Hierarchy::classic3Level(Arch, Tech);

  MultiOptions Fixed;
  Fixed.MaxPermCombos = 8;
  MultiResult FixedRes = optimizeHierarchy(P, H, Fixed);
  ASSERT_TRUE(FixedRes.Found);

  MultiOptions Co = Fixed;
  Co.CoDesignCapacities = true;
  Co.AreaBudgetUm2 = eyerissAreaUm2(Tech);
  MultiResult CoRes = optimizeHierarchy(P, H, Co);
  ASSERT_TRUE(CoRes.Found);
  EXPECT_TRUE(CoRes.Eval.Legal);
  EXPECT_LE(CoRes.Arch.areaUm2(Tech), Co.AreaBudgetUm2 * 1.0000001);
  for (unsigned Lv = 0; Lv + 1 < CoRes.Arch.numLevels(); ++Lv)
    EXPECT_TRUE(isPowerOfTwo(CoRes.Arch.Levels[Lv].CapacityWords));
  // Co-design at equal area should clearly beat the Eyeriss capacities
  // (Fig. 5's trend, reproduced through the multilevel path).
  EXPECT_LT(CoRes.Eval.EnergyPj, FixedRes.Eval.EnergyPj * 0.7);
}

TEST(MultiCoDesign, FourLevelCoDesignIsLegalAtEqualArea) {
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  TechParams Tech = TechParams::cgo45nm();
  Hierarchy H = Hierarchy::withScratchpad(eyerissArch(), Tech, 1024,
                                          eyerissArch().SramWords);
  MultiOptions Co;
  Co.MaxPermCombos = 8;
  Co.CoDesignCapacities = true;
  Co.AreaBudgetUm2 = eyerissAreaUm2(Tech);
  MultiResult R = optimizeHierarchy(P, H, Co);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
  EXPECT_LE(R.Arch.areaUm2(Tech), Co.AreaBudgetUm2 * 1.0000001);
  EXPECT_EQ(R.Arch.numLevels(), 4u);
  // The scratchpad occupancy must respect the co-designed capacity.
  EXPECT_LE(R.Eval.Profile.Occupancy[1], R.Arch.Levels[1].CapacityWords);
}

TEST(MultiGp, TwoLevelHierarchyWorks) {
  // The degenerate L=2 machine (registers + DRAM, fan-out below the
  // backing store) still optimizes: a single boundary, one permuted
  // level.
  Problem P = smallConvProblem();
  Hierarchy H;
  H.NumPEs = 16;
  H.MacEnergyPj = 2.2;
  H.FanoutLevel = 1;
  H.Levels = {{"RegisterFile", 4096, 0.25, 1e9},
              {"DRAM", 0, 128.0, 16.0}};
  ASSERT_TRUE(H.validate().empty());
  MultiOptions O;
  O.MaxPermCombos = 6;
  MultiResult R = optimizeHierarchy(P, H, O);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
  EXPECT_EQ(R.Eval.Profile.Words.size(), 1u);
}

TEST(MultiGp, FanoutAtTopLevelWorks) {
  // F = L-1: every on-chip level is private to a PE; only DRAM is
  // shared.
  Problem P = smallConvProblem();
  Hierarchy H = testHierarchy(3, 2);
  MultiOptions O;
  O.MaxPermCombos = 6;
  MultiResult R = optimizeHierarchy(P, H, O);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Eval.Legal);
}

// ---- Robustness: structured parse errors, validation, degradation ---------

#include "support/FaultInjection.h"

#include <chrono>

namespace {

/// Shorthand: parse and return the error message (empty on success).
std::string parseErrorOf(const std::string &Text) {
  Expected<Hierarchy> Parsed = parseHierarchy(Text);
  return Parsed.hasValue() ? std::string() : Parsed.status().message();
}

} // namespace

TEST(Hierarchy, ParseReportsLineNumbers) {
  // Each malformed input names the offending line.
  EXPECT_NE(parseErrorOf("pes zero\n").find("line 1"), std::string::npos);
  EXPECT_NE(parseErrorOf("pes 16\npes -2\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parseErrorOf("pes 16\nmac-pj nan\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parseErrorOf("pes 16\nfanout 0\n").find("line 2"),
            std::string::npos);
  // Truncated level line (name only, missing fields).
  EXPECT_NE(parseErrorOf("pes 16\nlevel OnlyName\n").find("line 2"),
            std::string::npos);
  // Malformed capacity token.
  EXPECT_NE(
      parseErrorOf("pes 16\nlevel RF 12cats 0.5 16\n").find("line 2"),
      std::string::npos);
  // Non-positive capacity.
  EXPECT_NE(parseErrorOf("pes 16\nlevel RF 0 0.5 16\n").find("line 2"),
            std::string::npos);
  // Negative access energy / non-positive bandwidth.
  EXPECT_NE(parseErrorOf("pes 16\nlevel RF 64 -0.5 16\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parseErrorOf("pes 16\nlevel RF 64 0.5 0\n").find("line 2"),
            std::string::npos);
  // Trailing junk after the fields.
  EXPECT_NE(
      parseErrorOf("pes 16\nlevel RF 64 0.5 16 extra\n").find("line 2"),
      std::string::npos);
  // Unknown directive.
  EXPECT_NE(parseErrorOf("pes 16\nwibble 3\n").find("line 2"),
            std::string::npos);
}

TEST(Hierarchy, ParseReadsIntegersStrictly) {
  // Integers go through cli::readNumber: no sign prefix, no trailing
  // characters, nothing past int64, and the line-numbered messages stay.
  EXPECT_EQ(parseErrorOf("pes +16\n"), "line 1: 'pes' wants an integer");
  EXPECT_EQ(parseErrorOf("pes 16\npes 9223372036854775808\n"),
            "line 2: 'pes' wants an integer");
  EXPECT_EQ(parseErrorOf("pes 16\nfanout 1x\n"),
            "line 2: 'fanout' wants a level index");
  EXPECT_EQ(parseErrorOf("pes 16\nfanout 0\n"),
            "line 2: 'fanout' wants a level index >= 1, got 0");
  EXPECT_EQ(parseErrorOf("pes 16\nlevel RF 99999999999999999999 0.5 16\n"),
            "line 2: level 'RF' wants a positive integer capacity or '-', "
            "got '99999999999999999999'");
  EXPECT_EQ(parseErrorOf("pes 16\nlevel RF 64 0.5 1e9\n"
                         "level DRAM 9223372036854775807 128 16\n"),
            "");
}

TEST(Hierarchy, ParseRejectsDuplicateLevelNames) {
  std::string Error = parseErrorOf("pes 16\n"
                                   "level RF 64 0.5 1e9\n"
                                   "level RF 1024 2.0 80\n"
                                   "level DRAM - 128 16\n");
  EXPECT_NE(Error.find("line 3"), std::string::npos);
  EXPECT_NE(Error.find("RF"), std::string::npos);
}

TEST(Hierarchy, ParseRejectsUnboundedInnerLevel) {
  // "-" (unbounded capacity) is only meaningful at the outermost level.
  std::string Error = parseErrorOf("pes 16\n"
                                   "level RF - 0.5 1e9\n"
                                   "level DRAM 1024 128 16\n");
  EXPECT_FALSE(Error.empty());
  EXPECT_NE(Error.find("line 2"), std::string::npos);
}

TEST(Hierarchy, ParseExpectedOverloadRoundTrips) {
  Expected<Hierarchy> Parsed = parseHierarchy("pes 128\n"
                                              "mac-pj 2.2\n"
                                              "fanout 1\n"
                                              "level RF 512 0.2 1e9\n"
                                              "level SRAM 65536 6.0 16\n"
                                              "level DRAM - 128.0 4\n");
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.status().toString();
  const Hierarchy &H = Parsed.value();
  EXPECT_EQ(H.NumPEs, 128);
  EXPECT_EQ(H.numLevels(), 3u);
  EXPECT_EQ(H.Levels[2].CapacityWords, 0); // Unbounded DRAM.
}

TEST(MultiGp, RejectsInvalidHierarchy) {
  Problem P = smallConvProblem();
  Hierarchy Bad; // Zero levels: validate() cannot pass.
  MultiResult R = optimizeHierarchy(P, Bad);
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(R.Report.total(), 0u);
}

TEST(MultiGp, RejectsCoDesignWithoutBudget) {
  Problem P = smallConvProblem();
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MultiOptions O;
  O.CoDesignCapacities = true;
  O.AreaBudgetUm2 = 0.0;
  MultiResult R = optimizeHierarchy(P, H, O);
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
}

TEST(MultiGp, ExpiredDeadlineSkipsAllCombos) {
  Problem P = smallConvProblem();
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MultiOptions O;
  O.MaxPermCombos = 6;
  O.DeadlineAt = std::chrono::steady_clock::now() - std::chrono::hours(1);
  MultiResult R = optimizeHierarchy(P, H, O);
  EXPECT_FALSE(R.Found);
  EXPECT_TRUE(R.InputStatus.isOk());
  EXPECT_TRUE(R.Report.DeadlineExpired);
  EXPECT_GT(R.Report.Skipped, 0u);
  EXPECT_EQ(R.Report.Skipped, R.Report.total());
}

TEST(MultiGp, FarFutureDeadlineMatchesUnboundedRun) {
  Problem P = smallConvProblem();
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MultiOptions O;
  O.MaxPermCombos = 6;
  MultiResult Ref = optimizeHierarchy(P, H, O);
  ASSERT_TRUE(Ref.Found);
  O.DeadlineAt = std::chrono::steady_clock::now() + std::chrono::hours(24);
  MultiResult R = optimizeHierarchy(P, H, O);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.Eval.EnergyPj, Ref.Eval.EnergyPj);
  EXPECT_EQ(R.ModelObjective, Ref.ModelObjective);
  EXPECT_FALSE(R.Report.DeadlineExpired);
}

#if THISTLE_FAULT_INJECTION_ENABLED

namespace {

struct MultiFaultGuard {
  ~MultiFaultGuard() { fault::disarmAll(); }
};

} // namespace

TEST(MultiGp, PoisonedComboDegradesGracefully) {
  MultiFaultGuard G;
  Problem P = smallConvProblem();
  Hierarchy H = Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MultiOptions O;
  O.MaxPermCombos = 6;
  O.Threads = 1;

  fault::arm("multigp.combo", /*Key=*/0, /*MaxHits=*/1);
  MultiResult Ref = optimizeHierarchy(P, H, O);
  ASSERT_TRUE(Ref.Found); // Best of the surviving combos.
  EXPECT_EQ(Ref.Report.Failed, 1u);
  const SweepIncident *Poisoned = nullptr;
  for (const SweepIncident &I : Ref.Report.Incidents)
    if (I.Outcome == TaskOutcome::Failed)
      Poisoned = &I;
  ASSERT_NE(Poisoned, nullptr);
  EXPECT_EQ(Poisoned->Index, 0u);
  EXPECT_NE(Poisoned->Detail.find("injected"), std::string::npos);

  for (unsigned Threads : {2u, 8u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    fault::arm("multigp.combo", /*Key=*/0, /*MaxHits=*/1);
    O.Threads = Threads;
    MultiResult R = optimizeHierarchy(P, H, O);
    ASSERT_TRUE(R.Found);
    EXPECT_EQ(R.Eval.EnergyPj, Ref.Eval.EnergyPj);
    EXPECT_EQ(R.ModelObjective, Ref.ModelObjective);
    EXPECT_EQ(R.Report.Failed, Ref.Report.Failed);
    EXPECT_EQ(R.Report.Solved, Ref.Report.Solved);
    ASSERT_EQ(R.Report.Incidents.size(), Ref.Report.Incidents.size());
    for (std::size_t I = 0; I < R.Report.Incidents.size(); ++I)
      EXPECT_EQ(R.Report.Incidents[I].Index, Ref.Report.Incidents[I].Index);
  }
}

TEST(Hierarchy, ParseFaultSiteInjects) {
  MultiFaultGuard G;
  fault::arm("parse.hierarchy", fault::AnyKey, /*MaxHits=*/1);
  Expected<Hierarchy> Parsed =
      parseHierarchy("pes 16\nlevel DRAM - 1 1\n");
  ASSERT_FALSE(Parsed.hasValue());
  EXPECT_EQ(Parsed.status().code(), StatusCode::ParseError);
  EXPECT_NE(Parsed.status().message().find("injected"), std::string::npos);
}

#endif // THISTLE_FAULT_INJECTION_ENABLED
