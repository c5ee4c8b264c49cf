//===- tests/NestModelTest.cpp - nestmodel/ tests -------------------------===//
//
// The central property test of the repository: the analytical nest model
// (our Timeloop substitute) must agree *exactly* with the brute-force
// tiled-loop oracle on every tensor at every level, across randomized
// mappings of matmul and conv problems. Plus unit tests for the
// energy/delay evaluator and the search baseline.
//
//===----------------------------------------------------------------------===//

#include "ClassicMachine.h"
#include "ir/Builders.h"
#include "nestmodel/Mapper.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace thistle;

namespace {

/// Draws a random valid mapping by hierarchical divisor sampling.
Mapping randomMapping(const Problem &P, Rng &R) {
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
  return M;
}

} // namespace

TEST(NestAnalysis, MatchesOracleOnRandomMatmulMappings) {
  Problem P = makeMatmulProblem(8, 12, 6);
  Rng R(2024);
  for (int Trial = 0; Trial < 60; ++Trial) {
    Mapping M = randomMapping(P, R);
    SCOPED_TRACE("matmul trial " + std::to_string(Trial));
    expectModelMatchesOracle(P, M);
  }
}

TEST(NestAnalysis, MatchesOracleOnRandomConvMappings) {
  ConvLayer L;
  L.K = 4;
  L.C = 3;
  L.Hin = 6;
  L.Win = 8;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  Rng R(7);
  for (int Trial = 0; Trial < 40; ++Trial) {
    Mapping M = randomMapping(P, R);
    SCOPED_TRACE("conv trial " + std::to_string(Trial));
    expectModelMatchesOracle(P, M);
  }
}

TEST(NestAnalysis, MatchesOracleOnStridedConv) {
  ConvLayer L;
  L.K = 2;
  L.C = 2;
  L.Hin = 12;
  L.Win = 12;
  L.R = 3;
  L.S = 3;
  L.StrideX = 2;
  L.StrideY = 2;
  Problem P = makeConvProblem(L);
  Rng R(99);
  for (int Trial = 0; Trial < 40; ++Trial) {
    Mapping M = randomMapping(P, R);
    SCOPED_TRACE("strided conv trial " + std::to_string(Trial));
    expectModelMatchesOracle(P, M);
  }
}

TEST(NestAnalysis, MatchesOracleOnHolePunchingStride) {
  // 1x1 kernel at stride 2: strided tiles leave holes; the min(E, shift)
  // union rule must match the oracle exactly.
  ConvLayer L;
  L.K = 2;
  L.C = 2;
  L.Hin = 16;
  L.Win = 16;
  L.R = 1;
  L.S = 1;
  L.StrideX = 2;
  L.StrideY = 2;
  Problem P = makeConvProblem(L);
  Rng R(5);
  for (int Trial = 0; Trial < 40; ++Trial) {
    Mapping M = randomMapping(P, R);
    SCOPED_TRACE("hole trial " + std::to_string(Trial));
    expectModelMatchesOracle(P, M);
  }
}

TEST(NestAnalysis, OccupanciesAndPEs) {
  Problem P = makeMatmulProblem(8, 8, 8);
  Mapping M = Mapping::untiled(P);
  M.factor(0, TileLevel::Register) = 2;
  M.factor(0, TileLevel::Spatial) = 4;
  M.factor(1, TileLevel::Register) = 4;
  M.factor(1, TileLevel::PeTemporal) = 2;
  ASSERT_TRUE(M.validate(P).empty());
  MultiProfile Prof = analyzeClassic(P, M);
  EXPECT_EQ(Prof.PEsUsed, 4);
  // Register tiles: C 2x4, A 2x8, B 8x4 -> 8 + 16 + 32.
  EXPECT_EQ(Prof.Occupancy[0], 8 + 16 + 32);
  // SRAM tiles: C 8x8, A 8x8, B 8x8.
  EXPECT_EQ(Prof.Occupancy[1], 3 * 64);
}

TEST(Evaluator, EnergyDecompositionEq3) {
  Problem P = makeMatmulProblem(4, 4, 4);
  Mapping M = Mapping::untiled(P);
  ArchConfig Arch;
  Arch.NumPEs = 4;
  Arch.RegWordsPerPE = 64;
  Arch.SramWords = 256;
  EnergyModel E(TechParams::cgo45nm());
  EvalResult Res = evaluateClassic(P, M, Arch);
  ASSERT_TRUE(Res.Legal);

  double Nops = 64.0;
  double EpsR = E.regAccessPj(64);
  double EpsS = E.sramAccessPj(256);
  MultiProfile Prof = analyzeClassic(P, M);
  double DvD = static_cast<double>(Prof.boundaryWords(1));
  double DvSR = static_cast<double>(Prof.boundaryWords(0));
  EXPECT_NEAR(Res.MacEnergyPj, (4 * EpsR + 2.2) * Nops, 1e-9);
  EXPECT_NEAR(Res.RegEnergyPj, EpsR * DvSR, 1e-9);
  EXPECT_NEAR(Res.SramEnergyPj, EpsS * (DvSR + DvD), 1e-9);
  EXPECT_NEAR(Res.DramEnergyPj, 128.0 * DvD, 1e-9);
  EXPECT_NEAR(Res.EnergyPj,
              Res.MacEnergyPj + Res.RegEnergyPj + Res.SramEnergyPj +
                  Res.DramEnergyPj,
              1e-9);
  EXPECT_NEAR(Res.EnergyPerMacPj, Res.EnergyPj / Nops, 1e-12);
}

TEST(Evaluator, DelayIsMaxOfComponents) {
  Problem P = makeMatmulProblem(8, 8, 8);
  Mapping M = Mapping::untiled(P);
  ArchConfig Arch;
  Arch.NumPEs = 4;
  Arch.RegWordsPerPE = 4096;
  Arch.SramWords = 65536;
  Arch.DramBandwidth = 2.0;
  Arch.SramBandwidth = 64.0;
  EvalResult Res = evaluateClassic(P, M, Arch);
  EXPECT_DOUBLE_EQ(
      Res.Cycles,
      std::max({Res.ComputeCycles, Res.DramCycles, Res.SramCycles, 1.0}));
  EXPECT_DOUBLE_EQ(Res.MacIpc, 512.0 / Res.Cycles);
  // IPC can never exceed the PEs in use.
  EXPECT_LE(Res.MacIpc, static_cast<double>(Res.Profile.PEsUsed) + 1e-9);
}

TEST(Evaluator, FlagsCapacityViolations) {
  Problem P = makeMatmulProblem(16, 16, 16);
  Mapping M = Mapping::untiled(P); // 3 x 256-word tiles.
  ArchConfig Tiny;
  Tiny.NumPEs = 1;
  Tiny.RegWordsPerPE = 8;
  Tiny.SramWords = 16;
  EvalResult Res = evaluateClassic(P, M, Tiny);
  EXPECT_FALSE(Res.Legal);
  EXPECT_NE(Res.IllegalReason.find("register"), std::string::npos);
  EXPECT_NE(Res.IllegalReason.find("SRAM"), std::string::npos);
}

TEST(Evaluator, FlagsPEOversubscription) {
  Problem P = makeMatmulProblem(8, 8, 8);
  Mapping M = Mapping::untiled(P);
  M.factor(0, TileLevel::Spatial) = 8;
  M.factor(0, TileLevel::Register) = 1;
  ArchConfig Arch;
  Arch.NumPEs = 4;
  Arch.RegWordsPerPE = 4096;
  Arch.SramWords = 65536;
  EvalResult Res = evaluateClassic(P, M, Arch);
  EXPECT_FALSE(Res.Legal);
  EXPECT_NE(Res.IllegalReason.find("PEs"), std::string::npos);
}

TEST(Evaluator, IllegalReasonUsesFixedDepthWordingInOrder) {
  Problem P = makeMatmulProblem(16, 16, 16);
  Mapping M = Mapping::untiled(P);
  M.factor(0, TileLevel::Register) = 8;
  M.factor(0, TileLevel::Spatial) = 2;
  ArchConfig Tiny;
  Tiny.NumPEs = 1;
  Tiny.RegWordsPerPE = 8;
  Tiny.SramWords = 16;
  EvalResult Bad = evaluateClassic(P, M, Tiny);
  EXPECT_FALSE(Bad.Legal);
  EXPECT_EQ(Bad.IllegalReason, "register tile 512 words > capacity 8; "
                               "SRAM tile 768 words > capacity 16; "
                               "uses 2 PEs > available 1; ");

  ArchConfig Roomy = Tiny;
  Roomy.NumPEs = 2;
  Roomy.RegWordsPerPE = 512;
  Roomy.SramWords = 768;
  EvalResult Good = evaluateClassic(P, M, Roomy);
  EXPECT_TRUE(Good.Legal);
  EXPECT_EQ(Good.IllegalReason, "");
}

TEST(Mapper, FindsLegalMappingOnSmallConv) {
  ConvLayer L;
  L.K = 16;
  L.C = 8;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  ArchConfig Arch = eyerissArch();
  Hierarchy Machine = Hierarchy::classic3Level(Arch, TechParams::cgo45nm());
  MapperOptions Opts;
  Opts.MaxTrials = 2000;
  Opts.VictoryCondition = 500;
  MultiMapperResult R = searchMultiMappings(P, Machine, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.BestEval.Legal);
  EXPECT_TRUE(R.Best.validate(P, Machine).empty());
  EXPECT_GT(R.LegalTrials, 0u);
  // Searching should beat the trivial untiled mapping...
  EvalResult Untiled = evaluateClassic(P, Mapping::untiled(P), Arch);
  if (Untiled.Legal) {
    EXPECT_LE(R.BestEval.EnergyPj, Untiled.EnergyPj);
  }
}

TEST(Mapper, DeterministicForFixedSeed) {
  Problem P = makeMatmulProblem(16, 16, 16);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions Opts;
  Opts.MaxTrials = 500;
  Opts.Seed = 77;
  MultiMapperResult A = searchMultiMappings(P, Machine, Opts);
  MultiMapperResult B = searchMultiMappings(P, Machine, Opts);
  ASSERT_TRUE(A.Found);
  ASSERT_TRUE(B.Found);
  EXPECT_DOUBLE_EQ(A.BestEval.EnergyPj, B.BestEval.EnergyPj);
  EXPECT_EQ(A.Trials, B.Trials);
}

TEST(Mapper, ResultIsThreadCountInvariant) {
  // The batched search seeds each trial slot from (seed, round, slot) and
  // applies all bookkeeping in slot order at round boundaries, so every
  // strategy must return bit-identical results at any worker count.
  Problem P = makeMatmulProblem(16, 16, 16);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  for (MapperStrategy Strategy :
       {MapperStrategy::RandomSampling, MapperStrategy::HillClimb,
        MapperStrategy::Anneal}) {
    MapperOptions Opts;
    Opts.MaxTrials = 400;
    Opts.VictoryCondition = 150;
    Opts.Seed = 7;
    Opts.Strategy = Strategy;
    Opts.Threads = 1;
    MultiMapperResult Ref = searchMultiMappings(P, Machine, Opts);
    ASSERT_TRUE(Ref.Found);
    for (unsigned Threads : {2u, 8u}) {
      Opts.Threads = Threads;
      MultiMapperResult R = searchMultiMappings(P, Machine, Opts);
      SCOPED_TRACE("strategy " +
                   std::to_string(static_cast<int>(Strategy)) + ", " +
                   std::to_string(Threads) + " threads");
      ASSERT_TRUE(R.Found);
      EXPECT_EQ(R.Trials, Ref.Trials);
      EXPECT_EQ(R.LegalTrials, Ref.LegalTrials);
      EXPECT_EQ(R.BestEval.EnergyPj, Ref.BestEval.EnergyPj);
      EXPECT_EQ(R.BestEval.Cycles, Ref.BestEval.Cycles);
      EXPECT_EQ(R.Best.TempFactors, Ref.Best.TempFactors);
      EXPECT_EQ(R.Best.SpatialFactors, Ref.Best.SpatialFactors);
      EXPECT_EQ(R.Best.Perms, Ref.Best.Perms);
    }
  }
}

TEST(Mapper, DelayObjectiveImprovesIpc) {
  Problem P = makeMatmulProblem(32, 32, 32);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions Opts;
  Opts.MaxTrials = 3000;
  Opts.VictoryCondition = 1000;
  Opts.Objective = SearchObjective::Delay;
  MultiMapperResult R = searchMultiMappings(P, Machine, Opts);
  ASSERT_TRUE(R.Found);
  // The delay search must find some parallelism: IPC > 1 (the untiled
  // single-PE mapping would have IPC <= 1).
  EXPECT_GT(R.BestEval.MacIpc, 1.0);
}

TEST(Mapper, RespectsVictoryCondition) {
  Problem P = makeMatmulProblem(8, 8, 8);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions Opts;
  Opts.MaxTrials = 100000;
  Opts.VictoryCondition = 50;
  MultiMapperResult R = searchMultiMappings(P, Machine, Opts);
  EXPECT_LT(R.Trials, Opts.MaxTrials);
}

TEST(Mapper, ExpiredDeadlineStopsBeforeAnyRound) {
  Problem P = makeMatmulProblem(16, 16, 16);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions Opts;
  Opts.MaxTrials = 500;
  Opts.DeadlineAt = std::chrono::steady_clock::now() - std::chrono::hours(1);
  MultiMapperResult R = searchMultiMappings(P, Machine, Opts);
  EXPECT_TRUE(R.DeadlineExpired);
  EXPECT_FALSE(R.Found);
  EXPECT_EQ(R.Trials, 0u);
  EXPECT_TRUE(R.InputStatus.isOk());
}

TEST(Mapper, FarFutureDeadlineMatchesUnboundedSearch) {
  // A deadline that never fires must not perturb the RNG streams: the
  // check happens at round boundaries, outside the sampling loop.
  Problem P = makeMatmulProblem(16, 16, 16);
  Hierarchy Machine =
      Hierarchy::classic3Level(eyerissArch(), TechParams::cgo45nm());
  MapperOptions Opts;
  Opts.MaxTrials = 500;
  MultiMapperResult Ref = searchMultiMappings(P, Machine, Opts);
  ASSERT_TRUE(Ref.Found);
  Opts.DeadlineAt = std::chrono::steady_clock::now() + std::chrono::hours(24);
  MultiMapperResult R = searchMultiMappings(P, Machine, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_FALSE(R.DeadlineExpired);
  EXPECT_EQ(R.Trials, Ref.Trials);
  EXPECT_EQ(R.BestEval.EnergyPj, Ref.BestEval.EnergyPj);
  EXPECT_EQ(R.Best.TempFactors, Ref.Best.TempFactors);
  EXPECT_EQ(R.Best.SpatialFactors, Ref.Best.SpatialFactors);
}

TEST(Mapper, RejectsInvalidHierarchy) {
  Problem P = makeMatmulProblem(8, 8, 8);
  Hierarchy Bad; // Zero levels: validate() cannot pass.
  MultiMapperResult R = searchMultiMappings(P, Bad, MapperOptions());
  EXPECT_FALSE(R.Found);
  ASSERT_FALSE(R.InputStatus.isOk());
  EXPECT_EQ(R.InputStatus.code(), StatusCode::InvalidArgument);
  EXPECT_EQ(R.Trials, 0u);
}
