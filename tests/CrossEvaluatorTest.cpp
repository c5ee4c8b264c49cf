//===- tests/CrossEvaluatorTest.cpp - Evaluator backend cross-check -------===//
//
// The pluggable-evaluator layer claims that the MAESTRO-style
// data-centric backend computes *exactly* the counts of the Algorithm-1
// nest walk — both are closed forms of the same tiled nest, one summing
// over loop levels, the other over per-tensor reuse classes. This suite
// holds that claim: full-size Table II layers on the classic-3 and
// scratchpad-4 hierarchies are diffed counter for counter, and both
// backends are pinned to the brute-force tiled-loop simulator on
// downscaled shapes. The CrossCheckEvaluator plumbing itself is
// exercised with a deliberately wrong backend.
//
//===----------------------------------------------------------------------===//

#include "multilevel/MultiSim.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/MaestroModel.h"
#include "nestmodel/Mapper.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "support/Telemetry.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace thistle;

namespace {

/// Random valid MultiMapping by hierarchical divisor sampling.
MultiMapping randomMultiMapping(const Problem &P, unsigned NumLevels,
                                Rng &R) {
  const unsigned NumIters = P.numIterators();
  MultiMapping M;
  M.TempFactors.assign(NumLevels, std::vector<std::int64_t>(NumIters, 1));
  M.SpatialFactors.assign(NumIters, 1);
  for (unsigned I = 0; I < NumIters; ++I) {
    std::int64_t Rest = P.iterators()[I].Extent;
    for (unsigned L = 0; L + 1 < NumLevels; ++L) {
      std::int64_t F = R.pick(divisorsOf(Rest));
      M.TempFactors[L][I] = F;
      Rest /= F;
    }
    std::int64_t Sp = R.pick(divisorsOf(Rest));
    M.SpatialFactors[I] = Sp;
    M.TempFactors[NumLevels - 1][I] = Rest / Sp;
  }
  std::vector<unsigned> Identity(NumIters);
  for (unsigned I = 0; I < NumIters; ++I)
    Identity[I] = I;
  M.Perms.assign(NumLevels, Identity);
  for (unsigned L = 1; L < NumLevels; ++L)
    R.shuffle(M.Perms[L]);
  return M;
}

/// The two hierarchies the tool exposes, at the Eyeriss baseline.
std::vector<Hierarchy> toolHierarchies() {
  ArchConfig Arch = eyerissArch();
  TechParams Tech = TechParams::cgo45nm();
  return {Hierarchy::classic3Level(Arch, Tech),
          Hierarchy::withScratchpad(Arch, Tech, /*SpadWords=*/512,
                                    Arch.SramWords)};
}

void expectSameMultiProfile(const Problem &Prob, const Hierarchy &H,
                            const MultiProfile &A, const MultiProfile &B) {
  ProfileDivergence Div = compareProfiles(Prob, H, A, B);
  EXPECT_FALSE(Div.diverged())
      << (Div.Samples.empty()
              ? std::string("no sample")
              : (Div.Samples[0].Counter + ": " +
                 std::to_string(Div.Samples[0].Primary) + " vs " +
                 std::to_string(Div.Samples[0].Reference)));
}

/// Bit-for-bit equality of the priced metrics.
void expectSameMultiEval(const MultiEvalResult &A, const MultiEvalResult &B) {
  EXPECT_EQ(A.Legal, B.Legal);
  EXPECT_EQ(A.IllegalReason, B.IllegalReason);
  EXPECT_EQ(A.EnergyPj, B.EnergyPj);
  EXPECT_EQ(A.EnergyPerMacPj, B.EnergyPerMacPj);
  EXPECT_EQ(A.MacEnergyPj, B.MacEnergyPj);
  EXPECT_EQ(A.EnergyPerLevelPj, B.EnergyPerLevelPj);
  EXPECT_EQ(A.EdpPjCycles, B.EdpPjCycles);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.ComputeCycles, B.ComputeCycles);
  EXPECT_EQ(A.CyclesPerLevel, B.CyclesPerLevel);
  EXPECT_EQ(A.MacIpc, B.MacIpc);
}

/// Downscaled Table II shapes: small enough for the brute-force
/// simulator (which walks every tile step), still covering stride 2 and
/// the 1x1/3x3 kernel mix.
std::vector<Problem> simWorkloads() {
  std::vector<Problem> Probs;
  {
    ConvLayer L;
    L.K = 8;
    L.C = 4;
    L.Hin = 10;
    L.Win = 10;
    L.R = 3;
    L.S = 3;
    Probs.push_back(makeConvProblem(L));
  }
  {
    ConvLayer L;
    L.K = 4;
    L.C = 8;
    L.Hin = 8;
    L.Win = 8;
    L.R = 3;
    L.S = 3;
    L.StrideX = L.StrideY = 2;
    Probs.push_back(makeConvProblem(L));
  }
  {
    ConvLayer L;
    L.K = 8;
    L.C = 8;
    L.Hin = 6;
    L.Win = 6;
    L.R = 1;
    L.S = 1;
    Probs.push_back(makeConvProblem(L));
  }
  return Probs;
}

/// One downscaled layer per call, covering the general-conv fields.
ConvLayer generalLayer(std::int64_t K, std::int64_t C, std::int64_t HW,
                       std::int64_t RS, std::int64_t Stride,
                       std::int64_t Dilation, std::int64_t Groups,
                       bool Transposed,
                       ConvPadding Padding = ConvPadding::Same) {
  ConvLayer L;
  L.Name = "general";
  L.K = K;
  L.C = C;
  L.Hin = HW;
  L.Win = HW;
  L.R = RS;
  L.S = RS;
  L.StrideX = L.StrideY = Stride;
  L.DilationX = L.DilationY = Dilation;
  L.Groups = Groups;
  L.Transposed = Transposed;
  L.Padding = Padding;
  EXPECT_TRUE(L.validate().isOk()) << L.validate().toString();
  return L;
}

/// Downscaled layers of every new workload class — at least three each
/// of dilated, transposed and grouped/depthwise, mixing strides,
/// dilations and the valid-padding rule — small enough for the
/// brute-force simulator.
std::vector<ConvLayer> generalSimLayers() {
  return {
      // Dilated.
      generalLayer(8, 4, 10, 3, 1, 2, 1, false),
      generalLayer(4, 8, 8, 3, 2, 2, 1, false),
      generalLayer(8, 4, 12, 3, 1, 3, 1, false, ConvPadding::Valid),
      // Transposed (the last one also dilated).
      generalLayer(8, 4, 5, 3, 2, 1, 1, true),
      generalLayer(4, 8, 4, 4, 2, 1, 1, true),
      generalLayer(8, 8, 6, 2, 3, 2, 1, true),
      // Grouped and depthwise (the last one dilated and strided).
      generalLayer(8, 8, 8, 3, 1, 1, 2, false),
      generalLayer(16, 8, 6, 3, 2, 1, 4, false),
      generalLayer(8, 8, 8, 3, 1, 1, 8, false),
      generalLayer(6, 6, 10, 3, 2, 2, 6, false),
  };
}

/// A deliberately wrong backend: the nest counts with one word added to
/// the first boundary of the first tensor. Used to prove the cross-check
/// actually detects model bugs.
class PerturbedEvaluator : public CostEvaluator {
public:
  const char *name() const override { return "perturbed"; }
  MultiProfile profile(const Problem &Prob, const Hierarchy &H,
                       const MultiMapping &Map) const override {
    MultiProfile P = nestCostEvaluator().profile(Prob, H, Map);
    P.Words[0][0] += 1;
    return P;
  }
};

} // namespace

TEST(CrossEvaluator, MaestroMatchesNestOnPaperLayers) {
  const CostEvaluator &Nest = nestCostEvaluator();
  const CostEvaluator &Maestro = maestroCostEvaluator();
  for (const Hierarchy &H : toolHierarchies()) {
    for (const ConvLayer &L : allPaperLayers()) {
      Problem P = makeConvProblem(L);
      Rng R(13);
      for (int Trial = 0; Trial < 8; ++Trial) {
        MultiMapping M = randomMultiMapping(P, H.numLevels(), R);
        ASSERT_TRUE(M.validate(P, H).empty());
        expectSameMultiProfile(P, H, Maestro.profile(P, H, M),
                               Nest.profile(P, H, M));
        expectSameMultiEval(Maestro.evaluate(P, H, M), Nest.evaluate(P, H, M));
      }
    }
  }
}

TEST(CrossEvaluator, BothBackendsMatchTiledLoopSimExactly) {
  const CostEvaluator &Nest = nestCostEvaluator();
  const CostEvaluator &Maestro = maestroCostEvaluator();
  for (const Hierarchy &H : toolHierarchies()) {
    for (const Problem &P : simWorkloads()) {
      Rng R(17);
      for (int Trial = 0; Trial < 4; ++Trial) {
        MultiMapping M = randomMultiMapping(P, H.numLevels(), R);
        ASSERT_TRUE(M.validate(P, H).empty());
        MultiProfile Sim = simulateMultiNestProfile(P, H, M);
        expectSameMultiProfile(P, H, Nest.profile(P, H, M), Sim);
        expectSameMultiProfile(P, H, Maestro.profile(P, H, M), Sim);
      }
    }
  }
}

TEST(CrossEvaluator, SimulatedProfileMatchesClassic3Mapping) {
  // The classic-machine ground truth: a 4-level Mapping lifted onto
  // classic3Shape must count exactly what both backends count.
  Hierarchy H = Hierarchy::classic3Shape();
  for (const Problem &P : simWorkloads()) {
    Mapping Map = Mapping::untiled(P);
    MultiMapping M = MultiMapping::fromMapping(P, Map);
    MultiProfile Sim = simulateMultiNestProfile(P, H, M);
    expectSameMultiProfile(P, H, nestCostEvaluator().profile(P, H, M), Sim);
    expectSameMultiProfile(P, H, maestroCostEvaluator().profile(P, H, M), Sim);
  }
}

TEST(CrossEvaluator, RegistryResolvesBackends) {
  ASSERT_NE(costEvaluator("nest"), nullptr);
  EXPECT_STREQ(costEvaluator("nest")->name(), "nest");
  ASSERT_NE(costEvaluator("maestro"), nullptr);
  EXPECT_STREQ(costEvaluator("maestro")->name(), "maestro");
  EXPECT_EQ(costEvaluator("timeloop"), nullptr);

  std::vector<std::string> Names = costEvaluatorNames();
  EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end()));
  EXPECT_NE(std::find(Names.begin(), Names.end(), "nest"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "maestro"), Names.end());

  // Third-party registration, as docs/EVALUATOR.md describes.
  static const PerturbedEvaluator Custom;
  registerCostEvaluator("custom", &Custom);
  EXPECT_EQ(costEvaluator("custom"), &Custom);

  // Null resolves to the nest singleton.
  EXPECT_EQ(&resolveCostEvaluator(nullptr), &nestCostEvaluator());
  EXPECT_EQ(&resolveCostEvaluator(&Custom), &Custom);
}

TEST(CrossEvaluator, CrossCheckIsCleanOnAgreeingBackends) {
  CrossCheckEvaluator XC(nestCostEvaluator(), maestroCostEvaluator());
  Hierarchy H = toolHierarchies()[0];
  Problem P = makeConvProblem(allPaperLayers()[0]);
  Rng R(23);
  for (int Trial = 0; Trial < 6; ++Trial) {
    MultiMapping M = randomMultiMapping(P, H.numLevels(), R);
    // The cross-check result must be bit-identical to the primary alone.
    expectSameMultiEval(XC.evaluate(P, H, M),
                        nestCostEvaluator().evaluate(P, H, M));
  }
  CrossCheckStats S = XC.stats();
  EXPECT_EQ(S.Evals, 6u);
  EXPECT_EQ(S.DivergentEvals, 0u);
  EXPECT_EQ(S.CounterMismatches, 0u);
  EXPECT_GT(S.CountersCompared, 0u);
  EXPECT_EQ(S.MaxAbsDelta, 0.0);
  EXPECT_TRUE(S.Samples.empty());
}

TEST(CrossEvaluator, CrossCheckDetectsABrokenBackend) {
  PerturbedEvaluator Broken;
  CrossCheckEvaluator XC(Broken, nestCostEvaluator());
  Hierarchy H = toolHierarchies()[0];
  Problem P = makeConvProblem(allPaperLayers()[0]);
  Rng R(29);
  const int Trials = 12;
  for (int Trial = 0; Trial < Trials; ++Trial) {
    MultiMapping M = randomMultiMapping(P, H.numLevels(), R);
    // Still returns the (broken) primary's counts.
    MultiProfile Out = XC.profile(P, H, M);
    EXPECT_EQ(Out.Words[0][0], nestCostEvaluator().profile(P, H, M).Words[0][0] + 1);
  }
  CrossCheckStats S = XC.stats();
  EXPECT_EQ(S.Evals, static_cast<std::uint64_t>(Trials));
  EXPECT_EQ(S.DivergentEvals, static_cast<std::uint64_t>(Trials));
  EXPECT_EQ(S.CounterMismatches, static_cast<std::uint64_t>(Trials));
  EXPECT_EQ(S.MaxAbsDelta, 1.0);
  EXPECT_GT(S.MaxRelDelta, 0.0);
  // The sample list is bounded, labeled, and carries both values.
  ASSERT_FALSE(S.Samples.empty());
  EXPECT_LE(S.Samples.size(), ProfileDivergence::MaxSamples);
  EXPECT_EQ(S.Samples[0].Counter.rfind("words[b0]", 0), 0u);
  EXPECT_EQ(S.Samples[0].Primary, S.Samples[0].Reference + 1);
}

TEST(CrossEvaluator, TelemetryCountsEvalsAndDivergences) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "telemetry compiled out";
  Hierarchy H = toolHierarchies()[0];
  Problem P = makeConvProblem(allPaperLayers()[0]);
  Rng R(31);
  MultiMapping M = randomMultiMapping(P, H.numLevels(), R);

  telemetry::setLevel(telemetry::Level::Metrics);
  auto counter = [](const char *Name) {
    for (const telemetry::CounterValue &C : telemetry::snapshot().Counters)
      if (C.Name == Name)
        return C.Value;
    return std::uint64_t{0};
  };
  std::uint64_t Evals0 = counter("thistle.evaluator.evals");
  std::uint64_t Div0 = counter("thistle.evaluator.divergences");

  nestCostEvaluator().evaluate(P, H, M);
  PerturbedEvaluator Broken;
  CrossCheckEvaluator XC(Broken, nestCostEvaluator());
  XC.evaluate(P, H, M);
  telemetry::setLevel(telemetry::Level::Off);

  EXPECT_EQ(counter("thistle.evaluator.evals"), Evals0 + 2);
  EXPECT_EQ(counter("thistle.evaluator.divergences"), Div0 + 1);
}

TEST(CrossEvaluator, MapperTrajectoryIsBackendInvariantWhenBackendsAgree) {
  // Scoring through maestro (or the cross-check) must reproduce the
  // default search bit for bit: equal counts => equal doubles => equal
  // accept/reject decisions at every trial.
  Hierarchy H = toolHierarchies()[0];
  ConvLayer L;
  L.K = 16;
  L.C = 8;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);

  MapperOptions Opts;
  Opts.Seed = 3;
  Opts.MaxTrials = 512;
  Opts.VictoryCondition = 150;
  Opts.Threads = 2;
  MultiMapperResult Ref = searchMultiMappings(P, H, Opts);
  ASSERT_TRUE(Ref.Found);

  CrossCheckEvaluator XC(nestCostEvaluator(), maestroCostEvaluator());
  for (const CostEvaluator *E : {&maestroCostEvaluator(),
                                 static_cast<const CostEvaluator *>(&XC)}) {
    Opts.Evaluator = E;
    MultiMapperResult Alt = searchMultiMappings(P, H, Opts);
    EXPECT_EQ(Alt.Trials, Ref.Trials);
    EXPECT_EQ(Alt.LegalTrials, Ref.LegalTrials);
    ASSERT_TRUE(Alt.Found);
    expectSameMultiEval(Alt.BestEval, Ref.BestEval);
  }
  EXPECT_EQ(XC.stats().DivergentEvals, 0u);
  EXPECT_GT(XC.stats().Evals, 0u);
}

TEST(CrossEvaluator, GeneralConvClassesMatchTiledLoopSimExactly) {
  // The tentpole claim of the open-workload work: dilated, transposed
  // and grouped/depthwise layers count exactly like the dense path —
  // nest == maestro == brute-force simulator, to the integer, on both
  // tool hierarchies.
  const CostEvaluator &Nest = nestCostEvaluator();
  const CostEvaluator &Maestro = maestroCostEvaluator();
  for (const Hierarchy &H : toolHierarchies()) {
    for (const ConvLayer &L : generalSimLayers()) {
      SCOPED_TRACE(std::string(L.layerClass()) + " K" +
                   std::to_string(L.K) + " C" + std::to_string(L.C) + " H" +
                   std::to_string(L.Hin));
      Problem P = makeConvProblem(L);
      Rng R(41);
      for (int Trial = 0; Trial < 4; ++Trial) {
        MultiMapping M = randomMultiMapping(P, H.numLevels(), R);
        ASSERT_TRUE(M.validate(P, H).empty());
        MultiProfile Sim = simulateMultiNestProfile(P, H, M);
        expectSameMultiProfile(P, H, Nest.profile(P, H, M), Sim);
        expectSameMultiProfile(P, H, Maestro.profile(P, H, M), Sim);
      }
    }
  }
}

TEST(CrossEvaluator, MaestroMatchesNestOnGeneralLayerTables) {
  // Full-size MobileNetV2 and DCGAN stages: the analytical backends stay
  // count-equal at production shapes, not just on the downscaled sims.
  const CostEvaluator &Nest = nestCostEvaluator();
  const CostEvaluator &Maestro = maestroCostEvaluator();
  std::vector<ConvLayer> Layers = mobilenetV2Layers();
  std::vector<ConvLayer> Dcgan = dcganLayers();
  Layers.insert(Layers.end(), Dcgan.begin(), Dcgan.end());
  for (const Hierarchy &H : toolHierarchies()) {
    for (const ConvLayer &L : Layers) {
      SCOPED_TRACE(L.Name);
      Problem P = makeConvProblem(L);
      Rng R(43);
      for (int Trial = 0; Trial < 3; ++Trial) {
        MultiMapping M = randomMultiMapping(P, H.numLevels(), R);
        ASSERT_TRUE(M.validate(P, H).empty());
        expectSameMultiProfile(P, H, Maestro.profile(P, H, M),
                               Nest.profile(P, H, M));
        expectSameMultiEval(Maestro.evaluate(P, H, M),
                            Nest.evaluate(P, H, M));
      }
    }
  }
}

TEST(CrossEvaluator, OptimizeLayerOnNewClassesIsThreadAndBackendInvariant) {
  // One layer per class through the full optimizeLayer sweep: results
  // bit-identical at 1 and 8 worker threads, and with the nest-vs-maestro
  // cross-check scoring every candidate (which must stay divergence-free).
  const ConvLayer Layers[] = {
      generalLayer(8, 4, 10, 3, 1, 2, 1, false),  // dilated
      generalLayer(8, 4, 5, 3, 2, 1, 1, true),    // transposed
      generalLayer(16, 8, 6, 3, 2, 1, 4, false),  // grouped
      generalLayer(8, 8, 8, 3, 1, 1, 8, false),   // depthwise
  };
  for (const ConvLayer &L : Layers) {
    SCOPED_TRACE(L.layerClass());
    Problem P = makeConvProblem(L);
    ThistleOptions One;
    One.MaxPermClassPairs = 8;
    One.Threads = 1;
    ThistleResult R1 = optimizeLayer(P, eyerissArch(),
                                     TechParams::cgo45nm(), One);
    ASSERT_TRUE(R1.InputStatus.isOk());
    ASSERT_TRUE(R1.Found);

    ThistleOptions Eight = One;
    Eight.Threads = 8;
    ThistleResult R8 = optimizeLayer(P, eyerissArch(),
                                     TechParams::cgo45nm(), Eight);
    ASSERT_TRUE(R8.Found);
    EXPECT_EQ(R1.Eval.EnergyPj, R8.Eval.EnergyPj);
    EXPECT_EQ(R1.Eval.Cycles, R8.Eval.Cycles);
    EXPECT_EQ(R1.Eval.EdpPjCycles, R8.Eval.EdpPjCycles);
    EXPECT_EQ(R1.Map.Factors, R8.Map.Factors);
    EXPECT_EQ(R1.BestPePerm, R8.BestPePerm);
    EXPECT_EQ(R1.BestDramPerm, R8.BestDramPerm);

    CrossCheckEvaluator XC(nestCostEvaluator(), maestroCostEvaluator());
    ThistleOptions Checked = Eight;
    Checked.Rounding.Evaluator = &XC;
    ThistleResult RX = optimizeLayer(P, eyerissArch(),
                                     TechParams::cgo45nm(), Checked);
    ASSERT_TRUE(RX.Found);
    EXPECT_EQ(R1.Eval.EnergyPj, RX.Eval.EnergyPj);
    EXPECT_EQ(R1.Eval.Cycles, RX.Eval.Cycles);
    EXPECT_EQ(R1.Map.Factors, RX.Map.Factors);
    EXPECT_EQ(XC.stats().DivergentEvals, 0u);
    EXPECT_GT(XC.stats().Evals, 0u);
  }
}
