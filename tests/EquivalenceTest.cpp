//===- tests/EquivalenceTest.cpp - Generic-engine equivalence proof -------===//
//
// The hierarchy-generic unification claims that the classic 3-level
// analysis, evaluation and mapper search are *bit-for-bit* the generic
// L-level engine instantiated at Hierarchy::classic3Level. This suite
// holds the proof: the pre-unification fixed-depth implementations are
// embedded verbatim below (namespace legacyref, with the result types
// they filled) and diffed against the generic API on the paper's
// workloads — every access count (a legacy directional pair such as
// DramToSram + SramToDram equals the generic Words[b][t]), every double
// of every EvalResult, and entire mapper trajectories (same RNG streams,
// same trial counts, same winner) at every thread count.
//
// If a change to the generic engine breaks any of these, it changed the
// semantics of the classic machine, not just generalized them.
//
//===----------------------------------------------------------------------===//

#include "ClassicMachine.h"
#include "nestmodel/Evaluator.h"
#include "nestmodel/Mapper.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

using namespace thistle;

// The seed (pre-unification) fixed-depth implementations, kept verbatim
// as the reference the generic engine must reproduce exactly.
namespace legacyref {

/// Per-tensor access volumes of one mapping (words).
struct TensorVolumes {
  std::int64_t DramToSram = 0; ///< DRAM reads feeding SRAM.
  std::int64_t SramToDram = 0; ///< DRAM writes (read-write tensors only).
  std::int64_t SramToReg = 0;  ///< SRAM reads feeding registers (multicast-
                               ///< reduced).
  std::int64_t RegToSram = 0;  ///< SRAM writes from registers.
};

/// Complete analytical profile of a mapping.
struct NestProfile {
  std::vector<TensorVolumes> PerTensor; ///< In Problem::tensors() order.

  std::int64_t RegTileWords = 0;  ///< Sum of register-tile footprints.
  std::int64_t SramTileWords = 0; ///< Sum of SRAM-tile footprints.
  std::int64_t PEsUsed = 1;       ///< Product of spatial trip counts.

  /// Sum over tensors of DRAM-side traffic (reads + writes).
  std::int64_t dramTraffic() const {
    std::int64_t Sum = 0;
    for (const TensorVolumes &V : PerTensor)
      Sum += V.DramToSram + V.SramToDram;
    return Sum;
  }
  /// Sum over tensors of SRAM<->register traffic (reads + writes).
  std::int64_t sramRegTraffic() const {
    std::int64_t Sum = 0;
    for (const TensorVolumes &V : PerTensor)
      Sum += V.SramToReg + V.RegToSram;
    return Sum;
  }
};

/// Evaluated metrics of one mapping on one architecture.
struct EvalResult {
  bool Legal = false;        ///< False if any capacity is exceeded.
  std::string IllegalReason; ///< Diagnostic when !Legal.

  double EnergyPj = 0.0;     ///< Total energy (Eq. 3 structure).
  double EnergyPerMacPj = 0.0;
  double MacEnergyPj = 0.0;  ///< (4*eps_R + eps_op) * Nops component.
  double RegEnergyPj = 0.0;  ///< eps_R * DV(S<->R) component.
  double SramEnergyPj = 0.0; ///< eps_S * (DV(S<->R)+DV(S<->D)) component.
  double DramEnergyPj = 0.0; ///< eps_D * DV(S<->D) component.

  double EdpPjCycles = 0.0;  ///< Energy-delay product (pJ * cycles).

  double Cycles = 0.0;       ///< max(compute, DRAM, SRAM) cycles.
  double ComputeCycles = 0.0;
  double DramCycles = 0.0;
  double SramCycles = 0.0;
  double MacIpc = 0.0;       ///< Nops / Cycles (theoretical max = P).

  NestProfile Profile;       ///< The underlying access counts.
};

/// Search outcome.
struct MapperResult {
  bool Found = false;   ///< True if any legal mapping was evaluated.
  Mapping Best;         ///< Best legal mapping found.
  EvalResult BestEval;  ///< Its metrics.
  unsigned Trials = 0;  ///< Candidates evaluated.
  unsigned LegalTrials = 0;
};

struct LevelWalk {
  std::int64_t Multiplier = 1;
  std::optional<unsigned> StreamIter;
  std::int64_t StreamTrip = 1;
};

LevelWalk walkTemporalLevel(const Tensor &T, const std::vector<unsigned> &Perm,
                            const std::vector<std::int64_t> &Trips) {
  LevelWalk Walk;
  bool CanHoist = true;
  for (std::size_t Pos = Perm.size(); Pos > 0; --Pos) {
    unsigned It = Perm[Pos - 1];
    std::int64_t Trip = Trips[It];
    if (Trip == 1)
      continue;
    if (CanHoist) {
      if (T.usesIter(It)) {
        CanHoist = false;
        Walk.StreamIter = It;
        Walk.StreamTrip = Trip;
      }
    } else {
      Walk.Multiplier *= Trip;
    }
  }
  return Walk;
}

std::int64_t unionFootprintWords(const Tensor &T,
                                 const std::vector<std::int64_t> &Extents,
                                 const LevelWalk &Walk) {
  std::int64_t Words = 1;
  for (const DimRef &D : T.Dims) {
    std::int64_t DimExtent = D.extentFor(Extents);
    if (Walk.StreamIter && D.uses(*Walk.StreamIter)) {
      std::int64_t Stride = 0;
      for (const DimRef::Term &Term : D.Terms)
        if (Term.Iter == *Walk.StreamIter)
          Stride = Term.Stride;
      std::int64_t Shift = Stride * Extents[*Walk.StreamIter];
      DimExtent += (Walk.StreamTrip - 1) * std::min(DimExtent, Shift);
    }
    Words *= DimExtent;
  }
  return Words;
}

NestProfile analyzeNest(const Problem &Prob, const Mapping &Map) {
  const unsigned NumIters = Prob.numIterators();

  NestProfile Profile;
  Profile.PerTensor.resize(Prob.tensors().size());
  Profile.PEsUsed = Map.numPEsUsed();

  std::vector<std::int64_t> DramTrips(NumIters), PeTrips(NumIters);
  for (unsigned I = 0; I < NumIters; ++I) {
    DramTrips[I] = Map.factor(I, TileLevel::DramTemporal);
    PeTrips[I] = Map.factor(I, TileLevel::PeTemporal);
  }

  const std::vector<std::int64_t> RegExt = Map.registerTileExtents();
  const std::vector<std::int64_t> SramExt = Map.sramTileExtents();

  for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI) {
    const Tensor &T = Prob.tensors()[TI];
    TensorVolumes &V = Profile.PerTensor[TI];

    {
      LevelWalk Walk = walkTemporalLevel(T, Map.DramPerm, DramTrips);
      std::int64_t Volume =
          Walk.Multiplier * unionFootprintWords(T, SramExt, Walk);
      V.DramToSram = Volume;
      V.SramToDram = T.ReadWrite ? Volume : 0;
    }

    {
      LevelWalk Walk = walkTemporalLevel(T, Map.PePerm, PeTrips);
      std::int64_t M = Walk.Multiplier;
      for (unsigned I = 0; I < NumIters; ++I) {
        if (T.usesIter(I))
          M *= Map.factor(I, TileLevel::Spatial);
        M *= DramTrips[I];
      }
      std::int64_t Volume = M * unionFootprintWords(T, RegExt, Walk);
      V.SramToReg = Volume;
      V.RegToSram = T.ReadWrite ? Volume : 0;
    }

    Profile.RegTileWords += T.footprintWords(RegExt);
    Profile.SramTileWords += T.footprintWords(SramExt);
  }
  return Profile;
}

EvalResult evaluateMapping(const Problem &Prob, const Mapping &Map,
                           const ArchConfig &Arch,
                           const EnergyModel &Energy) {
  EvalResult Result;
  Result.Profile = legacyref::analyzeNest(Prob, Map);
  const NestProfile &P = Result.Profile;

  Result.Legal = true;
  std::ostringstream Why;
  if (P.RegTileWords > Arch.RegWordsPerPE) {
    Result.Legal = false;
    Why << "register tile " << P.RegTileWords << " words > capacity "
        << Arch.RegWordsPerPE << "; ";
  }
  if (P.SramTileWords > Arch.SramWords) {
    Result.Legal = false;
    Why << "SRAM tile " << P.SramTileWords << " words > capacity "
        << Arch.SramWords << "; ";
  }
  if (P.PEsUsed > Arch.NumPEs) {
    Result.Legal = false;
    Why << "uses " << P.PEsUsed << " PEs > available " << Arch.NumPEs << "; ";
  }
  Result.IllegalReason = Why.str();

  const double Nops = static_cast<double>(Prob.numOps());
  const double DvDram = static_cast<double>(P.dramTraffic());
  const double DvSramReg = static_cast<double>(P.sramRegTraffic());

  const double EpsR =
      Energy.regAccessPj(static_cast<double>(Arch.RegWordsPerPE));
  const double EpsS = Energy.sramAccessPj(static_cast<double>(Arch.SramWords));
  const double EpsD = Energy.dramAccessPj();
  Result.MacEnergyPj = (4.0 * EpsR + Energy.macPj()) * Nops;
  Result.RegEnergyPj = EpsR * DvSramReg;
  Result.SramEnergyPj = EpsS * (DvSramReg + DvDram);
  Result.DramEnergyPj = EpsD * DvDram;
  Result.EnergyPj = Result.MacEnergyPj + Result.RegEnergyPj +
                    Result.SramEnergyPj + Result.DramEnergyPj;
  Result.EnergyPerMacPj = Result.EnergyPj / Nops;

  Result.ComputeCycles = Nops / static_cast<double>(P.PEsUsed);
  Result.DramCycles = DvDram / Arch.DramBandwidth;
  Result.SramCycles = (DvSramReg + DvDram) / Arch.SramBandwidth;
  Result.Cycles = std::max(
      {Result.ComputeCycles, Result.DramCycles, Result.SramCycles, 1.0});
  Result.MacIpc = Nops / Result.Cycles;
  Result.EdpPjCycles = Result.EnergyPj * Result.Cycles;
  return Result;
}

std::uint64_t mix64(std::uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

std::uint64_t slotSeed(std::uint64_t Seed, unsigned Round, unsigned Slot) {
  return Seed ^ mix64((static_cast<std::uint64_t>(Round) << 32) |
                      (static_cast<std::uint64_t>(Slot) + 1));
}

Mapping sampleMapping(const Problem &Prob, const ArchConfig &Arch,
                      const DivisorTable &Divs, Rng &R) {
  Mapping Map;
  const unsigned NumIters = Prob.numIterators();
  Map.Factors.resize(NumIters);

  std::int64_t SpatialBudget = Arch.NumPEs;
  std::vector<unsigned> Order(NumIters);
  std::iota(Order.begin(), Order.end(), 0u);
  R.shuffle(Order);

  for (unsigned I : Order) {
    std::int64_t Extent = Prob.iterators()[I].Extent;
    std::int64_t RegF = R.pick(Divs.of(Extent));
    std::int64_t Rest = Extent / RegF;
    std::vector<std::int64_t> SpatialChoices;
    for (std::int64_t D : Divs.of(Rest))
      if (D <= SpatialBudget)
        SpatialChoices.push_back(D);
    std::int64_t SpatF = R.pick(SpatialChoices);
    SpatialBudget /= SpatF;
    Rest /= SpatF;
    std::int64_t PeF = R.pick(Divs.of(Rest));
    std::int64_t DramF = Rest / PeF;

    Map.factor(I, TileLevel::Register) = RegF;
    Map.factor(I, TileLevel::Spatial) = SpatF;
    Map.factor(I, TileLevel::PeTemporal) = PeF;
    Map.factor(I, TileLevel::DramTemporal) = DramF;
  }

  Map.DramPerm.resize(NumIters);
  std::iota(Map.DramPerm.begin(), Map.DramPerm.end(), 0u);
  R.shuffle(Map.DramPerm);
  Map.PePerm = Map.DramPerm;
  R.shuffle(Map.PePerm);
  return Map;
}

std::int64_t smallestPrimeFactor(std::int64_t N) {
  for (std::int64_t P = 2; P * P <= N; ++P)
    if (N % P == 0)
      return P;
  return N;
}

bool tryMutateOnce(Mapping &Map, Rng &R) {
  const unsigned NumIters = Map.Factors.size();
  if (R.nextDouble() < 0.5) {
    unsigned I = R.nextIndex(NumIters);
    unsigned From = R.nextIndex(NumTileLevels);
    unsigned To = R.nextIndex(NumTileLevels);
    if (From == To || Map.Factors[I][From] <= 1)
      return false;
    std::int64_t P = smallestPrimeFactor(Map.Factors[I][From]);
    Map.Factors[I][From] /= P;
    Map.Factors[I][To] *= P;
    return true;
  }
  std::vector<unsigned> &Perm = R.nextDouble() < 0.5 ? Map.DramPerm
                                                     : Map.PePerm;
  if (Perm.size() < 2)
    return false;
  std::size_t A = R.nextIndex(Perm.size());
  std::size_t B = R.nextIndex(Perm.size());
  if (A == B)
    return false;
  std::swap(Perm[A], Perm[B]);
  return true;
}

bool mutateMapping(Mapping &Map, Rng &R) {
  for (int Attempt = 0; Attempt < 8; ++Attempt)
    if (tryMutateOnce(Map, R))
      return true;
  return false;
}

struct SlotOutcome {
  bool HasEval = false;
  Mapping Candidate;
  EvalResult Eval;
  double Obj = 0.0;
  double AcceptDraw = 0.0;
};

double objectiveValue(const EvalResult &Eval, SearchObjective Objective) {
  switch (Objective) {
  case SearchObjective::Energy:
    return Eval.EnergyPj;
  case SearchObjective::Delay:
    return Eval.Cycles;
  case SearchObjective::EnergyDelayProduct:
    return Eval.EdpPjCycles;
  }
  return 0.0;
}

MapperResult searchMappings(const Problem &Prob, const ArchConfig &Arch,
                            const EnergyModel &Energy,
                            const MapperOptions &Options) {
  MapperResult Result;
  double BestObj = 0.0;
  unsigned SinceImprovement = 0;

  Mapping Current;
  double CurrentObj = 0.0;
  bool HaveCurrent = false;
  double Temperature = 0.0;

  DivisorTable Divs;
  for (const Iterator &It : Prob.iterators())
    Divs.populate(It.Extent);

  auto runSlot = [&](SlotOutcome &Out, unsigned Round, unsigned Slot) {
    Rng R(slotSeed(Options.Seed, Round, Slot));
    Mapping Candidate;
    bool Mutated = false;
    switch (Options.Strategy) {
    case MapperStrategy::RandomSampling:
      Candidate = sampleMapping(Prob, Arch, Divs, R);
      break;
    case MapperStrategy::HillClimb:
      if (Result.Found && R.nextDouble() < 0.5) {
        Candidate = Result.Best;
        Mutated = true;
      } else {
        Candidate = sampleMapping(Prob, Arch, Divs, R);
      }
      break;
    case MapperStrategy::Anneal:
      if (HaveCurrent) {
        Candidate = Current;
        Mutated = true;
      } else {
        Candidate = sampleMapping(Prob, Arch, Divs, R);
      }
      break;
    }
    if (Mutated && !mutateMapping(Candidate, R))
      return;
    if (Mutated && !Candidate.validate(Prob).empty())
      return;

    Out.Eval = legacyref::evaluateMapping(Prob, Candidate, Arch, Energy);
    Out.Obj = Out.Eval.Legal
                  ? legacyref::objectiveValue(Out.Eval, Options.Objective)
                  : 0.0;
    Out.AcceptDraw = R.nextDouble();
    Out.Candidate = std::move(Candidate);
    Out.HasEval = true;
  };

  ThreadPool Pool(Options.Threads);
  const unsigned RoundSize = std::max(1u, Options.TrialsPerRound);
  std::vector<SlotOutcome> Slots;

  unsigned SlotsIssued = 0;
  bool Stop = false;
  for (unsigned Round = 0; !Stop && SlotsIssued < Options.MaxTrials;
       ++Round) {
    const unsigned Batch =
        std::min(RoundSize, Options.MaxTrials - SlotsIssued);
    Slots.assign(Batch, SlotOutcome());
    parallelFor(Pool, Batch, [&](std::size_t Slot, unsigned) {
      runSlot(Slots[Slot], Round, static_cast<unsigned>(Slot));
    });
    SlotsIssued += Batch;

    for (unsigned Slot = 0; Slot < Batch && !Stop; ++Slot) {
      SlotOutcome &Out = Slots[Slot];
      if (!Out.HasEval)
        continue;
      ++Result.Trials;
      if (Options.Strategy == MapperStrategy::Anneal)
        Temperature *= Options.AnnealCooling;
      if (!Out.Eval.Legal) {
        ++SinceImprovement;
        if (SinceImprovement >= Options.VictoryCondition && Result.Found)
          Stop = true;
        continue;
      }
      ++Result.LegalTrials;

      if (Options.Strategy == MapperStrategy::Anneal) {
        if (!HaveCurrent) {
          Current = Out.Candidate;
          CurrentObj = Out.Obj;
          HaveCurrent = true;
          Temperature = Options.AnnealInitialTemp * Out.Obj;
        } else if (Out.Obj <= CurrentObj ||
                   (Temperature > 0.0 &&
                    Out.AcceptDraw <
                        std::exp((CurrentObj - Out.Obj) / Temperature))) {
          Current = Out.Candidate;
          CurrentObj = Out.Obj;
        }
      }

      if (!Result.Found || Out.Obj < BestObj) {
        Result.Found = true;
        Result.Best = std::move(Out.Candidate);
        Result.BestEval = std::move(Out.Eval);
        BestObj = Out.Obj;
        SinceImprovement = 0;
      } else if (++SinceImprovement >= Options.VictoryCondition) {
        Stop = true;
      }
    }
  }
  return Result;
}

} // namespace legacyref

namespace {

/// The tier-1 workload sample: the paper's representative shapes kept
/// small enough for thousands of analytical evaluations.
std::vector<Problem> equivalenceWorkloads() {
  std::vector<Problem> Probs;
  {
    ConvLayer L;
    L.K = 16;
    L.C = 8;
    L.Hin = 14;
    L.Win = 14;
    L.R = 3;
    L.S = 3;
    Probs.push_back(makeConvProblem(L));
  }
  {
    ConvLayer L;
    L.K = 8;
    L.C = 16;
    L.Hin = 12;
    L.Win = 12;
    L.R = 3;
    L.S = 3;
    L.StrideX = L.StrideY = 2;
    Probs.push_back(makeConvProblem(L));
  }
  Probs.push_back(makeMatmulProblem(16, 16, 16));
  return Probs;
}

/// Every legacy directional pair must sum to the generic per-boundary
/// count exactly: boundary 0 = SRAM<->registers, 1 = DRAM<->SRAM.
void expectSameProfile(const MultiProfile &New,
                       const legacyref::NestProfile &Old) {
  ASSERT_EQ(New.Words.size(), 2u);
  ASSERT_EQ(New.Occupancy.size(), 3u);
  for (std::size_t TI = 0; TI < Old.PerTensor.size(); ++TI) {
    const legacyref::TensorVolumes &V = Old.PerTensor[TI];
    EXPECT_EQ(New.Words[1][TI], V.DramToSram + V.SramToDram);
    EXPECT_EQ(New.Words[0][TI], V.SramToReg + V.RegToSram);
  }
  EXPECT_EQ(New.Words[0].size(), Old.PerTensor.size());
  EXPECT_EQ(New.Words[1].size(), Old.PerTensor.size());
  EXPECT_EQ(New.Occupancy[0], Old.RegTileWords);
  EXPECT_EQ(New.Occupancy[1], Old.SramTileWords);
  EXPECT_EQ(New.PEsUsed, Old.PEsUsed);
}

/// Bit-for-bit: every double compared with exact equality.
void expectSameEval(const EvalResult &A, const legacyref::EvalResult &B) {
  EXPECT_EQ(A.Legal, B.Legal);
  EXPECT_EQ(A.IllegalReason, B.IllegalReason);
  EXPECT_EQ(A.EnergyPj, B.EnergyPj);
  EXPECT_EQ(A.EnergyPerMacPj, B.EnergyPerMacPj);
  EXPECT_EQ(A.MacEnergyPj, B.MacEnergyPj);
  EXPECT_EQ(A.RegEnergyPj, B.RegEnergyPj);
  EXPECT_EQ(A.SramEnergyPj, B.SramEnergyPj);
  EXPECT_EQ(A.DramEnergyPj, B.DramEnergyPj);
  EXPECT_EQ(A.EdpPjCycles, B.EdpPjCycles);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.ComputeCycles, B.ComputeCycles);
  EXPECT_EQ(A.DramCycles, B.DramCycles);
  EXPECT_EQ(A.SramCycles, B.SramCycles);
  EXPECT_EQ(A.MacIpc, B.MacIpc);
  expectSameProfile(A.Profile, B.Profile);
}

void expectSameMapping(const MultiMapping &New, const Mapping &Old) {
  const Mapping A = New.toMapping();
  ASSERT_EQ(A.Factors.size(), Old.Factors.size());
  for (std::size_t I = 0; I < A.Factors.size(); ++I)
    for (unsigned L = 0; L < NumTileLevels; ++L)
      EXPECT_EQ(A.Factors[I][L], Old.Factors[I][L]);
  EXPECT_EQ(A.DramPerm, Old.DramPerm);
  EXPECT_EQ(A.PePerm, Old.PePerm);
}

/// Diffs one generic mapper search against the legacy one.
void expectSameSearch(const MultiMapperResult &New,
                      const legacyref::MapperResult &Old,
                      const ArchConfig &Arch) {
  EXPECT_EQ(New.Found, Old.Found);
  EXPECT_EQ(New.Trials, Old.Trials);
  EXPECT_EQ(New.LegalTrials, Old.LegalTrials);
  ASSERT_TRUE(New.Found);
  expectSameMapping(New.Best, Old.Best);
  expectSameEval(evalResultFromMulti(Arch, New.BestEval), Old.BestEval);
}

} // namespace

TEST(Equivalence, NestProfileMatchesLegacyBitForBit) {
  ArchConfig Arch = eyerissArch();
  for (const Problem &P : equivalenceWorkloads()) {
    DivisorTable Divs;
    for (const Iterator &It : P.iterators())
      Divs.populate(It.Extent);
    Rng R(7);
    for (int Trial = 0; Trial < 300; ++Trial) {
      Mapping Map = legacyref::sampleMapping(P, Arch, Divs, R);
      ASSERT_TRUE(Map.validate(P).empty());
      expectSameProfile(analyzeClassic(P, Map),
                        legacyref::analyzeNest(P, Map));
    }
  }
}

TEST(Equivalence, EvalResultMatchesLegacyBitForBit) {
  ArchConfig Arch = eyerissArch();
  EnergyModel E(TechParams::cgo45nm());
  for (const Problem &P : equivalenceWorkloads()) {
    DivisorTable Divs;
    for (const Iterator &It : P.iterators())
      Divs.populate(It.Extent);
    Rng R(11);
    unsigned Illegal = 0;
    for (int Trial = 0; Trial < 300; ++Trial) {
      Mapping Map = legacyref::sampleMapping(P, Arch, Divs, R);
      // Shake the permutations and factors around so both legal and
      // illegal candidates are diffed.
      legacyref::mutateMapping(Map, R);
      ASSERT_TRUE(Map.validate(P).empty());
      EvalResult New = evaluateClassic(P, Map, Arch);
      legacyref::EvalResult Old = legacyref::evaluateMapping(P, Map, Arch, E);
      expectSameEval(New, Old);
      Illegal += New.Legal ? 0 : 1;
    }
    EXPECT_GT(Illegal, 0u) << "want illegal mappings in the diff set";
  }
}

TEST(Equivalence, UntiledAndDegenerateMappingsMatch) {
  ArchConfig Arch = eyerissArch();
  EnergyModel E(TechParams::cgo45nm());
  for (const Problem &P : equivalenceWorkloads()) {
    Mapping Untiled = Mapping::untiled(P);
    expectSameEval(evaluateClassic(P, Untiled, Arch),
                   legacyref::evaluateMapping(P, Untiled, Arch, E));
  }
}

TEST(Equivalence, MapperTrajectoriesMatchLegacyAcrossStrategies) {
  ArchConfig Arch = eyerissArch();
  EnergyModel E(TechParams::cgo45nm());
  Hierarchy Machine = Hierarchy::classic3Level(Arch, E.tech());
  Problem P = equivalenceWorkloads()[0];
  for (MapperStrategy Strategy :
       {MapperStrategy::RandomSampling, MapperStrategy::HillClimb,
        MapperStrategy::Anneal}) {
    for (SearchObjective Objective :
         {SearchObjective::Energy, SearchObjective::EnergyDelayProduct}) {
      MapperOptions Opts;
      Opts.Strategy = Strategy;
      Opts.Objective = Objective;
      Opts.Seed = 42;
      Opts.MaxTrials = 768;
      Opts.VictoryCondition = 200;
      Opts.Threads = 1;
      expectSameSearch(searchMultiMappings(P, Machine, Opts),
                       legacyref::searchMappings(P, Arch, E, Opts), Arch);
    }
  }
}

TEST(Equivalence, MapperMatchesLegacyAtEveryThreadCount) {
  ArchConfig Arch = eyerissArch();
  EnergyModel E(TechParams::cgo45nm());
  Hierarchy Machine = Hierarchy::classic3Level(Arch, E.tech());
  Problem P = equivalenceWorkloads()[2];
  MapperOptions Opts;
  Opts.Strategy = MapperStrategy::Anneal;
  Opts.Seed = 5;
  Opts.MaxTrials = 512;
  Opts.VictoryCondition = 150;
  Opts.Threads = 1;
  legacyref::MapperResult Ref = legacyref::searchMappings(P, Arch, E, Opts);
  ASSERT_TRUE(Ref.Found);
  for (unsigned Threads : {1u, 2u, 5u, 16u}) {
    Opts.Threads = Threads;
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    expectSameSearch(searchMultiMappings(P, Machine, Opts), Ref, Arch);
  }
}

TEST(Equivalence, OptimizerWinnerEvaluatesIdentically) {
  // The GP optimizer reports metrics through the generic evaluator; the
  // winner must carry exactly the numbers the legacy evaluator assigns.
  ConvLayer L;
  L.K = 16;
  L.C = 16;
  L.Hin = 14;
  L.Win = 14;
  L.R = 3;
  L.S = 3;
  Problem P = makeConvProblem(L);
  ArchConfig Arch = eyerissArch();
  TechParams Tech = TechParams::cgo45nm();
  ThistleOptions Options;
  Options.Threads = 1;
  ThistleResult R = optimizeLayer(P, Arch, Tech, Options, 0.0);
  ASSERT_TRUE(R.Found);
  EnergyModel E(Tech);
  expectSameEval(R.Eval, legacyref::evaluateMapping(P, R.Map, Arch, E));
}
