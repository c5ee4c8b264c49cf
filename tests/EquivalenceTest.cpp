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
// The same holds for the evaluator's allocation-free rewrite: the nest
// walk, its pricing and the maestro profile as they stood before it are
// embedded too (namespace legacyref::multi) and diffed on random mappings
// of every layer class on 3-, 4- and 5-level hierarchies — every count
// equal, every priced double equal to the bit.
//
// If a change to the generic engine breaks any of these, it changed the
// semantics of the classic machine, not just generalized them.
//
//===----------------------------------------------------------------------===//

#include "ClassicMachine.h"
#include "RandomMapping.h"
#include "multilevel/Hierarchy.h"
#include "nestmodel/CostEvaluator.h"
#include "nestmodel/MaestroModel.h"
#include "nestmodel/Evaluator.h"
#include "nestmodel/Mapper.h"
#include "support/MathUtil.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "thistle/Optimizer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

// The analytical model as it stood before its allocation-free rewrite
// (flattened tensor terms, per-tensor iterator masks, one pass over the
// levels), kept verbatim: the nest walk, its pricing and the maestro
// backend's profile. Only the names changed (free functions here).
namespace legacyref::multi {

std::vector<std::vector<std::int64_t>>
tileExtentsPerLevel(const MultiMapping &Map, const Hierarchy &H) {
  const std::size_t NumIters = Map.SpatialFactors.size();
  std::vector<std::vector<std::int64_t>> Ext(
      Map.numLevels(), std::vector<std::int64_t>(NumIters));
  for (std::size_t I = 0; I < NumIters; ++I) {
    std::int64_t Temporal = 1;
    for (unsigned L = 0; L < Map.numLevels(); ++L) {
      Temporal *= Map.TempFactors[L][I];
      Ext[L][I] =
          L >= H.FanoutLevel ? Temporal * Map.SpatialFactors[I] : Temporal;
    }
  }
  return Ext;
}

/// Result of the Algorithm-1 walk of one level for one tensor, over
/// concrete trip counts.
struct LevelWalk {
  std::int64_t Multiplier = 1;
  std::optional<unsigned> StreamIter;
  std::int64_t StreamTrip = 1;
};

LevelWalk walkLevel(const Tensor &T, const std::vector<unsigned> &Perm,
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

/// Exact union of StreamTrip consecutive tiles (min(E, shift) per dim).
std::int64_t unionWords(const Tensor &T,
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

MultiProfile analyzeMultiNest(const Problem &Prob, const Hierarchy &H,
                              const MultiMapping &Map) {
  assert(H.validate().empty() && "hierarchy must validate");
  assert(Map.validate(Prob, H).empty() && "mapping must validate");
  const unsigned NumIters = Prob.numIterators();
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;

  MultiProfile Profile;
  Profile.Words.assign(H.numBoundaries(),
                       std::vector<std::int64_t>(Prob.tensors().size(), 0));
  Profile.Occupancy.assign(L, 0);
  Profile.PEsUsed = Map.numPEsUsed();

  // Per-level tile extents and outer-trip products, hoisted out of the
  // per-tensor loop: this is the hot path of the mapper and rounding.
  const std::vector<std::vector<std::int64_t>> Extents =
      tileExtentsPerLevel(Map, H);
  // OuterTrips[Lv] = product of every trip count of levels > Lv.
  std::vector<std::int64_t> OuterTrips(L, 1);
  for (unsigned Lv = L - 1; Lv > 0; --Lv) {
    std::int64_t LevelTrips = 1;
    for (unsigned I = 0; I < NumIters; ++I)
      LevelTrips *= Map.TempFactors[Lv][I];
    OuterTrips[Lv - 1] = OuterTrips[Lv] * LevelTrips;
  }

  for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI) {
    const Tensor &T = Prob.tensors()[TI];
    for (unsigned B = 0; B < H.numBoundaries(); ++B) {
      const unsigned WalkLevel = B + 1;
      LevelWalk Walk =
          walkLevel(T, Map.Perms[WalkLevel], Map.TempFactors[WalkLevel]);

      // Every trip count of the levels above the walked one.
      std::int64_t M = Walk.Multiplier * OuterTrips[WalkLevel];
      // Spatial contribution (see file header).
      if (WalkLevel < F) {
        for (unsigned I = 0; I < NumIters; ++I)
          M *= Map.SpatialFactors[I];
      } else if (WalkLevel == F) {
        for (unsigned I = 0; I < NumIters; ++I)
          if (T.usesIter(I))
            M *= Map.SpatialFactors[I];
      }

      std::int64_t Volume = M * unionWords(T, Extents[B], Walk);
      if (T.ReadWrite)
        Volume *= 2;
      Profile.Words[B][TI] = Volume;
    }
    for (unsigned Lv = 0; Lv < L; ++Lv)
      Profile.Occupancy[Lv] += T.footprintWords(Extents[Lv]);
  }
  return Profile;
}

MultiEvalResult priceMultiProfile(const Problem &Prob, const Hierarchy &H,
                                  MultiProfile Profile) {
  MultiEvalResult Result;
  Result.Profile = std::move(Profile);
  const MultiProfile &P = Result.Profile;

  // Each clause is formatted only when its check fails: a legal design
  // builds no string on this hot path.
  Result.Legal = true;
  std::string &Why = Result.IllegalReason;
  for (unsigned Lv = 0; Lv + 1 < H.numLevels(); ++Lv)
    if (P.Occupancy[Lv] > H.Levels[Lv].CapacityWords) {
      Result.Legal = false;
      Why += H.Levels[Lv].Name + " tile " + std::to_string(P.Occupancy[Lv]) +
             " words > capacity " +
             std::to_string(H.Levels[Lv].CapacityWords) + "; ";
    }
  if (P.PEsUsed > H.NumPEs) {
    Result.Legal = false;
    Why += "uses " + std::to_string(P.PEsUsed) + " PEs > available " +
           std::to_string(H.NumPEs) + "; ";
  }

  const unsigned L = H.numLevels();
  const double Nops = static_cast<double>(Prob.numOps());

  // Boundary traffic, as doubles, with one-past-the-end zeros so every
  // level sees its two adjacent boundaries (W_{-1} = W_{L-1} = 0).
  std::vector<double> W(H.numBoundaries());
  for (unsigned B = 0; B < H.numBoundaries(); ++B)
    W[B] = static_cast<double>(P.boundaryWords(B));
  auto boundary = [&](int B) {
    return B < 0 || B >= static_cast<int>(H.numBoundaries()) ? 0.0 : W[B];
  };

  // Energy, Eq. 3 generalized: the MAC term (register accesses ride every
  // operation), then each level priced over the words crossing its two
  // adjacent boundaries. Grouping by level (not by boundary) keeps the
  // floating-point sum identical to the fixed-depth Eq. 3 components.
  Result.MacEnergyPj =
      (4.0 * H.Levels[0].AccessEnergyPj + H.MacEnergyPj) * Nops;
  Result.EnergyPerLevelPj.assign(L, 0.0);
  for (unsigned Lv = 0; Lv < L; ++Lv)
    Result.EnergyPerLevelPj[Lv] =
        H.Levels[Lv].AccessEnergyPj *
        (boundary(static_cast<int>(Lv) - 1) + boundary(static_cast<int>(Lv)));
  double Energy = Result.MacEnergyPj;
  for (unsigned Lv = 0; Lv < L; ++Lv)
    Energy += Result.EnergyPerLevelPj[Lv];
  Result.EnergyPj = Energy;
  Result.EnergyPerMacPj = Energy / Nops;

  // Delay (section V-B): compute bound plus each level's bandwidth over
  // its adjacent boundaries; private levels have one instance per used PE.
  Result.ComputeCycles = Nops / static_cast<double>(P.PEsUsed);
  Result.CyclesPerLevel.assign(L, 0.0);
  double Cycles = Result.ComputeCycles;
  for (unsigned Lv = 1; Lv < L; ++Lv) {
    double Words =
        boundary(static_cast<int>(Lv) - 1) + boundary(static_cast<int>(Lv));
    double Instances =
        Lv < H.FanoutLevel ? static_cast<double>(P.PEsUsed) : 1.0;
    Result.CyclesPerLevel[Lv] = Words / (H.Levels[Lv].Bandwidth * Instances);
    Cycles = std::max(Cycles, Result.CyclesPerLevel[Lv]);
  }
  Result.Cycles = std::max(Cycles, 1.0);
  Result.MacIpc = Nops / Result.Cycles;
  Result.EdpPjCycles = Result.EnergyPj * Result.Cycles;
  return Result;
}

/// The streaming iterator of tensor \p T at one level: the
/// innermost-positioned iterator in \p Perm (outer-to-inner order) that
/// the tensor uses and that actually iterates (trip > 1). Data-centric
/// reading: everything inner to it is tensor-irrelevant, so the tile is
/// stationary across those loops; along it the tile slides and only halo
/// words are new.
struct StreamInfo {
  std::optional<unsigned> Iter;
  std::int64_t Trip = 1;
  /// Product of the trips of the loops inner to the streaming one — the
  /// tensor's stationary (temporal) reuse at this level. When no
  /// streaming iterator exists this is the whole level's trip product.
  std::int64_t StationaryReuse = 1;
};

StreamInfo findStream(const Tensor &T, const std::vector<unsigned> &Perm,
                      const std::vector<std::int64_t> &Trips) {
  StreamInfo Info;
  for (std::size_t Pos = Perm.size(); Pos > 0; --Pos) {
    unsigned It = Perm[Pos - 1];
    if (Trips[It] <= 1)
      continue;
    if (T.usesIter(It)) {
      Info.Iter = It;
      Info.Trip = Trips[It];
      return Info;
    }
    Info.StationaryReuse *= Trips[It];
  }
  return Info;
}

/// Words delivered by one full streaming sequence of tensor \p T: the
/// first tile box plus, per subsequent step, the words not covered by
/// the previous tile (overlap subtraction, per dimension). With no
/// streaming iterator this is just the tile box.
std::int64_t streamedSequenceWords(const Tensor &T,
                                   const std::vector<std::int64_t> &Extents,
                                   const StreamInfo &Stream) {
  std::int64_t Words = 1;
  for (const DimRef &D : T.Dims) {
    std::int64_t Box = D.extentFor(Extents);
    std::int64_t Delivered = Box;
    if (Stream.Iter && D.uses(*Stream.Iter)) {
      std::int64_t Stride = 0;
      for (const DimRef::Term &Term : D.Terms)
        if (Term.Iter == *Stream.Iter)
          Stride = Term.Stride;
      // Consecutive tiles are shifted by Stride * tile points; the
      // overlap is whatever the shift leaves of the box.
      std::int64_t Shift = Stride * Extents[*Stream.Iter];
      std::int64_t Overlap = std::max<std::int64_t>(0, Box - Shift);
      Delivered = Stream.Trip * Box - (Stream.Trip - 1) * Overlap;
    }
    Words *= Delivered;
  }
  return Words;
}

MultiProfile maestroProfile(const Problem &Prob, const Hierarchy &H,
                            const MultiMapping &Map) {
  assert(H.validate().empty() && "hierarchy must validate");
  assert(Map.validate(Prob, H).empty() && "mapping must validate");
  const unsigned NumIters = Prob.numIterators();
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;

  MultiProfile Profile;
  Profile.Words.assign(H.numBoundaries(),
                       std::vector<std::int64_t>(Prob.tensors().size(), 0));
  Profile.Occupancy.assign(L, 0);
  Profile.PEsUsed = Map.numPEsUsed();

  const std::vector<std::vector<std::int64_t>> Extents =
      tileExtentsPerLevel(Map, H);

  // Total temporal trips per level and the product over the levels above
  // each one (the enclosing-iteration count of a level's sequence).
  std::vector<std::int64_t> LevelTrips(L, 1);
  for (unsigned Lv = 0; Lv < L; ++Lv)
    for (unsigned I = 0; I < NumIters; ++I)
      LevelTrips[Lv] *= Map.TempFactors[Lv][I];
  std::vector<std::int64_t> EnclosingTrips(L, 1);
  for (unsigned Lv = L - 1; Lv > 0; --Lv)
    EnclosingTrips[Lv - 1] = EnclosingTrips[Lv] * LevelTrips[Lv];

  const std::int64_t AllSpatialTrips = [&] {
    std::int64_t P = 1;
    for (unsigned I = 0; I < NumIters; ++I)
      P *= Map.SpatialFactors[I];
    return P;
  }();

  for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI) {
    const Tensor &T = Prob.tensors()[TI];
    for (unsigned B = 0; B < H.numBoundaries(); ++B) {
      const unsigned WalkLevel = B + 1;
      StreamInfo Stream = findStream(T, Map.Perms[WalkLevel],
                                     Map.TempFactors[WalkLevel]);

      // Sequences delivered at this level: the level's full iteration
      // count divided by the stationary reuse and by the steps already
      // inside one streamed sequence. Exact: StationaryReuse and
      // Stream.Trip are trip products of disjoint loop subsets.
      assert(LevelTrips[WalkLevel] %
                 (Stream.StationaryReuse * Stream.Trip) == 0 &&
             "reuse factors must divide the level trip product");
      std::int64_t Sequences =
          LevelTrips[WalkLevel] / (Stream.StationaryReuse * Stream.Trip);

      // Spatial reuse: below the fan-out every PE sees private traffic;
      // at the fan-out the grid-wide demand is divided by the multicast
      // reuse (spatial trips of iterators the tensor does not use,
      // Eq. 2); above it the tiles already span the grid.
      std::int64_t SpatialMult = 1;
      if (WalkLevel < F) {
        SpatialMult = AllSpatialTrips;
      } else if (WalkLevel == F) {
        std::int64_t MulticastReuse = 1;
        for (unsigned I = 0; I < NumIters; ++I)
          if (!T.usesIter(I))
            MulticastReuse *= Map.SpatialFactors[I];
        assert(AllSpatialTrips % MulticastReuse == 0 &&
               "multicast reuse must divide the spatial trip product");
        SpatialMult = AllSpatialTrips / MulticastReuse;
      }

      std::int64_t Volume = Sequences * EnclosingTrips[WalkLevel] *
                            SpatialMult *
                            streamedSequenceWords(T, Extents[B], Stream);
      if (T.ReadWrite)
        Volume *= 2;
      Profile.Words[B][TI] = Volume;
    }
    for (unsigned Lv = 0; Lv < L; ++Lv)
      Profile.Occupancy[Lv] += T.footprintWords(Extents[Lv]);
  }
  return Profile;
}

} // namespace legacyref::multi

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

namespace {

/// The hierarchies the evaluator rewrite is pinned on: the classic
/// machine, the tool's spad4 machine, and a 5-level machine read from a
/// hierarchy file with the fan-out above a per-PE scratchpad.
std::vector<Hierarchy> pinnedHierarchies() {
  ArchConfig Arch = eyerissArch();
  TechParams Tech = TechParams::cgo45nm();
  Expected<Hierarchy> Five = parseHierarchy("# five levels\n"
                                            "pes 64\n"
                                            "mac-pj 2.2\n"
                                            "fanout 2\n"
                                            "level RegisterFile 64 0.6 1e9\n"
                                            "level Scratchpad 1024 1.2 8\n"
                                            "level L1 16384 6.0 16\n"
                                            "level L2 262144 15.0 8\n"
                                            "level DRAM - 200.0 4\n");
  EXPECT_TRUE(Five.hasValue()) << Five.status().toString();
  return {Hierarchy::classic3Level(Arch, Tech),
          Hierarchy::withScratchpad(Arch, Tech, /*SpadWords=*/512,
                                    Arch.SramWords),
          Five.takeValue()};
}

ConvLayer pinnedLayer(const char *Name, std::int64_t K, std::int64_t C,
                      std::int64_t HW, std::int64_t RS, std::int64_t Stride,
                      std::int64_t Dilation, std::int64_t Groups,
                      bool Transposed) {
  ConvLayer L;
  L.Name = Name;
  L.K = K;
  L.C = C;
  L.Hin = L.Win = HW;
  L.R = L.S = RS;
  L.StrideX = L.StrideY = Stride;
  L.DilationX = L.DilationY = Dilation;
  L.Groups = Groups;
  L.Transposed = Transposed;
  EXPECT_TRUE(L.validate().isOk()) << L.validate().toString();
  return L;
}

/// One layer per class. The strided, dilated and transposed ones carry
/// two-term dimensions whose strides differ, so a streaming stride taken
/// from the wrong term changes their counts.
std::vector<ConvLayer> pinnedLayers() {
  return {
      pinnedLayer("dense", 32, 16, 28, 3, 1, 1, 1, false),
      pinnedLayer("dense-strided", 64, 32, 28, 1, 2, 1, 1, false),
      pinnedLayer("grouped", 32, 32, 14, 3, 2, 1, 4, false),
      pinnedLayer("depthwise", 32, 32, 28, 3, 2, 1, 32, false),
      pinnedLayer("transposed", 16, 32, 7, 4, 2, 1, 1, true),
      pinnedLayer("dilated", 16, 16, 28, 3, 1, 2, 1, false),
  };
}

void expectSameCounts(const MultiProfile &New, const MultiProfile &Old) {
  EXPECT_EQ(New.Words, Old.Words);
  EXPECT_EQ(New.Occupancy, Old.Occupancy);
  EXPECT_EQ(New.PEsUsed, Old.PEsUsed);
}

void expectSameBits(double New, double Old, const char *Field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(New),
            std::bit_cast<std::uint64_t>(Old))
      << Field << ": " << New << " vs " << Old;
}

void expectSameBits(const std::vector<double> &New,
                    const std::vector<double> &Old, const char *Field) {
  ASSERT_EQ(New.size(), Old.size()) << Field;
  for (std::size_t I = 0; I < New.size(); ++I)
    expectSameBits(New[I], Old[I], Field);
}

/// Every field of two priced results, doubles compared bit for bit.
void expectSamePricing(const MultiEvalResult &New,
                       const MultiEvalResult &Old) {
  EXPECT_EQ(New.Legal, Old.Legal);
  EXPECT_EQ(New.IllegalReason, Old.IllegalReason);
  expectSameBits(New.EnergyPj, Old.EnergyPj, "EnergyPj");
  expectSameBits(New.EnergyPerMacPj, Old.EnergyPerMacPj, "EnergyPerMacPj");
  expectSameBits(New.MacEnergyPj, Old.MacEnergyPj, "MacEnergyPj");
  expectSameBits(New.EnergyPerLevelPj, Old.EnergyPerLevelPj,
                 "EnergyPerLevelPj");
  expectSameBits(New.EdpPjCycles, Old.EdpPjCycles, "EdpPjCycles");
  expectSameBits(New.Cycles, Old.Cycles, "Cycles");
  expectSameBits(New.ComputeCycles, Old.ComputeCycles, "ComputeCycles");
  expectSameBits(New.CyclesPerLevel, Old.CyclesPerLevel, "CyclesPerLevel");
  expectSameBits(New.MacIpc, Old.MacIpc, "MacIpc");
  expectSameCounts(New.Profile, Old.Profile);
}

/// Diffs both backends and the pricing against the embedded pre-rewrite
/// evaluator on \p Trials random mappings of \p P on \p H; returns how
/// many of them were legal.
unsigned expectEvaluatorMatchesLegacy(const Problem &P, const Hierarchy &H,
                                      unsigned Trials, std::uint64_t Seed) {
  const CostEvaluator &Nest = nestCostEvaluator();
  const CostEvaluator &Maestro = maestroCostEvaluator();
  Rng R(Seed);
  unsigned Legal = 0;
  for (unsigned Trial = 0; Trial < Trials; ++Trial) {
    SCOPED_TRACE("trial " + std::to_string(Trial));
    MultiMapping M = randomMultiMapping(P, H.numLevels(), R);
    EXPECT_TRUE(M.validate(P, H).empty());
    MultiProfile OldNest = legacyref::multi::analyzeMultiNest(P, H, M);
    MultiProfile OldMaestro = legacyref::multi::maestroProfile(P, H, M);
    expectSameCounts(Nest.profile(P, H, M), OldNest);
    expectSameCounts(Maestro.profile(P, H, M), OldMaestro);
    MultiEvalResult Old = legacyref::multi::priceMultiProfile(P, H, OldNest);
    expectSamePricing(priceMultiProfile(P, H, OldNest), Old);
    expectSamePricing(Nest.evaluate(P, H, M), Old);
    expectSamePricing(Maestro.evaluate(P, H, M),
                      legacyref::multi::priceMultiProfile(P, H, OldMaestro));
    Legal += Old.Legal ? 1 : 0;
  }
  return Legal;
}

/// A problem of \p NumIters iterators, extent 2 on every eighth one and 1
/// elsewhere: one tensor reads the low half, one reads the high half
/// through two-term dimensions, and a read-write tensor spans the
/// highest iterator.
Problem wideProblem(unsigned NumIters) {
  std::vector<Iterator> Iters;
  for (unsigned I = 0; I < NumIters; ++I)
    Iters.push_back({"i" + std::to_string(I), I % 8 == 7 ? 2 : 1});
  Tensor Low{"Low", {}, false}, High{"High", {}, false}, Out{"Out", {}, true};
  for (unsigned I = 0; I < NumIters / 2; ++I)
    Low.Dims.push_back({{{I, 1}}});
  for (unsigned I = NumIters / 2; I < NumIters; ++I)
    High.Dims.push_back({{{I, 2}, {I - NumIters / 2, 1}}});
  Out.Dims.push_back({{{NumIters - 1, 1}, {NumIters - 9, 3}}});
  return Problem("wide", std::move(Iters), {Low, High, Out});
}

} // namespace

TEST(Equivalence, EvaluatorMatchesPreRewriteOnEveryLayerClass) {
  for (const Hierarchy &H : pinnedHierarchies()) {
    unsigned Legal = 0, Trials = 0;
    for (const ConvLayer &L : pinnedLayers()) {
      SCOPED_TRACE(L.Name + " on " + std::to_string(H.numLevels()) +
                   " levels");
      Legal += expectEvaluatorMatchesLegacy(makeConvProblem(L), H, 150, 17);
      Trials += 150;
    }
    // Both the legal pricing and the illegal-reason text are diffed.
    EXPECT_GT(Legal, 0u);
    EXPECT_LT(Legal, Trials);
  }
}

TEST(Equivalence, EvaluatorMatchesPreRewriteAtTheIteratorLimit) {
  // The iterator masks are 64-bit: iterator 63 is the last one a problem
  // may have, and its bit must count like any other.
  Problem P = wideProblem(MaxIterators);
  ASSERT_EQ(P.numIterators(), 64u);
  EXPECT_TRUE(P.tensorTerms()[1].uses(63));
  EXPECT_TRUE(P.tensorTerms()[2].uses(63));
  EXPECT_FALSE(P.tensorTerms()[0].uses(63));
  for (const Hierarchy &H : pinnedHierarchies())
    expectEvaluatorMatchesLegacy(P, H, 40, 23);
}

TEST(EquivalenceDeathTest, ProblemRejectsMoreThanMaxIterators) {
  EXPECT_DEATH(wideProblem(MaxIterators + 1), "at most MaxIterators");
}
