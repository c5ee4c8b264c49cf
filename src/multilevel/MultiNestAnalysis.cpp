//===- multilevel/MultiNestAnalysis.cpp - L-level analytical model --------===//

#include "multilevel/MultiNestAnalysis.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <string>
#include <utility>

using namespace thistle;

namespace {

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

} // namespace

std::int64_t MultiProfile::boundaryWords(unsigned B) const {
  std::int64_t Sum = 0;
  for (std::int64_t W : Words[B])
    Sum += W;
  return Sum;
}

MultiProfile thistle::analyzeMultiNest(const Problem &Prob,
                                       const Hierarchy &H,
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
      Map.tileExtentsPerLevel(H);
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

MultiEvalResult thistle::evaluateMultiMapping(const Problem &Prob,
                                              const Hierarchy &H,
                                              const MultiMapping &Map) {
  return priceMultiProfile(Prob, H, analyzeMultiNest(Prob, H, Map));
}

MultiEvalResult thistle::priceMultiProfile(const Problem &Prob,
                                           const Hierarchy &H,
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
