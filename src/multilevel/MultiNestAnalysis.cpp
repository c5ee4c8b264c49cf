//===- multilevel/MultiNestAnalysis.cpp - L-level analytical model --------===//

#include "multilevel/MultiNestAnalysis.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <utility>

using namespace thistle;

namespace {

/// One level's loops in position space (outer to inner), shared by every
/// tensor's walk of that level.
struct LevelLoops {
  const std::vector<unsigned> *Perm = nullptr;
  const std::vector<std::int64_t> *Trips = nullptr;
  /// Bit p set iff the loop at position p iterates (trip > 1).
  std::uint64_t Iterating = 0;
  /// TripsOuterTo[p]: product of the trips of the loops outer to p.
  std::int64_t TripsOuterTo[MaxIterators];

  LevelLoops(const std::vector<unsigned> &LevelPerm,
             const std::vector<std::int64_t> &LevelTrips)
      : Perm(&LevelPerm), Trips(&LevelTrips) {
    std::int64_t Outer = 1;
    for (std::size_t Pos = 0; Pos < LevelPerm.size(); ++Pos) {
      std::int64_t Trip = LevelTrips[LevelPerm[Pos]];
      TripsOuterTo[Pos] = Outer;
      Outer *= Trip;
      Iterating |= std::uint64_t{Trip > 1} << Pos;
    }
  }
};

/// Result of the Algorithm-1 walk of one level for one tensor, over
/// concrete trip counts. With no streaming iterator, StreamTrip is 1, so
/// the streaming union adds nothing whatever StreamIter names.
struct LevelWalk {
  std::int64_t Multiplier = 1;
  unsigned StreamIter = 0;
  std::int64_t StreamTrip = 1;
};

/// Walks \p Loops inner to outer for \p T: loops the tensor does not use
/// hoist its copy until the first iterating loop it uses (the streaming
/// one); every loop outer to that multiplies the traffic. Computed
/// without branching on the mapping: the streaming loop is the innermost
/// iterating position whose iterator the tensor uses.
LevelWalk walkLevel(const TensorTerms &T, const LevelLoops &Loops) {
  const std::vector<unsigned> &Perm = *Loops.Perm;
  std::uint64_t UsedAt = 0; // Bit p set iff T uses Perm[p].
  for (std::size_t Pos = 0; Pos < Perm.size(); ++Pos)
    UsedAt |= ((T.IterMask >> Perm[Pos]) & 1u) << Pos;
  LevelWalk Walk;
  if (std::uint64_t Streaming = UsedAt & Loops.Iterating) {
    unsigned Pos = 63 - std::countl_zero(Streaming);
    Walk.Multiplier = Loops.TripsOuterTo[Pos];
    Walk.StreamIter = Perm[Pos];
    Walk.StreamTrip = (*Loops.Trips)[Walk.StreamIter];
  }
  return Walk;
}

/// A tensor's tile at one level: its footprint, and the exact union of
/// Walk.StreamTrip consecutive tiles along the streaming iterator (each
/// step adds min(E, shift) to every dimension that uses it; shift is 0
/// in the others).
struct TileWords {
  std::int64_t Footprint = 1;
  std::int64_t Union = 1;
};

TileWords tileWords(const TensorTerms &T, const std::int64_t *Extents,
                    const LevelWalk &Walk) {
  TileWords Out;
  const std::int64_t StreamExtent = Extents[Walk.StreamIter];
  std::int64_t DimExtent = 1;
  // Stride of the dimension's last term on the streaming iterator.
  std::int64_t StreamStride = 0;
  for (const FlatTerm &Term : T.Terms) {
    DimExtent += Term.Stride * (Extents[Term.Iter] - 1);
    StreamStride = Term.Iter == Walk.StreamIter ? Term.Stride : StreamStride;
    if (!Term.LastInDim)
      continue;
    Out.Footprint *= DimExtent;
    Out.Union *= DimExtent + (Walk.StreamTrip - 1) *
                                 std::min(DimExtent,
                                          StreamStride * StreamExtent);
    DimExtent = 1;
    StreamStride = 0;
  }
  return Out;
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
  assert(Map.evaluable(Prob, H) && "hierarchy and mapping must validate");
  const unsigned NumIters = Prob.numIterators();
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;
  const std::vector<TensorTerms> &Tensors = Prob.tensorTerms();

  // The returned profile is the only allocation: the walk keeps its
  // per-iterator state in fixed arrays and visits the levels inner to
  // outer, building each level's tile extents from the one below.
  MultiProfile Profile;
  Profile.Words.resize(H.numBoundaries());
  for (std::vector<std::int64_t> &BoundaryWords : Profile.Words)
    BoundaryWords.resize(Tensors.size());
  Profile.Occupancy.assign(L, 0);
  Profile.PEsUsed = Map.numPEsUsed();

  // Level Lv's tile extents. Entry 0 is set even for a problem without
  // iterators: a walk with no streaming iterator reads it (and adds 0).
  std::int64_t Extents[MaxIterators];
  std::fill_n(Extents, std::max(NumIters, 1u), 1);
  for (unsigned Lv = 0; Lv < L; ++Lv) {
    for (unsigned I = 0; I < NumIters; ++I) {
      Extents[I] *= Map.TempFactors[Lv][I];
      if (Lv == F)
        Extents[I] *= Map.SpatialFactors[I];
    }
    if (Lv + 1 == L) {
      // The outermost level bounds no boundary: occupancy only.
      for (const TensorTerms &T : Tensors)
        Profile.Occupancy[Lv] += T.footprintWords(Extents);
      break;
    }

    // Boundary Lv is crossed by the loops of level Lv + 1.
    const unsigned WalkLevel = Lv + 1;
    const LevelLoops Loops(Map.Perms[WalkLevel], Map.TempFactors[WalkLevel]);
    // Every trip count of the levels above the walked one.
    std::int64_t OuterTrips = 1;
    for (unsigned Up = WalkLevel + 1; Up < L; ++Up)
      for (unsigned I = 0; I < NumIters; ++I)
        OuterTrips *= Map.TempFactors[Up][I];

    for (std::size_t TI = 0; TI < Tensors.size(); ++TI) {
      const TensorTerms &T = Tensors[TI];
      LevelWalk Walk = walkLevel(T, Loops);

      std::int64_t M = Walk.Multiplier * OuterTrips;
      // Spatial contribution (see file header).
      if (WalkLevel < F) {
        M *= Profile.PEsUsed;
      } else if (WalkLevel == F) {
        for (unsigned I = 0; I < NumIters; ++I)
          M *= T.uses(I) ? Map.SpatialFactors[I] : 1;
      }

      TileWords Tile = tileWords(T, Extents, Walk);
      std::int64_t Volume = M * Tile.Union;
      if (Prob.tensors()[TI].ReadWrite)
        Volume *= 2;
      Profile.Words[Lv][TI] = Volume;
      Profile.Occupancy[Lv] += Tile.Footprint;
    }
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

  // Energy, Eq. 3 generalized: the MAC term (register accesses ride every
  // operation), then each level priced over the words crossing its two
  // adjacent boundaries (W_{-1} = W_{L-1} = 0). Grouping by level (not by
  // boundary) keeps the floating-point sum identical to the fixed-depth
  // Eq. 3 components. Delay (section V-B): compute bound plus each
  // level's bandwidth over the same words; private levels have one
  // instance per used PE.
  Result.MacEnergyPj =
      (4.0 * H.Levels[0].AccessEnergyPj + H.MacEnergyPj) * Nops;
  Result.ComputeCycles = Nops / static_cast<double>(P.PEsUsed);
  Result.EnergyPerLevelPj.assign(L, 0.0);
  Result.CyclesPerLevel.assign(L, 0.0);
  double Energy = Result.MacEnergyPj;
  double Cycles = Result.ComputeCycles;
  double Below = 0.0; // W_{Lv-1}, as a double.
  for (unsigned Lv = 0; Lv < L; ++Lv) {
    const double Above =
        Lv < H.numBoundaries() ? static_cast<double>(P.boundaryWords(Lv))
                               : 0.0;
    const double Words = Below + Above;
    Result.EnergyPerLevelPj[Lv] = H.Levels[Lv].AccessEnergyPj * Words;
    Energy += Result.EnergyPerLevelPj[Lv];
    if (Lv > 0) {
      double Instances =
          Lv < H.FanoutLevel ? static_cast<double>(P.PEsUsed) : 1.0;
      Result.CyclesPerLevel[Lv] =
          Words / (H.Levels[Lv].Bandwidth * Instances);
      Cycles = std::max(Cycles, Result.CyclesPerLevel[Lv]);
    }
    Below = Above;
  }
  Result.EnergyPj = Energy;
  Result.EnergyPerMacPj = Energy / Nops;
  Result.Cycles = std::max(Cycles, 1.0);
  Result.MacIpc = Nops / Result.Cycles;
  Result.EdpPjCycles = Result.EnergyPj * Result.Cycles;
  return Result;
}
