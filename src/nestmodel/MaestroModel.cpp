//===- nestmodel/MaestroModel.cpp - Data-centric cost backend -------------===//
//
// Counting by division instead of by traversal: the nest backend walks
// each level's loops and multiplies the trips that survive hoisting;
// this backend starts from the level's total iteration count and divides
// out each reuse class (stationary, streaming overlap, multicast). All
// divisions are exact by construction — the reuse factors are products
// of complementary trip subsets — so the backends agree integer for
// integer when both are correct, which is what makes the cross-check a
// real bug detector rather than a tolerance test.
//
//===----------------------------------------------------------------------===//

#include "nestmodel/MaestroModel.h"

#include <cassert>
#include <optional>

using namespace thistle;

namespace {

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

} // namespace

MultiProfile MaestroCostEvaluator::profile(const Problem &Prob,
                                           const Hierarchy &H,
                                           const MultiMapping &Map) const {
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
      Map.tileExtentsPerLevel(H);

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

const CostEvaluator &thistle::maestroCostEvaluator() {
  static const MaestroCostEvaluator Maestro;
  return Maestro;
}
