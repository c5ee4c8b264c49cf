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

#include <algorithm>
#include <cassert>

using namespace thistle;

namespace {

/// "No streaming iterator" in a StreamInfo.
constexpr unsigned NoIter = ~0u;

/// The streaming iterator of tensor \p T at one level: the
/// innermost-positioned iterator in \p Perm (outer-to-inner order) that
/// the tensor uses and that actually iterates (trip > 1). Data-centric
/// reading: everything inner to it is tensor-irrelevant, so the tile is
/// stationary across those loops; along it the tile slides and only halo
/// words are new.
struct StreamInfo {
  unsigned Iter = NoIter;
  std::int64_t Trip = 1;
  /// Product of the trips of the loops inner to the streaming one — the
  /// tensor's stationary (temporal) reuse at this level. When no
  /// streaming iterator exists this is the whole level's trip product.
  std::int64_t StationaryReuse = 1;
};

StreamInfo findStream(const TensorTerms &T, const std::vector<unsigned> &Perm,
                      const std::vector<std::int64_t> &Trips) {
  StreamInfo Info;
  for (std::size_t Pos = Perm.size(); Pos > 0; --Pos) {
    unsigned It = Perm[Pos - 1];
    if (Trips[It] <= 1)
      continue;
    if (T.uses(It)) {
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
std::int64_t streamedSequenceWords(const TensorTerms &T,
                                   const std::int64_t *Extents,
                                   const StreamInfo &Stream) {
  std::int64_t Words = 1;
  std::int64_t Box = 1;
  // Stride of the dimension's last term on the streaming iterator.
  std::int64_t Stride = 0;
  bool Streams = false;
  for (const FlatTerm &Term : T.Terms) {
    Box += Term.Stride * (Extents[Term.Iter] - 1);
    if (Term.Iter == Stream.Iter) {
      Streams = true;
      Stride = Term.Stride;
    }
    if (!Term.LastInDim)
      continue;
    std::int64_t Delivered = Box;
    if (Streams) {
      // Consecutive tiles are shifted by Stride * tile points; the
      // overlap is whatever the shift leaves of the box.
      std::int64_t Shift = Stride * Extents[Stream.Iter];
      std::int64_t Overlap = std::max<std::int64_t>(0, Box - Shift);
      Delivered = Stream.Trip * Box - (Stream.Trip - 1) * Overlap;
    }
    Words *= Delivered;
    Box = 1;
    Streams = false;
  }
  return Words;
}

} // namespace

MultiProfile MaestroCostEvaluator::profile(const Problem &Prob,
                                           const Hierarchy &H,
                                           const MultiMapping &Map) const {
  assert(Map.evaluable(Prob, H) && "hierarchy and mapping must validate");
  const unsigned NumIters = Prob.numIterators();
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;
  const std::vector<TensorTerms> &Tensors = Prob.tensorTerms();

  // As in the nest walk, the returned profile is the only allocation:
  // levels are visited inner to outer with their tile extents built in
  // a fixed array.
  MultiProfile Profile;
  Profile.Words.resize(H.numBoundaries());
  for (std::vector<std::int64_t> &BoundaryWords : Profile.Words)
    BoundaryWords.resize(Tensors.size());
  Profile.Occupancy.assign(L, 0);
  Profile.PEsUsed = Map.numPEsUsed();
  const std::int64_t AllSpatialTrips = Profile.PEsUsed;

  // The mapping's whole temporal iteration count; divided by the trips
  // of the levels up to a walked one it leaves the enclosing-iteration
  // count of that level's sequences (exact: integer products of the
  // same factors).
  std::int64_t AllTrips = 1;
  for (unsigned Lv = 0; Lv < L; ++Lv)
    for (unsigned I = 0; I < NumIters; ++I)
      AllTrips *= Map.TempFactors[Lv][I];

  std::int64_t Extents[MaxIterators];
  std::fill_n(Extents, NumIters, 1);
  std::int64_t TripsThrough = 1; // Every trip of levels <= Lv.
  for (unsigned Lv = 0; Lv < L; ++Lv) {
    for (unsigned I = 0; I < NumIters; ++I) {
      Extents[I] *= Map.TempFactors[Lv][I];
      if (Lv == F)
        Extents[I] *= Map.SpatialFactors[I];
      TripsThrough *= Map.TempFactors[Lv][I];
    }
    for (const TensorTerms &T : Tensors)
      Profile.Occupancy[Lv] += T.footprintWords(Extents);
    if (Lv + 1 == L)
      break;

    // Boundary Lv is fed by the sequences of level Lv + 1.
    const unsigned WalkLevel = Lv + 1;
    std::int64_t LevelTrips = 1;
    for (unsigned I = 0; I < NumIters; ++I)
      LevelTrips *= Map.TempFactors[WalkLevel][I];
    const std::int64_t EnclosingTrips =
        AllTrips / (TripsThrough * LevelTrips);

    for (std::size_t TI = 0; TI < Tensors.size(); ++TI) {
      const TensorTerms &T = Tensors[TI];
      StreamInfo Stream = findStream(T, Map.Perms[WalkLevel],
                                     Map.TempFactors[WalkLevel]);

      // Sequences delivered at this level: the level's full iteration
      // count divided by the stationary reuse and by the steps already
      // inside one streamed sequence. Exact: StationaryReuse and
      // Stream.Trip are trip products of disjoint loop subsets.
      assert(LevelTrips % (Stream.StationaryReuse * Stream.Trip) == 0 &&
             "reuse factors must divide the level trip product");
      std::int64_t Sequences =
          LevelTrips / (Stream.StationaryReuse * Stream.Trip);

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
          if (!T.uses(I))
            MulticastReuse *= Map.SpatialFactors[I];
        assert(AllSpatialTrips % MulticastReuse == 0 &&
               "multicast reuse must divide the spatial trip product");
        SpatialMult = AllSpatialTrips / MulticastReuse;
      }

      std::int64_t Volume = Sequences * EnclosingTrips * SpatialMult *
                            streamedSequenceWords(T, Extents, Stream);
      if (Prob.tensors()[TI].ReadWrite)
        Volume *= 2;
      Profile.Words[Lv][TI] = Volume;
    }
  }
  return Profile;
}

const CostEvaluator &thistle::maestroCostEvaluator() {
  static const MaestroCostEvaluator Maestro;
  return Maestro;
}
