//===- multilevel/MultiSim.cpp - L-level brute-force oracle ---------------===//

#include "multilevel/MultiSim.h"

#include "multilevel/TileWalk.h"

#include <cassert>
#include <utility>

using namespace thistle;
using namespace thistle::simdetail;

namespace {

/// One loop of the flattened enclosing nest: which iterator it advances
/// and by how many data points per step.
struct OuterLoop {
  unsigned Iter;
  std::int64_t Trip;
  std::int64_t Step;
};

} // namespace

MultiSimResult thistle::simulateMultiNest(const Problem &Prob,
                                          const Hierarchy &H,
                                          const MultiMapping &Map) {
  assert(H.validate().empty() && "hierarchy must validate");
  assert(Map.validate(Prob, H).empty() && "mapping must validate");
  const unsigned NumIters = Prob.numIterators();
  const unsigned L = H.numLevels();
  const unsigned F = H.FanoutLevel;
  const std::vector<std::int64_t> Slice = Map.sliceExtents(H);

  MultiSimResult Result;
  Result.Words.assign(H.numBoundaries(),
                      std::vector<std::int64_t>(Prob.tensors().size(), 0));
  Result.Loads = Result.Words;
  Result.Stores = Result.Words;

  for (std::size_t TI = 0; TI < Prob.tensors().size(); ++TI) {
    const Tensor &T = Prob.tensors()[TI];
    for (unsigned B = 0; B < H.numBoundaries(); ++B) {
      const unsigned WalkLevel = B + 1;
      const std::vector<std::int64_t> StartExt = Map.tileExtents(H, B);

      // Flatten the enclosing temporal levels, outermost level first.
      std::vector<OuterLoop> Outer;
      for (unsigned Lv = L; Lv > WalkLevel + 1;) {
        --Lv;
        std::vector<std::int64_t> StepExt = Map.tileExtents(H, Lv - 1);
        for (unsigned It : Map.Perms[Lv])
          Outer.push_back({It, Map.TempFactors[Lv][It], StepExt[It]});
      }
      std::vector<std::int64_t> OuterTrips;
      for (const OuterLoop &O : Outer)
        OuterTrips.push_back(O.Trip);

      // Spatial handling (see MultiNestAnalysis header): private
      // boundaries replicate per PE; the fan-out boundary enumerates
      // distinct (present-iterator) slices; shared boundaries carry
      // grid-wide tiles.
      std::vector<unsigned> SpatialIters;
      std::vector<std::int64_t> SpatialTrips;
      std::int64_t Replication = 1;
      if (WalkLevel == F) {
        for (unsigned I = 0; I < NumIters; ++I)
          if (T.usesIter(I)) {
            SpatialIters.push_back(I);
            SpatialTrips.push_back(Map.SpatialFactors[I]);
          }
      } else if (WalkLevel < F) {
        // Each PE performs identical (translated) traffic.
        Replication = Map.numPEsUsed();
      }

      // Trips of the walked level, in its permutation order.
      std::vector<std::int64_t> WalkTrips;
      for (unsigned It : Map.Perms[WalkLevel])
        WalkTrips.push_back(Map.TempFactors[WalkLevel][It]);

      std::int64_t TotalLoads = 0, TotalStores = 0;
      forEachStep(OuterTrips, [&](const std::vector<std::int64_t> &OIdx,
                                  std::size_t) {
        std::vector<std::int64_t> BaseOrigins(NumIters, 0);
        for (std::size_t Pos = 0; Pos < Outer.size(); ++Pos)
          BaseOrigins[Outer[Pos].Iter] += OIdx[Pos] * Outer[Pos].Step;

        forEachStep(SpatialTrips, [&](const std::vector<std::int64_t> &SIdx,
                                      std::size_t) {
          std::vector<std::int64_t> Origins = BaseOrigins;
          for (std::size_t K = 0; K < SpatialIters.size(); ++K)
            Origins[SpatialIters[K]] += SIdx[K] * Slice[SpatialIters[K]];

          BufferTracker Buf(T.ReadWrite);
          forEachStep(WalkTrips, [&](const std::vector<std::int64_t> &WIdx,
                                     std::size_t AdvancedPos) {
            std::vector<std::int64_t> TileOrigins = Origins;
            for (std::size_t Pos = 0; Pos < Map.Perms[WalkLevel].size();
                 ++Pos) {
              unsigned It = Map.Perms[WalkLevel][Pos];
              TileOrigins[It] += WIdx[Pos] * StartExt[It];
            }
            bool Continuous =
                AdvancedPos >= WalkTrips.size() ||
                isContinuousAdvance(T, Map.Perms[WalkLevel], WalkTrips,
                                    AdvancedPos);
            Buf.step(tileBox(T, TileOrigins, StartExt), Continuous);
          });
          Buf.finish();
          TotalLoads += Buf.loads();
          TotalStores += Buf.stores();
        });
      });
      Result.Loads[B][TI] = TotalLoads * Replication;
      Result.Stores[B][TI] = TotalStores * Replication;
      Result.Words[B][TI] = Result.Loads[B][TI] + Result.Stores[B][TI];
    }
  }
  return Result;
}

MultiProfile thistle::simulateMultiNestProfile(const Problem &Prob,
                                               const Hierarchy &H,
                                               const MultiMapping &Map) {
  MultiSimResult Sim = simulateMultiNest(Prob, H, Map);
  MultiProfile Profile;
  Profile.Words = std::move(Sim.Words);
  Profile.Occupancy.assign(H.numLevels(), 0);
  for (unsigned Lv = 0; Lv < H.numLevels(); ++Lv) {
    std::vector<std::int64_t> Extents = Map.tileExtents(H, Lv);
    for (const Tensor &T : Prob.tensors())
      Profile.Occupancy[Lv] += T.footprintWords(Extents);
  }
  Profile.PEsUsed = Map.numPEsUsed();
  return Profile;
}
