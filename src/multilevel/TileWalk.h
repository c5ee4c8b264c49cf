//===- multilevel/TileWalk.h - Shared tile-walking machinery ----*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Building blocks shared by the brute-force data-movement oracle
/// (multilevel/MultiSim) and the generated-code interpreter
/// (codegen/TiledNest): dense coordinate boxes, the streaming buffer
/// tracker with contiguous-advance reuse semantics, and a generic
/// odometer. These live in thistle::simdetail — they are implementation
/// details of the oracles, not public API.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_MULTILEVEL_TILEWALK_H
#define THISTLE_MULTILEVEL_TILEWALK_H

#include "ir/Problem.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace thistle::simdetail {

/// A dense per-dimension coordinate box (inclusive ranges) in a tensor's
/// data space.
struct Box {
  std::vector<std::pair<std::int64_t, std::int64_t>> Ranges;

  bool operator==(const Box &Other) const = default;
};

inline std::int64_t boxWords(const Box &B) {
  std::int64_t Words = 1;
  for (const auto &[Lo, Hi] : B.Ranges)
    Words *= (Hi - Lo + 1);
  return Words;
}

inline std::int64_t intersectionWords(const Box &A, const Box &B) {
  assert(A.Ranges.size() == B.Ranges.size() && "box rank mismatch");
  std::int64_t Words = 1;
  for (std::size_t D = 0; D < A.Ranges.size(); ++D) {
    std::int64_t Lo = std::max(A.Ranges[D].first, B.Ranges[D].first);
    std::int64_t Hi = std::min(A.Ranges[D].second, B.Ranges[D].second);
    if (Lo > Hi)
      return 0;
    Words *= (Hi - Lo + 1);
  }
  return Words;
}

/// The dense box spanned by \p T when iterator i ranges over
/// [Origins[i], Origins[i] + Extents[i]).
///
/// "Dense" is the model's counting convention, not an approximation bug
/// (DESIGN.md, docs/WORKLOADS.md): each dimension's range is the *bounding
/// interval* of its affine projection. For a multi-term projection
/// x*h + d*r with x > 1 or d > 1 (strided or dilated layers), interior
/// positions no (h, r) combination actually touches — the "halo holes" —
/// are still counted as resident and transferred. The analytical nest and
/// maestro backends count the same dense boxes (MultiNestAnalysis's
/// footprint/union words and MaestroModel's delivered-words recurrence),
/// which is exactly why all three agree to the integer on dilated,
/// transposed and grouped layers; an exact point-count here would break
/// that equality for every strided layer already in Table II.
inline Box tileBox(const Tensor &T, const std::vector<std::int64_t> &Origins,
                   const std::vector<std::int64_t> &Extents) {
  Box B;
  B.Ranges.reserve(T.Dims.size());
  for (const DimRef &D : T.Dims) {
    std::int64_t Lo = 0, Hi = 0;
    for (const DimRef::Term &Term : D.Terms) {
      assert(Term.Stride > 0 && "projection strides must be positive");
      assert(Extents[Term.Iter] >= 1 && "tile extents must be positive");
      Lo += Term.Stride * Origins[Term.Iter];
      Hi += Term.Stride * (Origins[Term.Iter] + Extents[Term.Iter] - 1);
    }
    B.Ranges.push_back({Lo, Hi});
  }
  return B;
}

/// Tracks one tensor's buffer at one level.
///
/// A streaming buffer retains its previous tile only across a
/// *contiguous* advance — the step incremented one loop by +1 (loops
/// below it wrapping to zero) and no loop affecting this tensor's tile
/// wrapped. On a contiguous advance the newly needed words are
/// |new| - |new /\ prev| (halo/identity reuse: this yields both copy
/// hoisting and the streaming-union "replace" of Algorithm 1); any other
/// step flushes and reloads the full tile. Read-write tensors write
/// evicted words back and flush at the end.
class BufferTracker {
public:
  explicit BufferTracker(bool ReadWrite) : ReadWrite(ReadWrite) {}

  void step(const Box &NewTile, bool ContinuousAdvance) {
    if (!Prev) {
      Loads += boxWords(NewTile);
      Prev = NewTile;
      return;
    }
    std::int64_t Shared =
        ContinuousAdvance ? intersectionWords(*Prev, NewTile) : 0;
    Loads += boxWords(NewTile) - Shared;
    if (ReadWrite)
      Stores += boxWords(*Prev) - Shared;
    Prev = NewTile;
  }

  /// Flushes the final tile (read-write tensors write it back).
  void finish() {
    if (ReadWrite && Prev)
      Stores += boxWords(*Prev);
    Prev.reset();
  }

  std::int64_t loads() const { return Loads; }
  std::int64_t stores() const { return Stores; }

private:
  bool ReadWrite;
  std::optional<Box> Prev;
  std::int64_t Loads = 0;
  std::int64_t Stores = 0;
};

/// Odometer over the trip counts \p Trips (outer-to-inner as given).
/// Invokes Body(Idx, AdvancedPos) for every step; AdvancedPos is the
/// position that incremented by +1 (every position after it wrapped to
/// zero), or Trips.size() for the very first step.
template <typename Fn>
void forEachStep(const std::vector<std::int64_t> &Trips, Fn Body) {
  std::vector<std::int64_t> Idx(Trips.size(), 0);
  std::size_t AdvancedPos = Trips.size();
  while (true) {
    Body(Idx, AdvancedPos);
    std::size_t Pos = Trips.size();
    bool Advanced = false;
    while (Pos > 0) {
      --Pos;
      if (++Idx[Pos] < Trips[Pos]) {
        AdvancedPos = Pos;
        Advanced = true;
        break;
      }
      Idx[Pos] = 0;
    }
    if (!Advanced)
      return;
  }
}

/// True if the step (advance at \p AdvancedPos) is a contiguous advance
/// for tensor \p T: no loop *below* the advanced one that affects T's
/// tile (present iterator with trip > 1) wrapped around.
inline bool isContinuousAdvance(const Tensor &T,
                                const std::vector<unsigned> &Perm,
                                const std::vector<std::int64_t> &Trips,
                                std::size_t AdvancedPos) {
  for (std::size_t Pos = AdvancedPos + 1; Pos < Perm.size(); ++Pos)
    if (Trips[Pos] > 1 && T.usesIter(Perm[Pos]))
      return false;
  return true;
}

} // namespace thistle::simdetail

#endif // THISTLE_MULTILEVEL_TILEWALK_H
