//===- multilevel/MultiMapping.h - L-level tiled mappings -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arbitrary-depth generalization of ir/Mapping: per iterator, one
/// trip count per temporal level plus one spatial trip count, and one
/// loop permutation per temporal level >= 1 (the loops of level l
/// enumerate level-(l-1) tiles). For a 3-level hierarchy with fan-out
/// below level 1 this is isomorphic to the fixed 4-level Mapping
/// (register = level-0 factors, PeTemporal = level-1, DramTemporal =
/// level-2), which the tests exploit for cross-validation.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_MULTILEVEL_MULTIMAPPING_H
#define THISTLE_MULTILEVEL_MULTIMAPPING_H

#include "ir/Mapping.h"
#include "ir/Problem.h"
#include "multilevel/Hierarchy.h"

#include <cstdint>
#include <string>
#include <vector>

namespace thistle {

/// A complete tiling of one Problem onto an L-level hierarchy.
struct MultiMapping {
  /// TempFactors[l][i]: trip count of iterator i at temporal level l
  /// (l = 0 is the innermost tile size). Size: numLevels x numIterators.
  std::vector<std::vector<std::int64_t>> TempFactors;
  /// Spatial trip count per iterator (the PE fan-out).
  std::vector<std::int64_t> SpatialFactors;
  /// Perms[l] for l >= 1: outer-to-inner iterator order of level l's
  /// loops. Perms[0] is unused (level-0 loops move no data) but must
  /// still be a valid permutation.
  std::vector<std::vector<unsigned>> Perms;

  unsigned numLevels() const { return TempFactors.size(); }

  /// Tile extents of level \p Level in hierarchy \p H: the data tile
  /// resident in a level-L buffer spans prod_{k<=L} t_k per iterator,
  /// times the spatial factor for shared levels (>= H.FanoutLevel).
  std::vector<std::int64_t> tileExtents(const Hierarchy &H,
                                        unsigned Level) const;

  /// tileExtents(H, l) for every level l, built in one cumulative pass
  /// (the evaluators' per-call setup).
  std::vector<std::vector<std::int64_t>>
  tileExtentsPerLevel(const Hierarchy &H) const;

  /// Per-PE slice extents of the first shared level (the step size of a
  /// PE's spatial coordinate).
  std::vector<std::int64_t> sliceExtents(const Hierarchy &H) const;

  std::int64_t numPEsUsed() const;

  /// Empty string if consistent with \p Prob and \p H.
  std::string validate(const Problem &Prob, const Hierarchy &H) const;

  /// Everything at level 0, identity permutations.
  static MultiMapping untiled(const Problem &Prob, unsigned NumLevels);

  /// Lifts a fixed 4-level Mapping onto a 3-level hierarchy (register /
  /// first shared / outer): level-0 = register factors, level-1 =
  /// PeTemporal, level-2 = DramTemporal, spatial = spatial.
  static MultiMapping fromMapping(const Problem &Prob, const Mapping &Map);

  /// The inverse of fromMapping; requires numLevels() == 3.
  Mapping toMapping() const;
};

} // namespace thistle

#endif // THISTLE_MULTILEVEL_MULTIMAPPING_H
