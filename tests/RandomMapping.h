//===- tests/RandomMapping.h - Random valid mappings ------------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The random mapping the analytical-model tests diff their counts on:
/// every iterator's extent split into a divisor chain over the temporal
/// levels plus a spatial factor, and a shuffled loop order at every level
/// above the innermost.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_TESTS_RANDOMMAPPING_H
#define THISTLE_TESTS_RANDOMMAPPING_H

#include "multilevel/MultiMapping.h"
#include "support/MathUtil.h"
#include "support/Rng.h"

#include <vector>

namespace thistle {

/// Random valid MultiMapping by hierarchical divisor sampling.
inline MultiMapping randomMultiMapping(const Problem &P, unsigned NumLevels,
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

} // namespace thistle

#endif // THISTLE_TESTS_RANDOMMAPPING_H
