//===- multilevel/MultiSim.h - L-level brute-force oracle -------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A brute-force simulator of the tiled loop nest on a hierarchy of any
/// depth (the paper's Fig. 1d / Fig. 3e): it walks every level's temporal
/// loops and the spatial PE grid step by step, maintaining per-tensor
/// buffer state, and counts the words actually moved across every
/// adjacent-level boundary. Used by the tests to validate
/// multilevel/MultiNestAnalysis; the classic paper machine is
/// Hierarchy::classic3Shape (boundary 0 = SRAM<->registers, boundary 1 =
/// DRAM<->SRAM).
///
/// Counting semantics (pinned in DESIGN.md, matching the paper's model):
///  - A tensor tile is the dense box spanned by its affine dimension
///    projections (halo holes from strides are not exploited). This
///    extends unchanged to dilated, transposed and grouped layers: a
///    dilated projection x*h + d*r leaves d-1 untouched rows between
///    kernel taps inside the box, and those holes are counted as moved —
///    by this oracle *and* by both analytical backends, so the
///    sim == nest == maestro integer equality holds per layer class
///    (docs/WORKLOADS.md pins the convention; SimTest pins the hole
///    counts on a dilated layer).
///  - Between consecutive steps of the same loop nest, words already in
///    the buffer are not reloaded. This reproduces both copy hoisting
///    (identical consecutive tiles move nothing) and the halo-union
///    ("replace") semantics of Algorithm 1 for the innermost present
///    iterator.
///  - On a tile change, the buffer retains only the new tile (single-tile
///    buffers); read-write tensors write back evicted words.
///  - At the boundary crossing the fan-out, only iterators present in a
///    tensor's reference multiply its traffic: PEs whose coordinates
///    differ only in absent iterators receive the same words via
///    multicast (reads) or combine them in a reduction tree (writes),
///    counted once (paper Eq. 2). Boundaries below the fan-out are
///    private per-PE traffic.
///  - Inner-level state is reset at outer-tile boundaries: the model is
///    per-level, exactly as Algorithm 1 multiplies all outer trip counts.
///
/// This is an executable specification: O(steps * tensors) time, intended
/// for small problem sizes in tests only.
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_MULTILEVEL_MULTISIM_H
#define THISTLE_MULTILEVEL_MULTISIM_H

#include "multilevel/MultiMapping.h"
#include "multilevel/MultiNestAnalysis.h"

#include <cstdint>
#include <vector>

namespace thistle {

/// Oracle counts per boundary b and tensor t, split by direction:
/// Loads[b][t] = words moved outer-to-inner (reads of level b+1),
/// Stores[b][t] = words written back inner-to-outer (read-write tensors
/// only), Words[b][t] = their sum.
struct MultiSimResult {
  std::vector<std::vector<std::int64_t>> Words;
  std::vector<std::vector<std::int64_t>> Loads;
  std::vector<std::vector<std::int64_t>> Stores;
};

/// Simulates \p Map on \p H; cost proportional to the total tile steps.
MultiSimResult simulateMultiNest(const Problem &Prob, const Hierarchy &H,
                                 const MultiMapping &Map);

/// Ground truth in the analytical MultiProfile shape: per-boundary words
/// from the executable walk, occupancy and PEs from the mapping geometry.
/// CostEvaluator backends are diffed against this field by field (the
/// exact-count fields must match every backend exactly; see
/// docs/EVALUATOR.md). Same cost caveat as simulateMultiNest.
MultiProfile simulateMultiNestProfile(const Problem &Prob, const Hierarchy &H,
                                      const MultiMapping &Map);

} // namespace thistle

#endif // THISTLE_MULTILEVEL_MULTISIM_H
