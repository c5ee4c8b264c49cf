//===- thistle/ExprGen.h - Algorithm 1: symbolic DF/DV ----------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's Algorithm 1: the compile-time generation of
/// symbolic data-footprint (DF) and data-volume (DV) expressions for each
/// tensor at each tiling level, as functions of per-level trip-count
/// variables. Trip counts are named after the paper's convention
/// (section III): r_<it> at the register level, q_<it> at the per-PE
/// temporal level, p_<it> at the spatial level and s_<it> at the
/// DRAM-temporal level, with N_<it> = s*p*q*r.
///
/// The register-level footprint DF^0 handles strided multi-iterator
/// references: a dimension indexed by sum_t stride_t * it_t has symbolic
/// extent sum_t stride_t * r_t - (sum_t stride_t - 1), e.g. In's last
/// dimension (2*w + s) yields 2*r_w + r_s - 2 (section III-A).
///
/// Read-write tensors carry the paper's factor 2 in their DV (both read
/// and write traffic, Table I).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_EXPRGEN_H
#define THISTLE_THISTLE_EXPRGEN_H

#include "expr/FactoredExpr.h"
#include "ir/Mapping.h"
#include "ir/Problem.h"

#include <array>
#include <functional>
#include <vector>

namespace thistle {

/// The DF/DV pair produced by one run of Algorithm 1.
struct LevelExprs {
  FactoredExpr DF; ///< Data footprint at this tiling level.
  FactoredExpr DV; ///< Data access volume for copies into this level.
};

/// All symbolic expressions the GP builder needs for one tensor, for one
/// (per-PE permutation, DRAM permutation) choice.
struct TensorSymbolicModel {
  FactoredExpr RegFootprint;  ///< DF^0 over r_* variables.
  FactoredExpr SramFootprint; ///< SRAM-tile footprint (r, q, p variables).
  /// SRAM<->register volume: Algorithm 1 at the per-PE level, multiplied
  /// by present spatial trip counts (multicast collapse, Eq. 2) and by
  /// every DRAM-level trip count. Includes the factor 2 for read-write.
  FactoredExpr DvSramReg;
  /// DRAM<->SRAM volume: Algorithm 1 at the DRAM level starting from the
  /// SRAM footprint. Includes the factor 2 for read-write.
  FactoredExpr DvDram;
};

/// Generates trip-count variables and runs Algorithm 1.
class ExprGen {
public:
  /// Interns all trip-count variables for \p Prob into \p Vars.
  ExprGen(const Problem &Prob, VarTable &Vars);

  /// The trip-count variable of \p Iter at \p Level.
  VarId tripVar(TileLevel Level, unsigned Iter) const {
    return TripVars[static_cast<unsigned>(Level)][Iter];
  }

  /// Variable name, e.g. "q_h" (the paper's notation).
  static std::string tripVarName(TileLevel Level, const std::string &Iter);

  /// DF^0: the register-level footprint of tensor \p TensorIdx.
  FactoredExpr registerFootprint(unsigned TensorIdx) const;

  /// Observer invoked after processing each loop of Algorithm 1's walk
  /// (used to reproduce Table I step by step).
  using StepObserver =
      std::function<void(unsigned Iter, const LevelExprs &State)>;

  /// The innermost-level footprint of \p T over the trip-count variables
  /// \p Vars (indexed by iterator), with the strided-extent arithmetic
  /// of the file comment. registerFootprint and the multilevel GP
  /// (multilevel/MultiGp) both build DF^0 with it.
  static FactoredExpr levelZeroFootprint(const Tensor &T,
                                         const std::vector<VarId> &Vars);

  /// Algorithm 1's walk of one temporal level of any hierarchy, for
  /// tensor \p T: \p Perm is the outer-to-inner order of the level's tile
  /// loops, \p LevelVars and \p PrevVars the trip-count variables of
  /// this level and of the level below (indexed by iterator), \p DfPrev
  /// the footprint at the level below. The replace() step substitutes
  /// PrevVars[i] with LevelVars[i] * PrevVars[i].
  static LevelExprs walkLevel(const Tensor &T,
                              const std::vector<unsigned> &Perm,
                              const std::vector<VarId> &LevelVars,
                              const std::vector<VarId> &PrevVars,
                              const FactoredExpr &DfPrev,
                              const StepObserver &Observer = nullptr);

  /// Algorithm 1 for tensor \p TensorIdx at temporal level \p Level:
  /// walkLevel over this level's variables and those of the tiling level
  /// immediately below (the q level substitutes r, the DRAM level
  /// substitutes p). \p Perm holds tiled iterators only.
  LevelExprs constructExpr(unsigned TensorIdx,
                           const std::vector<unsigned> &Perm, TileLevel Level,
                           const FactoredExpr &DfPrev,
                           const StepObserver &Observer = nullptr) const;

  /// Lifts a footprint across the spatial level: present iterators get
  /// their q variable replaced by p*q (the SRAM tile spans the PE grid).
  FactoredExpr spatialFootprint(unsigned TensorIdx,
                                const FactoredExpr &DfPe) const;

  /// Builds the full symbolic model of one tensor for the given per-PE
  /// and DRAM-level permutations (outer-to-inner, tiled iterators only;
  /// iterators not listed are untiled at that level).
  TensorSymbolicModel buildTensorModel(unsigned TensorIdx,
                                       const std::vector<unsigned> &PePerm,
                                       const std::vector<unsigned> &DramPerm)
      const;

  const Problem &problem() const { return Prob; }

private:
  const Problem &Prob;
  VarTable &Vars;
  std::array<std::vector<VarId>, NumTileLevels> TripVars;
};

} // namespace thistle

#endif // THISTLE_THISTLE_EXPRGEN_H
