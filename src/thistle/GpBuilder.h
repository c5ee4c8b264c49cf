//===- thistle/GpBuilder.h - Assemble Eq. 3 / Eq. 5 programs ----*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the constrained geometric programs of the paper for one
/// choice of tile-loop permutations:
///
///  - dataflow optimization (Eq. 3): architecture parameters are fixed
///    constants, trip counts are the variables;
///  - architecture-dataflow co-design (Eq. 5): the register capacity R,
///    SRAM capacity S and PE count P become variables, the per-access
///    energies follow Eq. 4 (eps_R = sigma_R*R, eps_S = sigma_S*sqrt(S)),
///    and the linear area model bounds the total silicon area;
///  - either objective: energy (the Eq. 3 sum) or delay, where the
///    max-of-components delay is expressed with the standard epigraph
///    trick (minimize T subject to component/T <= 1).
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_THISTLE_GPBUILDER_H
#define THISTLE_THISTLE_GPBUILDER_H

#include "ir/Problem.h"
#include "model/TechModel.h"
#include "support/Status.h"
#include "nestmodel/Objective.h"
#include "solver/GpProblem.h"
#include "solver/GpSolver.h"
#include "thistle/ExprGen.h"

#include <array>
#include <vector>

namespace thistle {

/// Whether architecture parameters are variables.
enum class DesignMode {
  DataflowOnly, ///< Eq. 3: fixed architecture.
  CoDesign,     ///< Eq. 5: R, S, P variables under an area budget.
};

/// Stable lower-case token of a design mode ("dataflow" / "codesign").
const char *designModeName(DesignMode Mode);

/// Parses a design-mode token as printed by designModeName().
Expected<DesignMode> parseDesignMode(const std::string &Token);

/// How signomial halo factors (e.g. r_h + r_r - 1) are over-approximated
/// to stay within DGP.
enum class HaloBound {
  /// Drop the negative constant: r_h + r_r. Tight for large tiles, up to
  /// ~2x loose near the all-ones corner (can make tiny register files
  /// look infeasible).
  DropNegative,
  /// Product of the positive monomials: r_h * r_r. Exact whenever one
  /// side is 1 (the small-tile regime), loose for large tiles. Used as a
  /// fallback when DropNegative is infeasible.
  ProductOfTerms,
};

/// Everything needed to generate one GP.
struct GpBuildSpec {
  DesignMode Mode = DesignMode::DataflowOnly;
  SearchObjective Objective = SearchObjective::Energy;
  /// Outer-to-inner per-PE temporal permutation (tiled iterators only).
  std::vector<unsigned> PePerm;
  /// Outer-to-inner DRAM-level temporal permutation (tiled iterators only).
  std::vector<unsigned> DramPerm;
  /// Iterators allowed to be tiled temporally; all others (stencil dims
  /// r/s, extent-1 dims) keep trip count 1 at both temporal tile levels.
  std::vector<unsigned> TiledIters;
  /// When true, untiled iterators may still be *spatially* partitioned
  /// (r_it * p_it = N_it): Eyeriss-style row-stationary mapping of the
  /// kernel rows across the PE array. The paper's pruning only forbids
  /// temporal tiling of the stencil dims ("it is infeasible to divide
  /// them into a number of equal tiles"); spatial unrolling keeps whole
  /// rows per PE and is essential for the delay objective.
  bool SpatialUntiled = true;
  /// Over-approximation used for halo factors in the DGP.
  HaloBound Halo = HaloBound::DropNegative;
  /// Fixed architecture (DataflowOnly) / bandwidth source (CoDesign).
  ArchConfig Arch;
  TechParams Tech = TechParams::cgo45nm();
  /// Area budget for co-design (Eq. 5 right-hand side), in um^2.
  double AreaBudgetUm2 = 0.0;
};

/// The generated GP plus the variable handles needed for extraction.
struct GpBuild {
  GpProblem Gp;
  /// Trip-count variable per [level][iterator].
  std::array<std::vector<VarId>, NumTileLevels> TripVars;
  bool HasArchVars = false;
  VarId RegCapVar = 0;  ///< R (co-design only).
  VarId SramCapVar = 0; ///< S (co-design only).
  VarId NumPEVar = 0;   ///< P (co-design only).
  bool HasEpigraph = false;
  VarId EpigraphVar = 0; ///< T (delay objective only).
};

/// Validates the user-reachable parts of \p Spec against \p Prob before
/// any GP is generated: the co-design area budget must be positive and
/// finite, the fixed architecture (DataflowOnly) must have non-zero
/// capacities, the technology constants actually used must be positive,
/// and the permutations/tiled-iterator lists must reference real
/// iterators. buildGp requires a spec that passes this check.
Status validateGpBuildSpec(const Problem &Prob, const GpBuildSpec &Spec);

/// Builds the GP for \p Prob under \p Spec. \p Spec must satisfy
/// validateGpBuildSpec; a failing spec yields an unusable program
/// (e.g. infinite variable bounds), not a diagnostic.
GpBuild buildGp(const Problem &Prob, const GpBuildSpec &Spec);

/// The real (pre-rounding) solution in mapping terms.
struct RealSolution {
  /// Trips[i][l]: real trip count of iterator i at level l.
  std::vector<std::array<double, NumTileLevels>> Trips;
  double RegWords = 0.0;  ///< R (solved or fixed).
  double SramWords = 0.0; ///< S.
  double NumPEs = 0.0;    ///< P.
  double Objective = 0.0; ///< GP objective value (model estimate).
};

/// Extracts the real solution from a feasible \p Solution of \p Build.
RealSolution extractSolution(const Problem &Prob, const GpBuild &Build,
                             const GpBuildSpec &Spec,
                             const GpSolution &Solution);

} // namespace thistle

#endif // THISTLE_THISTLE_GPBUILDER_H
