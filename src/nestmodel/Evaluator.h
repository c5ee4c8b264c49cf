//===- nestmodel/Evaluator.h - Energy/delay evaluation ----------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's metrics of one design on the classic register/SRAM/DRAM
/// machine: total energy with the Eq. 3 decomposition (MAC + register +
/// SRAM + DRAM components), delay in cycles as the maximum over the
/// compute / DRAM-bandwidth / SRAM-bandwidth components (section V-B),
/// pJ/MAC and MAC IPC, plus legality against an ArchConfig (register/SRAM
/// capacity, PE count). The numbers come from the hierarchy-generic
/// evaluator (multilevel/MultiNestAnalysis) run at
/// Hierarchy::classic3Level; this header only names its components. This
/// plays the role Timeloop's model plays in the paper: "the final
/// reported energy/performance metrics are based on [the model's]
/// simulation ... and not on Thistle's estimation".
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_NESTMODEL_EVALUATOR_H
#define THISTLE_NESTMODEL_EVALUATOR_H

#include "model/TechModel.h"
#include "multilevel/MultiNestAnalysis.h"
#include "nestmodel/Objective.h"

#include <string>

namespace thistle {

/// Evaluated metrics of one mapping on one architecture.
struct EvalResult {
  bool Legal = false;        ///< False if any capacity is exceeded.
  std::string IllegalReason; ///< Diagnostic when !Legal.

  double EnergyPj = 0.0;     ///< Total energy (Eq. 3 structure).
  double EnergyPerMacPj = 0.0;
  double MacEnergyPj = 0.0;  ///< (4*eps_R + eps_op) * Nops component.
  double RegEnergyPj = 0.0;  ///< eps_R * DV(S<->R) component.
  double SramEnergyPj = 0.0; ///< eps_S * (DV(S<->R)+DV(S<->D)) component.
  double DramEnergyPj = 0.0; ///< eps_D * DV(S<->D) component.

  double EdpPjCycles = 0.0;  ///< Energy-delay product (pJ * cycles).

  double Cycles = 0.0;       ///< max(compute, DRAM, SRAM) cycles.
  double ComputeCycles = 0.0;
  double DramCycles = 0.0;
  double SramCycles = 0.0;
  double MacIpc = 0.0;       ///< Nops / Cycles (theoretical max = P).

  /// The underlying access counts: boundary 0 = SRAM<->registers,
  /// boundary 1 = DRAM<->SRAM; occupancy levels 0/1 = register/SRAM tiles.
  MultiProfile Profile;
};

/// Names the components of a classic-3-level generic evaluation: Eq. 3
/// components from the per-level energy vector, SRAM/DRAM cycles from the
/// per-level delay vector, and the fixed-depth legality wording
/// regenerated against \p Arch. The profile is moved in, not copied.
EvalResult evalResultFromMulti(const ArchConfig &Arch, MultiEvalResult ME);

} // namespace thistle

#endif // THISTLE_NESTMODEL_EVALUATOR_H
