//===- nestmodel/Evaluator.h - Energy/delay evaluation ----------*- C++ -*-===//
//
// Part of the Thistle reproduction (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a NestProfile into the paper's metrics: total energy with the
/// Eq. 3 decomposition (MAC + register + SRAM + DRAM components), delay in
/// cycles as the maximum over the compute / DRAM-bandwidth /
/// SRAM-bandwidth components (section V-B), pJ/MAC and MAC IPC. Also
/// checks mapping legality against an ArchConfig (register/SRAM capacity,
/// PE count). This plays the role Timeloop's model plays in the paper:
/// "the final reported energy/performance metrics are based on
/// [the model's] simulation ... and not on Thistle's estimation".
///
//===----------------------------------------------------------------------===//

#ifndef THISTLE_NESTMODEL_EVALUATOR_H
#define THISTLE_NESTMODEL_EVALUATOR_H

#include "ir/Mapping.h"
#include "ir/Problem.h"
#include "model/TechModel.h"
#include "nestmodel/NestAnalysis.h"
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

  NestProfile Profile;       ///< The underlying access counts.
};

/// Evaluates \p Map for \p Prob on \p Arch with technology \p Tech.
///
/// Illegal mappings still carry metrics (useful for diagnostics) but are
/// flagged. Register capacity is per PE; SRAM capacity is shared.
///
/// Thin wrapper: lifts \p Arch to Hierarchy::classic3Level, runs the
/// generic L-level evaluation and maps the per-level decomposition back
/// onto the Eq. 3 / section V-B component names — bit-identically to the
/// pre-unification fixed-depth code.
EvalResult evaluateMapping(const Problem &Prob, const Mapping &Map,
                           const ArchConfig &Arch, const EnergyModel &Energy);

struct MultiEvalResult;

/// Repackages a classic-3-level generic evaluation into the fixed-depth
/// result: Eq. 3 components from the per-level energy vector, SRAM/DRAM
/// cycles from the per-level delay vector, and the fixed-depth legality
/// wording regenerated against \p Arch.
EvalResult evalResultFromMulti(const Problem &Prob, const ArchConfig &Arch,
                               const MultiEvalResult &ME);

} // namespace thistle

#endif // THISTLE_NESTMODEL_EVALUATOR_H
