//===- nestmodel/Evaluator.cpp - Energy/delay evaluation ------------------===//
//
// The evaluation itself is the hierarchy-generic one at
// Hierarchy::classic3Level (which prices the levels with the Eq. 4
// per-access energies); this file maps its per-level decomposition onto
// the Eq. 3 component names.
//
//===----------------------------------------------------------------------===//

#include "nestmodel/Evaluator.h"

#include <string>
#include <utility>

using namespace thistle;

EvalResult thistle::evalResultFromMulti(const ArchConfig &Arch,
                                        MultiEvalResult ME) {
  EvalResult Result;
  Result.Profile = std::move(ME.Profile);
  const std::int64_t RegTileWords = Result.Profile.Occupancy[0];
  const std::int64_t SramTileWords = Result.Profile.Occupancy[1];
  const std::int64_t PEsUsed = Result.Profile.PEsUsed;

  // Legality, regenerated in the fixed-depth wording (the generic
  // evaluator names the levels after the hierarchy). Each clause is
  // formatted only when its check fails.
  Result.Legal = ME.Legal;
  std::string &Why = Result.IllegalReason;
  if (RegTileWords > Arch.RegWordsPerPE)
    Why += "register tile " + std::to_string(RegTileWords) +
           " words > capacity " + std::to_string(Arch.RegWordsPerPE) + "; ";
  if (SramTileWords > Arch.SramWords)
    Why += "SRAM tile " + std::to_string(SramTileWords) +
           " words > capacity " + std::to_string(Arch.SramWords) + "; ";
  if (PEsUsed > Arch.NumPEs)
    Why += "uses " + std::to_string(PEsUsed) + " PEs > available " +
           std::to_string(Arch.NumPEs) + "; ";

  // Eq. 3 components from the per-level decomposition.
  Result.MacEnergyPj = ME.MacEnergyPj;
  Result.RegEnergyPj = ME.EnergyPerLevelPj[0];
  Result.SramEnergyPj = ME.EnergyPerLevelPj[1];
  Result.DramEnergyPj = ME.EnergyPerLevelPj[2];
  Result.EnergyPj = ME.EnergyPj;
  Result.EnergyPerMacPj = ME.EnergyPerMacPj;

  // Section V-B delay components.
  Result.ComputeCycles = ME.ComputeCycles;
  Result.SramCycles = ME.CyclesPerLevel[1];
  Result.DramCycles = ME.CyclesPerLevel[2];
  Result.Cycles = ME.Cycles;
  Result.MacIpc = ME.MacIpc;
  Result.EdpPjCycles = ME.EdpPjCycles;
  return Result;
}
