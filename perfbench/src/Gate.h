//===- perfbench/src/Gate.h - The benchmark's correctness gate --*- C++ -*-===//
///
/// \file
/// Every benchmark operation is checked twice. Its result is reduced to a
/// canonical text (architecture, mapping, energy, cycles and per-task
/// outcome counts; never Newton counts, which a faster solver may change)
/// whose digest must equal the one recorded for it in expected_digests.tsv.
/// Independently, each winning design is re-scored with the "maestro"
/// backend: its access counts must equal the nest model's exactly, it must
/// fit its architecture, and a co-designed architecture must fit the area
/// budget.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GATE_H
#define PERFBENCH_GATE_H

#include "multilevel/MultiGp.h"
#include "nestmodel/Mapper.h"
#include "thistle/Network.h"

#include <map>
#include <string>

namespace perfbench {

/// Canonical result texts.
std::string canonicalNetwork(const thistle::NetworkResult &R);
std::string canonicalMulti(const thistle::MultiResult &R);
std::string canonicalMapper(const thistle::MultiMapperResult &R);

/// Re-scores a classic-3-level winner with the maestro backend. Returns
/// an empty string when the design passes, else the reason it fails.
/// \p AreaBudgetUm2 > 0 also bounds the architecture's area.
std::string rescoreClassic(const thistle::Problem &Prob,
                           const thistle::ArchConfig &Arch,
                           const thistle::Mapping &Map,
                           const thistle::EvalResult &Eval,
                           const thistle::TechParams &Tech,
                           double AreaBudgetUm2);

/// As above for a design on an L-level hierarchy.
std::string rescoreMulti(const thistle::Problem &Prob,
                         const thistle::Hierarchy &H,
                         const thistle::MultiMapping &Map,
                         const thistle::MultiEvalResult &Eval);

/// The expected digests of every operation, keyed "<workload>/<op>".
class Gate {
public:
  /// \p Record: accept every digest and write them back on save().
  /// \p Perturb: corrupt the first expected digest looked up, which must
  /// make that operation fail (the gate's self-test).
  Gate(std::string Path, bool Record, bool Perturb);

  /// Reads the expected digests; false (with \p Error set) when the file
  /// is unreadable and not in record mode.
  bool load(std::string &Error);

  /// Empty when \p Canonical's digest matches the expected one for
  /// \p Key, else the reason it does not.
  std::string check(const std::string &Key, const std::string &Canonical);

  /// Record mode: writes the recorded digests, merged into the file.
  bool save() const;

private:
  std::string Path;
  bool Record, Perturb;
  bool Perturbed = false;
  std::map<std::string, std::string> Expected;
};

} // namespace perfbench

#endif // PERFBENCH_GATE_H
